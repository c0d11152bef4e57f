"""Declarative catalogue of scalar and vector random sources.

Every catalogue distribution has all moments finite, so L_p and Orlicz
norm queries are always well posed.  A spec checks its fields when it is
built, so every spec object is valid.  Sampling is deterministic: the
triple (spec, seed, count) plus an optional stream index fully determines
the output, so parallel shards can be merged deterministically.  Each
(seed, stream) pair has its own SFC64 generator (see `_rng`).

Moments, MGFs and supports are computed on `canonical(spec)`, which folds
the wrappers Shifted, Scaled, SquareOf and Centered into one of three forms,
each a spec: a FiniteSupport of distinct values; a re-parameterised Gaussian
or UniformInterval when the chain is affine; or a chain of Shifted, Scaled
and SquareOf around one primitive law, Centered written as its shift.  Each
of these wrappers (`_Step`) is the one statement of its map step: the map
of an array, the image of an interval and the preimages of values, which
drawing, supports, folds and the walks of a chain read.  Sampling walks
the spec as written, so draws never depend on the canonical form.

`standard_form(spec)` writes a law as a scale times one standard law of its
shape: a centered law drops its last shift, and the scale steps of its
chain move out in front with the scale of its base (sd N(0, 1), a
half-width times U(-1, 1), |a| / rate Centered(Exponential(1)), sd^2
Centered(ChiSquared(1)) for a centered (sd Z)^2, ...).  psi norms are
searched once per standard law.  The moments of a chain whose standard
law is another law of mean 0 are that law's rows plus p ln scale; every
other law reads its own parameters.  Every query reads its spec's one
record (`_law`), in one bounded memo: the form, standard form, moment rows
and psi estimates.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, xlogy

__all__ = [
    "Spec", "Distribution", "Gaussian", "Exponential", "Rademacher",
    "UniformInterval", "Poisson", "ChiSquared", "TwoPointEps", "FiniteSupport",
    "Chi", "UniformGap", "Shifted", "Scaled", "SquareOf", "Centered", "VectorSpec",
    "SpecError", "MomentDivergenceError", "QuadratureError", "validate",
    "canonical", "standard_form", "round_up", "mean", "support_interval", "abs_moment", "lp_norm",
    "log_abs_moment", "log_abs_moments", "mgf", "sample",
    "spec_to_dict", "spec_from_dict",
]

_MAX_DEPTH = 64
_SCAN = 4001        # points of the scan that finds a live window
_STRIDE = 20        # the scan's coarse pass reads every _STRIDE-th point
# scan indices as floats, exact, so that the scan's arrays are all float64
_CELL = np.arange(1.0, _STRIDE)   # a cell's inner points, after its first
_COARSE = np.arange(0.0, _SCAN, _STRIDE)  # the cells' ends
_CELLS = np.arange(len(_COARSE) - 1.0)    # the cells, by index
_BLOCK = 64         # orders per pass of the numeric moment path


class SpecError(ValueError):
    """Invalid distribution parameters; message names the offending field."""


class MomentDivergenceError(ValueError):
    """Requested transform (e.g. an MGF value) does not exist."""


class QuadratureError(RuntimeError):
    """A numeric expectation is not to be trusted: the fixed tanh-sinh rule
    disagrees with its embedded coarse rule, or a sum or search did not
    converge."""


# ---------------------------------------------------------------------------
# Specs check their fields by annotation when they are built

Positive = float    # annotation: a finite number > 0
Count = int         # annotation: an integer >= 1
Specs = tuple       # annotation: a nonempty list of scalar distribution specs


def _number(value, name, kind=numbers.Real, positive=False):
    """value if it is a finite number of the given kind (and > 0 if asked),
    as an int for integers and as a float for real numbers, so that 2 and
    2.0 give one spec with one JSON form."""
    # a float is a Real: the common case skips the ABC check
    if (type(value) is not float or kind is not numbers.Real) and (
            isinstance(value, bool) or not isinstance(value, kind)):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise SpecError(f"{name} must be {what}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise SpecError(f"{name} must be finite, got {value!r}")
    if positive and not value > 0:
        raise SpecError(f"{name} must be positive, got {value}")
    return int(value) if kind is numbers.Integral else float(value)


def _count(value, name):
    return _number(value, name, numbers.Integral, positive=True)


def _items(value, name):
    """value as a tuple, if it is a list, tuple or array."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise SpecError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _floats(value, name):
    """value as a tuple of floats, if it is a list of finite numbers."""
    items = _items(value, name)
    if all(type(v) is float and math.isfinite(v) for v in items):
        return items    # what _number gives each
    return tuple(_number(v, name) for v in items)


def _instance(value, name, cls, what):
    if not isinstance(value, cls):
        raise SpecError(f"{name} must be a {what}, got {value!r}")
    return value


def _scalar(value, name="spec"):
    return _instance(value, name, Distribution, "scalar distribution spec")


def _scalars(value, name):
    specs = tuple(_scalar(c, name) for c in _items(value, name))
    if not specs:
        raise SpecError(f"{name} must be nonempty")
    return specs


# annotation name -> check returning the (normalised) field value
_CHECKS = {
    "float": _number, "Count": _count, "Distribution": _scalar, "Specs": _scalars,
    "Positive": lambda v, name: _number(v, name, positive=True),
    "bool": lambda v, name: _instance(v, name, bool, "boolean"),
    "VectorSpec": lambda v, name: _instance(v, name, VectorSpec, "vector spec"),
}
# annotation name -> how the JSON codec nests it: one spec, or a list of them
_NESTED = {"Distribution": "one", "VectorSpec": "one", "Specs": "list"}


@functools.cache
def _fields(cls):
    """The field table of a spec class, built on its first use and read by
    every build, decode and encode: name -> (check, nested, required) per
    dataclass field, in order, with the check of its annotation (None for
    none), how the codec nests it (see _NESTED; None for a plain value) and
    whether it has no default."""
    table = {}
    for f in dataclasses.fields(cls):
        annotation = f.type.rsplit(".", 1)[-1]
        table[f.name] = (_CHECKS.get(annotation), _NESTED.get(annotation),
                         f.default is dataclasses.MISSING)
    return table


class Spec:
    """A registered spec: a frozen dataclass with a JSON `kind`.  Building
    one checks each field by its annotation (see `_fields`), then `_check`
    checks relations between fields."""

    def __init_subclass__(cls):
        cls.__hash__ = Spec.__hash__    # defined on the class, so @dataclass keeps it

    def __hash__(self):
        """The dataclass hash, of the field values' tuple, computed once per
        instance: a nested spec would hash every level again on each call."""
        values = vars(self)
        if "_hash" not in values:
            values["_hash"] = hash(tuple([values[name] for name in _fields(type(self))]))
        return values["_hash"]

    def __post_init__(self):
        values = vars(self)
        for name, (check, _, _) in _fields(type(self)).items():
            if check is not None:
                values[name] = check(values[name], name)
        self._check()

    def _check(self): pass


def _built(cls, *values):
    """cls(*values), or None where its checks refuse these values."""
    try:
        return cls(*values)
    except SpecError:
        return None


# ---------------------------------------------------------------------------
# The scalar catalogue

class Distribution(Spec):
    """A scalar law.  Every family has `expectation()` and `fill(rng, out)`,
    which writes len(out) draws into `out`, a contiguous float64 row, in
    place: numpy's standard sampler into `out`, then the steps of numpy's
    own formula for the law, in place, which give the bits of numpy's
    sampler of the law (`loc + scale * z` is rounded twice, never fused).  A wrapper fills its
    base, then applies its one step in place.  The families that are
    canonical forms also have `support()`, `log_abs_moments(ps)` and
    `mgf(beta)`, which a wrapper reads off its base."""

    # _fold gives the canonical form; _affine the family's own spec for the
    # law after an affine step, if the family is closed under it and the new
    # parameters pass its checks (else the step is kept as a wrapper)
    def _fold(self): return self
    def _affine(self, step): return None
    def sum_law(self, n):
        """The catalogue spec of the sum of n iid copies, or None when the
        family is not closed under convolution."""
        return None
    def abs_difference_law(self):
        """A spec whose absolute value has the law of |X - X'|, for iid
        copies X, X' of this canonical form, or None when there is none."""
        return None
    def unit_law(self):
        """(s, b, U) with this law that of s U + b, for exact rationals s > 0
        and b, each an integer ratio (numerator, denominator > 0), and U the
        family's law of unit scale, or None for a law that is not a
        continuous family or Poisson (see `standard_form`)."""
        return None
    def expectation(self): return canonical(self).expectation()
    def mgf(self, beta): raise NotImplementedError    # a family with no closed form
    def squared_mgf(self, beta): return _squared_mgf(*_chain(self), beta, self.support())
    max_psi_alpha = None    # the largest alpha with a finite psi norm, which unbounded families state

    def draw(self, rng, count):
        """`count` draws in a new array."""
        out = np.empty(count)
        self.fill(rng, out)
        return out

    def _push(self, step):
        """Canonical form of the law after the map step of `step`, a `_Step`
        whose base is not read: the family's own spec where it is closed
        under the step, else the step around this form (step itself where
        its base is this form)."""
        folded = None if type(step) is SquareOf else self._affine(step)
        return folded or (step if step.base == self else dataclasses.replace(step, base=self))


class _Continuous(Distribution):
    """A law with a density; numeric expectations integrate over a window."""

    def _live(self, log_h_vec, ps):
        """For each p of ps, the peak k of h = log_h + logpdf on a _SCAN-point
        scan of window(p), and the scan points (a, b) next to the first and
        last points within e^80 of k.  Read in cells of _STRIDE steps: the
        cells' ends; the inner points of the end cells (a density singularity
        sits there) and of those beside each live coarse local maximum (h may
        have several modes); the cells before and after the live points.  The
        points read are np.linspace's, so (k, a, b) are the full scan's unless
        a peak or live point hides in a cell no pass reads.  Each pass reads
        its points in one call of log_h_vec and logpdf; the few numbers per
        row past it (the live ends, their cells, the window ends) are
        Python's, by the same float operations.  The caller holds
        np.errstate for the reads."""
        n = len(ps)
        lo, hi = np.empty((2, n, 1))      # each window end as a column
        lo[:, 0], hi[:, 0] = self.window(ps)
        step = (hi - lo) / (_SCAN - 1)

        def at(j):      # the scan points j below the last, hi, as np.linspace gives them
            xs = j * step
            xs += lo
            return xs

        def read(xs):
            h = np.add(log_h_vec(xs), self.logpdf(xs))
            h[~np.isfinite(h)] = -np.inf
            return h

        xs = at(_COARSE)
        xs[:, -1:] = hi
        h = read(xs)
        # live and not below either neighbour; beyond the ends lies -inf
        peak = h > np.maximum.reduce(h, axis=1, keepdims=True) - 80.0
        peak[:, 1:] &= h[:, 1:] >= h[:, :-1]
        peak[:, :-1] &= h[:, :-1] >= h[:, 1:]
        near = peak[:, :-1] | peak[:, 1:]
        near[:, 0] = near[:, -1] = True
        # each row's near cells, padded with its cell 0: reads stay per row
        c = np.where(near, _CELLS, 0)
        c.sort(axis=1)
        c = c[:, -max(np.add.reduce(near, axis=1).tolist()):]
        j = np.repeat(_COARSE[None], n, axis=0)
        for ends in (False, True):      # the peak pass, then the ends pass
            inner = (_STRIDE * c[..., None] + _CELL).reshape(n, -1)
            h = np.concatenate([h, read(at(inner))], axis=1)
            j = np.concatenate([j, inner], axis=1)
            k = np.maximum.reduce(h, axis=1, keepdims=True)
            live = h > k - 80.0     # none live: first 0, last _SCAN - 1, as in the full scan
            first = np.minimum.reduce(np.where(live, j, _SCAN), axis=1).tolist()
            last = np.maximum.reduce(np.where(live, j, -1), axis=1).tolist()
            first, last = [int(f) % _SCAN for f in first], [int(i) % _SCAN for i in last]
            if ends:
                break
            # the cells of the points before the first and at the last live point
            c = np.array([(max(f - 1, 0) // _STRIDE, min(i, _SCAN - 2) // _STRIDE)
                          for f, i in zip(first, last)], dtype=float)
        # the scan points next to them, by the float operations of `at`, and hi at the last
        dx, x0, x1 = step[:, 0].tolist(), lo[:, 0].tolist(), hi[:, 0].tolist()
        a = [max(f - 1, 0) * d + x for f, d, x in zip(first, dx, x0)]
        b = [top if i + 1 >= _SCAN - 1 else (i + 1) * d + x for i, d, x, top in zip(last, dx, x0, x1)]
        return k[:, 0], np.array(a), np.array(b)

    def _log_expects(self, log_g, qs, ps, steps=None):
        """ln E exp(q log_g(X)) for each q of qs, by a fixed tanh-sinh rule
        on the live window of the p of ps at its place.  The window is
        clipped to the support and cut at the zeros of the map steps of
        log_g = ln|g| (no cut for steps None, where log_g is no such map);
        each piece is split into _PANELS equal panels, and each node is built
        from the end it is nearer.  The rule at t = j/4 reads every
        other node at twice the weight; where it and the rule at t = j/8
        differ by more than 1e-5 p in ln (1e-5 at p = 0), QuadratureError is
        raised.  One np.errstate holds for the scan and the rule."""
        q = qs[:, None, None, None]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            q2 = q[..., 0, 0]
            k, a, b = self._live(lambda xs: q2 * log_g(xs), ps)
            val, coarse = self._rule(log_g, q, ps, k, a, b, () if steps is None else _zeros(steps))
            log_val = np.log(val)
            gap = np.abs(log_val - np.log(coarse))
        orders = ps.tolist()
        for v, p in zip(val.tolist(), orders):
            if not 0.0 < v < math.inf:
                raise QuadratureError(f"fixed-rule quadrature failed (value {v}) at p={p!r}")
        for g, p in zip(gap.tolist(), orders):
            if not g <= 1e-5 * (p if p > 0 else 1.0):
                raise QuadratureError(f"the tanh-sinh rules at t = j/8 and j/4 differ by {g:.3g} "
                                      f"in ln E at p={p!r}")
        return k + log_val

    def _rule(self, log_g, q, ps, k, a, b, kinks):
        """The sums of the rules at t = j/8 and t = j/4, each scaled by e^-k,
        on the window [a, b] of each row."""
        lo, hi = self.support()
        cuts = np.empty((len(ps), 2 + len(kinks)))
        a, b = np.maximum(a, lo, out=cuts[:, 0]), np.minimum(b, hi, out=cuts[:, 1])
        for i, z in enumerate(kinks):
            np.minimum(np.maximum(z, a), b, out=cuts[:, 2 + i])
        cuts.sort(axis=1)
        edges = cuts[:, :-1, None] + (cuts[:, 1:] - cuts[:, :-1])[:, :, None] * _PANEL_EDGES
        u, v = edges[..., :-1, None], edges[..., 1:, None]
        w = v - u
        x = np.empty(w.shape[:-1] + _TS_W.shape)
        left, right = x[..., :_TS_MID], x[..., _TS_MID:]
        np.multiply(w, _TS_LEFT[:_TS_MID], out=left)
        left += u
        np.multiply(w, _TS_RIGHT[_TS_MID:], out=right)
        np.subtract(v, right, out=right)
        e, f = log_g(x), self.logpdf(x)
        e *= q
        e += f
        e -= k[:, None, None, None]
        low = ~(e > -700)   # NaN too
        np.exp(e, out=e)
        e[low] = 0.0
        e *= w
        e *= _TS_W
        return np.add.reduce(e, axis=(1, 2, 3)), 2.0 * np.add.reduce(e[..., ::2], axis=(1, 2, 3))


# The tanh-sinh (Takahasi-Mori) rule on a panel [u, v]: nodes at t = j/8,
# |t| <= 4, sit at u + (v - u) * _TS_LEFT = v - (v - u) * _TS_RIGHT, and the
# rule is (v - u) * sum(_TS_W * f(node)).  Both fractions are kept, so a node
# next to either end keeps its distance to that end in full precision, which
# integrable end point singularities (the chi-squared density at 0) need.
_PANELS = 8
_PANEL_EDGES = np.linspace(0.0, 1.0, _PANELS + 1)
_TS_T = np.arange(-32, 33) / 8.0
_TS_LEFT, _TS_RIGHT = expit(math.pi * np.sinh(_TS_T)), expit(-math.pi * np.sinh(_TS_T))
_TS_W = math.pi * _TS_LEFT * _TS_RIGHT * np.cosh(_TS_T) / 8.0
_TS_MID = int(np.sum(_TS_LEFT < 0.5))      # the nodes nearer u, for t < 0


# Each family lists its one-line facts as a group, then its longer methods.

@dataclass(frozen=True)
class Gaussian(_Continuous):
    kind = "gaussian"
    mean: float = 0.0
    sd: Positive = 1.0
    max_psi_alpha = 2    # E exp(lambda |X|^a) is finite for a = 2, lambda < 1 / (2 sd^2), not a > 2

    def expectation(self): return self.mean
    def support(self): return -math.inf, math.inf
    def sum_law(self, n): return Gaussian(n * self.mean, math.sqrt(n) * self.sd)
    def abs_difference_law(self): return Gaussian(0.0, math.sqrt(2.0) * self.sd)
    def mgf(self, beta): return math.exp(beta * self.mean + 0.5 * beta ** 2 * self.sd ** 2)
    def unit_law(self): return self.sd.as_integer_ratio(), self.mean.as_integer_ratio(), _UNIT_GAUSSIAN

    def fill(self, rng, out):
        rng.standard_normal(out=out)
        out *= self.sd
        out += self.mean

    def logpdf(self, x):
        # -ln sd - ln(2 pi) / 2 - ((x - mean) / sd)^2 / 2, in place
        t = np.array(x, dtype=float)
        t -= self.mean
        t /= self.sd
        np.square(t, out=t)
        t *= 0.5
        return np.subtract(-math.log(self.sd) - 0.5 * math.log(2 * math.pi), t, out=t)

    def window(self, p):
        w = np.sqrt(2 * p) + 12.0
        return self.mean - w * self.sd, self.mean + w * self.sd

    def log_abs_moments(self, ps):
        if self.mean != 0.0:
            return _log_moments(self, (), ps)
        # E|N(0,sd)|^p = sd^p * 2^(p/2) * Gamma((p+1)/2) / sqrt(pi)
        return (ps * math.log(self.sd) + 0.5 * ps * math.log(2.0)
                + gammaln((ps + 1) / 2) - 0.5 * math.log(math.pi))

    def squared_mgf(self, beta):
        # (X / sd)^2 is noncentral chi-squared with one degree of freedom
        s = 1.0 - 2.0 * beta * self.sd ** 2
        if s <= 0:
            raise MomentDivergenceError
        return s ** -0.5 * math.exp(beta * self.mean ** 2 / s)

    def _affine(self, step):
        # a mean or sd past the floats, or an sd that rounds to 0, keeps the step as a wrapper
        return _built(Gaussian, *((self.mean + step.offset, self.sd) if type(step) is Shifted else
                                  (step.factor * self.mean, abs(step.factor) * self.sd)))


@dataclass(frozen=True)
class Exponential(_Continuous):
    kind = "exponential"
    rate: Positive
    max_psi_alpha = 1    # the MGF is finite below the rate, and only there

    def expectation(self): return 1.0 / self.rate
    def support(self): return 0.0, math.inf
    def window(self, p): return 0.0, (p + 8 * np.sqrt(p) + 40.0) / self.rate
    def log_abs_moments(self, ps): return gammaln(ps + 1) - ps * math.log(self.rate)
    # Gamma(n, rate) is chi-squared with 2n degrees of freedom over 2 rate
    def sum_law(self, n): return Scaled(ChiSquared(2 * n), 1.0 / (2.0 * self.rate))
    # Y - Y' is Laplace with scale 1/rate, so |Y - Y'| is again Exponential
    def abs_difference_law(self): return self
    def unit_law(self):
        n, d = self.rate.as_integer_ratio()     # 1 / rate, exactly
        return (d, n), (0, 1), _UNIT_EXPONENTIAL

    def fill(self, rng, out):
        rng.standard_exponential(out=out)
        out *= 1.0 / self.rate

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.subtract(math.log(self.rate), x * self.rate), -np.inf)

    def mgf(self, beta):
        if beta >= self.rate:
            raise MomentDivergenceError
        return self.rate / (self.rate - beta)


@dataclass(frozen=True)
class Rademacher(Distribution):
    kind = "rademacher"

    def _fold(self): return FiniteSupport((-1.0, 1.0), (0.5, 0.5))

    def fill(self, rng, out):
        _fill_runs(out, lambda run: np.multiply(rng.integers(0, 2, len(run)), 2.0, out=run))
        out -= 1.0

    def sum_law(self, n):
        # 2 Binomial(n, 1/2) - n; the weights C(n, k) / 2^n are exact
        # integer ratios, each rounded once
        total, c, probs = 2 ** n, 1, []
        for k in range(n + 1):
            probs.append(c / total)
            c = c * (n - k) // (k + 1)
        return FiniteSupport([2.0 * k - n for k in range(n + 1)], probs)


@dataclass(frozen=True)
class UniformInterval(_Continuous):
    kind = "uniform"
    lo: float
    hi: float

    def expectation(self): return 0.5 * (self.lo + self.hi)
    def support(self): return self.lo, self.hi
    def window(self, p): return self.lo, self.hi
    def log_abs_moments(self, ps):     # math.log per order, as in FiniteSupport
        return np.array([_uniform_log_abs_moment(self.lo, self.hi, p) for p in ps])
    def abs_difference_law(self): return UniformGap(self.hi - self.lo)

    def unit_law(self):
        # the half-width and center, (hi -+ lo) / 2 over the common denominator
        (hn, hd), (ln, ld) = self.hi.as_integer_ratio(), self.lo.as_integer_ratio()
        den = 2 * hd * ld
        return (hn * ld - ln * hd, den), (hn * ld + ln * hd, den), _UNIT_UNIFORM

    def fill(self, rng, out):
        rng.random(out=out)
        out *= self.hi - self.lo
        out += self.lo

    def _check(self):
        if not self.lo < self.hi:
            raise SpecError(f"lo must be < hi, got lo={self.lo}, hi={self.hi}")
        if not math.isfinite(self.hi - self.lo):
            raise SpecError(f"hi - lo must be finite, got lo={self.lo}, hi={self.hi}")

    def logpdf(self, x):
        x = np.asarray(x)
        return np.where((x >= self.lo) & (x <= self.hi),
                        -math.log(self.hi - self.lo), -np.inf)

    def mgf(self, beta):
        # e^(beta mid) sinh(x) / x at x = |beta| w / 2, which below x = 1
        # does not cancel at small beta as e^(beta hi) - e^(beta lo) does;
        # past it, e^(beta top) (1 - e^(-2x)) / 2x, top the end beta favours
        x = abs(beta) * (0.5 * self.hi - 0.5 * self.lo)
        if x < 1.0:
            mid = 0.5 * self.lo + 0.5 * self.hi
            return math.exp(beta * mid) * (math.sinh(x) / x if x else 1.0)
        top = self.hi if beta > 0 else self.lo
        return math.exp(beta * top) * -math.expm1(-2.0 * x) / (2.0 * x)

    # an end past the floats, or an interval that rounding closes, keeps the step as a wrapper
    def _affine(self, step): return _built(UniformInterval, *step._image(self.lo, self.hi))


@dataclass(frozen=True)
class Poisson(Distribution):
    kind = "poisson"
    rate: Positive
    max_psi_alpha = 1    # P(X = k) e^(lambda k^a) grows without bound for a > 1

    def expectation(self): return self.rate
    def support(self): return 0.0, math.inf
    def fill(self, rng, out): _fill_runs(out, lambda r: np.copyto(r, rng.poisson(self.rate, len(r))))
    def sum_law(self, n): return Poisson(n * self.rate)
    def log_abs_moments(self, ps): return _log_moments(self, (), ps)
    def mgf(self, beta): return math.exp(self.rate * (math.exp(beta) - 1.0))
    def unit_law(self): return (1, 1), (0, 1), self     # no scale family

    def _log_expects(self, log_g, qs, ps, steps=None):
        """ln E exp(q log_g(X)) for each q of qs: the series over k in one
        array pass, long enough that for every q a term past the mean and
        past every kink (a zero of the map steps) falls below the term
        before it and e^40 below every term before it.  Past the last zero
        |g(k)|^p P(k) is log-concave in k, so the series ends past its
        right-hand mode, not at a term that only lies far below an earlier
        mode or before the terms rise again beyond a zero.  A zero past
        _POISSON_TERMS is not walked to: the series ends where, besides,
        the rest of it is certified below e^-40 of its sum (`_poisson_rest`),
        its far zero included."""
        lam, n = self.rate, int(self.rate) + 64
        if n > _POISSON_TERMS:      # too long to build, and it ends 63 terms past the mean
            raise QuadratureError(f"Poisson series of rate {lam!r} needs over 100000 terms")
        kinks = () if steps is None else _zeros(steps)
        near = [z for z in kinks if z <= _POISSON_TERMS]
        last, far = max(near, default=-math.inf), len(near) < len(kinks)
        # the first term k >= 1 with k + 1 > lam + 10 and k past every near kink
        first = max(1, math.floor(lam + 10.0) - 1, math.floor(last) if last > 0 else 1)
        while not (first + 1.0 > lam + 10.0 and first > last):
            first += 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while True:
                k = np.arange(n, dtype=float)
                t = qs[:, None] * log_g(k) + k * math.log(lam) - lam - gammaln(k + 1)
                head, tail = t[:, :-1], t[:, 1:]
                stop = (tail < head) & (tail < np.maximum.accumulate(head, axis=1) - 40)
                if np.logical_or.reduce(stop[:, first - 1:], axis=1).all():
                    m = np.maximum.reduce(t, axis=1)
                    sums = m + np.log(np.add.reduce(np.exp(t - m[:, None]), axis=1))
                    if not far or (_poisson_rest(lam, steps, qs, n) <= sums - 40).all():
                        return sums
                if n > _POISSON_TERMS:
                    raise QuadratureError("Poisson series did not converge")
                n *= 2


_POISSON_TERMS = 100000     # the terms past which a Poisson series is not built


def _poisson_rest(lam, steps, qs, n):
    """For each q > 0 of qs, an upper bound on ln of the rest of the series
    of E|g(X)|^q past its first n terms, X ~ Poisson(lam): |g(k)| <= M (1 +
    k)^d for k >= 0 (M and d walked through each step's `_growth`), and the
    terms of (1 + k)^(q d) P(k) fall by a ratio that decreases in k, at most
    r at k = n, so the rest is at most M^q (1 + n)^(q d) P(n) / (1 - r); inf
    where r >= 1."""
    log_m, d = 0.0, 1
    for step in steps:
        log_m, d = step._growth(log_m, d)
    r = np.exp(qs * (d * math.log1p(1.0 / (n + 1)))) * (lam / (n + 1))
    head = qs * (log_m + d * math.log1p(n)) + n * math.log(lam) - lam - math.lgamma(n + 1.0)
    return np.where(r < 1.0, head - np.log1p(-r), math.inf)     # under the caller's np.errstate


@dataclass(frozen=True)
class ChiSquared(_Continuous):
    kind = "chi_squared"
    dof: Count
    max_psi_alpha = 1    # the MGF is finite below 1/2, and only there

    def expectation(self): return float(self.dof)
    def support(self): return 0.0, math.inf
    def fill(self, rng, out): _fill_chi_squared(rng, self.dof, out)
    def sum_law(self, n): return ChiSquared(n * self.dof)

    def unit_law(self):
        # chi-squared(2) is Exponential(1/2), twice Exponential(1)
        if self.dof == 2:
            return (2, 1), (0, 1), _UNIT_EXPONENTIAL
        return (1, 1), (0, 1), self

    def logpdf(self, x):
        k2 = self.dof / 2.0
        c = -k2 * math.log(2.0) - float(gammaln(k2))
        x = np.asarray(x, dtype=float)
        t = np.log(np.maximum(x, 1e-300))   # c + (k2 - 1) ln x - x / 2, in place
        t *= k2 - 1
        t += c
        t -= x / 2
        return np.where(x > 0, t, -np.inf)     # -inf off the support, or NaN

    def window(self, p):
        peak = self.dof + 2 * p
        return 0.0, peak + 10 * np.sqrt(peak) + 50.0

    def log_abs_moments(self, ps):
        return (ps * math.log(2.0) + gammaln(self.dof / 2 + ps)
                - float(gammaln(self.dof / 2)))

    def mgf(self, beta):
        if beta >= 0.5:
            raise MomentDivergenceError
        return (1.0 - 2.0 * beta) ** (-self.dof / 2)


def _fill_chi_squared(rng, dof, out):
    # numpy's chisquare: twice a standard gamma of shape dof / 2
    rng.standard_gamma(dof / 2, out=out)
    out *= 2.0


@dataclass(frozen=True)
class TwoPointEps(Distribution):
    """X = +1 w.p. eps/2, -1 w.p. eps/2, 0 otherwise.

    Centered, |X| <= 1 and Pr{|X| > eps} <= eps hold exactly, which makes
    this the canonical strongly concentrated variable.
    """
    kind = "two_point_eps"
    eps: float

    def _check(self):
        if not 0 < self.eps < 1:
            raise SpecError(f"eps must lie in (0,1), got {self.eps}")

    def fill(self, rng, out):
        def draw(run):      # 1 below eps / 2, -1 from there to eps, else 0
            u = rng.random(len(run))
            np.subtract(2.0 * (u < self.eps / 2), u < self.eps, out=run)
        _fill_runs(out, draw)

    def _fold(self):
        e = self.eps    # in (0, 1): the probs are floats in [0, 1] that sum to 1
        return FiniteSupport((-1.0, 0.0, 1.0), (e / 2, 1 - e, e / 2))


@dataclass(frozen=True)
class FiniteSupport(Distribution):
    kind = "finite_support"
    values: tuple
    probs: tuple

    def expectation(self): return float(np.dot(self.values, self.probs))
    def support(self): return min(self.values), max(self.values)

    def _fold(self):
        v = self.values
        return self if all(a < b for a, b in zip(v, v[1:])) else _merged(v, self.probs)

    def _check(self):
        for name in ("values", "probs"):
            object.__setattr__(self, name, _floats(getattr(self, name), name))
        if len(self.values) != len(self.probs) or not self.values:
            raise SpecError("values and probs must be equal-length nonempty lists")
        if min(self.probs) < 0:
            raise SpecError(f"probs must be nonnegative, got {self.probs}")
        _check_total(self.probs)

    def fill(self, rng, out):
        values = np.asarray(self.values)
        probs = np.asarray(self.probs, dtype=float)
        probs /= probs.sum()
        _fill_runs(out, lambda run: np.take(values, rng.choice(len(values), size=len(run), p=probs),
                                            out=run))

    @functools.cached_property
    def _logs(self):
        """ln probs and ln |values| as arrays; -inf where either is 0."""
        with np.errstate(divide="ignore"):
            return np.log(self.probs), np.log(np.abs(self.values))

    def log_abs_moments(self, ps):
        # one (p, value) log-sum-exp; math.log per row, as np.log differs
        # from it in the last bit on some inputs
        log_p, log_v = self._logs
        terms = log_p + np.multiply.outer(ps, log_v)
        m = terms.max(axis=1)
        if not len(m) or m[0] == -math.inf:     # every row is -inf or none is
            return m
        sums = np.exp(terms - m[:, None]).sum(axis=1)
        return m + np.array([math.log(s) for s in sums])

    def mgf(self, beta):
        values = np.asarray(self.values)
        # beta v past the largest float reads inf and the MGF NaN, which `mgf` refuses
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.max(beta * values)
            return float(math.exp(m) * np.dot(self.probs, np.exp(beta * values - m)))

    def abs_difference_law(self):
        # the pair law; with probs normalised by their fsum, it sums to 1
        # within 1e-12 whenever this law does
        lo, hi = min(self.values), max(self.values)
        if not math.isfinite(hi - lo):
            raise SpecError(f"values must differ by a finite amount, got min={lo}, max={hi}")
        v, p = np.asarray(self.values), np.asarray(self.probs) / math.fsum(self.probs)
        return FiniteSupport(np.abs(v[:, None] - v).ravel().tolist(), np.outer(p, p).ravel().tolist())

    def _push(self, step):
        # a value past the largest float is inf, which the new law refuses
        values = np.array(self.values)
        with np.errstate(over="ignore"):
            step._map(values, values)
        try:
            return _merged(values, self.probs)
        except SpecError as exc:
            raise SpecError(f"{self} after the map step {step._text()}: {exc}") from None


def _check_total(probs):
    total = math.fsum(probs)    # the exact sum, rounded once: its order does not count
    if abs(total - 1.0) > 1e-12:
        raise SpecError(f"probs must sum to 1 within 1e-12, got sum {total!r}")


def _merged(values, probs):
    """FiniteSupport with sorted values; only equal values merge, and its
    checks refuse a value past the largest float and merged probs that no
    longer sum to 1 within 1e-12."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(values)
    merged_v, merged_p = [], []
    for v, p in zip(values[order].tolist(), probs[order].tolist()):
        if merged_v and v == merged_v[-1]:
            merged_p[-1] += p
        else:
            merged_v.append(v)
            merged_p.append(p)
    return FiniteSupport(merged_v, merged_p)


@dataclass(frozen=True)
class Chi(_Continuous):
    """sd chi_dof, the length of dof iid N(0, sd^2) entries; not a JSON kind."""
    dof: Count
    sd: Positive = 1.0
    max_psi_alpha = 2    # its square is sd^2 chi-squared, whose MGF is finite below 1/2 only

    def support(self): return 0.0, math.inf
    def expectation(self): return _exp(self.log_abs_moments(np.ones(1))[0], "the mean of {}", self)
    # |x|^p pdf(x) peaks at sd sqrt(p + dof - 1)
    def window(self, p): return 0.0, self.sd * (np.sqrt(2.0 * (p + self.dof)) + 12.0)
    def unit_law(self): return self.sd.as_integer_ratio(), (0, 1), Chi(self.dof, 1.0)
    def squared_mgf(self, beta): return ChiSquared(self.dof).mgf(beta * self.sd * self.sd)

    def fill(self, rng, out):
        _fill_chi_squared(rng, self.dof, out)
        np.sqrt(out, out=out)
        out *= self.sd

    def log_abs_moments(self, ps):
        return (ps * math.log(self.sd) + 0.5 * ps * math.log(2.0)
                + gammaln((self.dof + ps) / 2) - float(gammaln(self.dof / 2)))

    def logpdf(self, x):
        k, x = self.dof, np.asarray(x, dtype=float)
        c = (1.0 - k / 2.0) * math.log(2.0) - float(gammaln(k / 2.0)) - k * math.log(self.sd)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = xlogy(k - 1, x)     # c + (k - 1) ln x - (x / sd)^2 / 2, in place
            t += c
            u = np.square(x / self.sd)
            u *= 0.5
            t -= u
        return np.where(x >= 0, t, -np.inf)


@dataclass(frozen=True)
class UniformGap(_Continuous):
    """|U - U'| for iid U, U' uniform on an interval of this width, the
    triangular law on [0, width]; not a JSON kind."""
    width: Positive

    def support(self): return 0.0, self.width
    def window(self, p): return 0.0, self.width
    def expectation(self): return self.width / 3.0
    def unit_law(self): return self.width.as_integer_ratio(), (0, 1), _UNIT_GAP

    def log_abs_moments(self, ps):
        # E|D|^p = 2 width^p / ((p+1)(p+2)), with math.log per order
        return np.array([p * math.log(self.width) + math.log(2.0) - math.log((p + 1.0) * (p + 2.0))
                         for p in ps])

    def logpdf(self, x):
        # density 2 (width - x) / width^2 on [0, width]
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(np.subtract(self.width, x))
            t += math.log(2.0)
            t -= 2.0 * math.log(self.width)
        return np.where((x >= 0) & (x <= self.width), t, -np.inf)


@dataclass(frozen=True)
class _Step(Distribution):
    """The law of g(X), X of law `base`, for the one map step g that each
    subclass states once: `_map` of an array (in place into `out` if given),
    `_image` of an interval [lo, hi], each end rounded to nearest, and
    `_preimages` of a list of values.  Drawing, the support, the fold,
    `_apply` and `_zeros` read these.  Each also states its step of the fold
    of `orlicz._tail_bound`, `_tail(tail, log_scale, shift)`: tail is that
    of the law Y of the last square or primitive read, and e^log_scale Y +
    shift the map of the affine steps read since (`_tail_sum`); and (ln M,
    d) with |g(x)| <= M (1 + |x|)^d, `_growth` (`_poisson_rest`).  Only the
    exact walk of `_standard_form`, `_push` and `Gaussian._affine` switch on
    the step's class."""
    base: Distribution

    def fill(self, rng, out):
        self.base.fill(rng, out)
        self._map(out, out)

    def support(self): return self._image(*self.base.support())
    def _fold(self): return _law(self.base).form._push(self)
    max_psi_alpha = property(lambda self: self.base.max_psi_alpha)     # a square's halves it

    def _text(self):
        """The step without its base, as in "Scaled(factor=2.0)"."""
        fields = [f"{name}={vars(self)[name]!r}" for name in _fields(type(self)) if name != "base"]
        return f"{type(self).__name__}({', '.join(fields)})"


@dataclass(frozen=True)
class Shifted(_Step):
    kind = "shifted"
    offset: float

    def expectation(self): return self.base.expectation() + self.offset
    def sum_law(self, n): return _wrap_sum(self.base, n, lambda s: Shifted(s, n * self.offset))
    # shifts move X and X' alike
    def abs_difference_law(self): return self.base.abs_difference_law()
    def mgf(self, beta): return math.exp(beta * self.offset) * self.base.mgf(beta)
    # no rule peels a shift: the whole chain goes to the primitive's numeric path
    def log_abs_moments(self, ps): return _log_moments(*_chain(self), ps)
    def _map(self, x, out=None): return np.add(x, self.offset, out=out)
    def _image(self, lo, hi): return lo + self.offset, hi + self.offset
    def _preimages(self, ys): return [y - self.offset for y in ys]

    def _tail(self, tail, log_scale, shift): return tail, log_scale, shift + self.offset

    def _growth(self, log_m, d):
        return (float(np.logaddexp(log_m, math.log(abs(self.offset)))) if self.offset else log_m), d


@dataclass(frozen=True)
class Scaled(_Step):
    kind = "scaled"
    factor: float

    def expectation(self): return self.factor * self.base.expectation()
    def sum_law(self, n): return _wrap_sum(self.base, n, lambda s: Scaled(s, self.factor))
    def mgf(self, beta): return self.base.mgf(beta * self.factor)
    def _map(self, x, out=None): return np.multiply(self.factor, x, out=out)
    def _image(self, lo, hi): return tuple(sorted((self.factor * lo, self.factor * hi)))
    def _preimages(self, ys): return [y / self.factor for y in ys]
    def _growth(self, log_m, d): return log_m + math.log(abs(self.factor)), d

    def _tail(self, tail, log_scale, shift):
        return tail, log_scale + math.log(abs(self.factor)), shift * self.factor

    def log_abs_moments(self, ps):
        return ps * math.log(abs(self.factor)) + self.base.log_abs_moments(ps)

    def _fold(self):
        return FiniteSupport((0.0,), (1.0,)) if self.factor == 0 else super()._fold()


@dataclass(frozen=True)
class SquareOf(_Step):
    kind = "square_of"

    def log_abs_moments(self, ps): return self.base.log_abs_moments(2 * ps)
    def mgf(self, beta): return self.base.squared_mgf(beta)
    def expectation(self): return abs_moment(self.base, 2.0)     # ||base||_2^2
    def _map(self, x, out=None): return np.square(x, out=out)
    def _preimages(self, ys): return [r for y in ys if y >= 0 for r in {math.sqrt(y), -math.sqrt(y)}]
    def _growth(self, log_m, d): return 2.0 * log_m, 2 * d
    # ||Y^2||_psi_alpha = ||Y||_psi_2alpha^2
    max_psi_alpha = property(lambda self: self.base.max_psi_alpha and self.base.max_psi_alpha / 2)

    def _image(self, lo, hi):
        return (0.0 if lo < 0 < hi else min(lo * lo, hi * hi)), max(lo * lo, hi * hi)

    def _tail(self, tail, log_scale, shift):
        # ||Y^2||_p = ||Y||_2p^2: T(p0; alpha) = 2 T_Y(2 p0; 2 alpha) + ln(2) /
        # alpha, Y asked at (best - ln(2) / alpha - the square's log-scale) / 2
        def square(best, p0, alpha, outer_scale, outer_shift):
            half = math.log(2.0) / alpha
            t = tail((best - half - outer_scale) / 2.0, 2.0 * p0, 2 * alpha, log_scale, shift)
            return _tail_sum((2.0 * t, half), outer_scale, outer_shift, -math.log(p0) / alpha)
        return square, 0.0, 0.0


@dataclass(frozen=True)
class Centered(Distribution):
    kind = "centered"
    base: Distribution

    def expectation(self): return 0.0
    def sum_law(self, n): return _wrap_sum(self.base, n, Centered)

    def fill(self, rng, out):
        self.base.fill(rng, out)
        out -= self.base.expectation()

    def _fold(self):
        form, mu = _law(self.base).form, self.base.expectation()
        if not math.isfinite(mu):
            raise SpecError(f"the mean of {self.base} must be finite to center it, got {mu}")
        return form._push(Shifted(form, -mu)) if mu else form


# the laws of unit scale that `unit_law` names
_UNIT_GAUSSIAN, _UNIT_EXPONENTIAL = Gaussian(0.0, 1.0), Exponential(1.0)
_UNIT_UNIFORM, _UNIT_GAP = UniformInterval(-1.0, 1.0), UniformGap(1.0)
_UNIT_CHI2 = ChiSquared(1)      # N(0, 1)^2


# the outward margin of a tail bound, per unit of 1 + the sum of its terms'
# magnitudes: it covers the rounding of its logs, MGF, scale and shift
_TAIL_MARGIN = 2.0 ** -30


def _tail_sum(terms, log_scale=0.0, shift=0.0, log_p0=0.0):
    """T(p0) of e^log_scale Y + shift, T of Y the sum of terms, log_p0 =
    -ln(p0) / alpha: ln(e^(T + log_scale) + |shift| p0^(-1/alpha)) by
    Minkowski, each sum widened by _TAIL_MARGIN per unit of 1 + its terms'
    magnitudes, so above the exact sum of the values they round."""
    terms = (*terms, log_scale)
    t = sum(terms) + _TAIL_MARGIN * (1.0 + sum(map(abs, terms)))
    if shift:
        t = float(np.logaddexp(t, math.log(abs(shift)) + log_p0))
        t += _TAIL_MARGIN * (1.0 + abs(t))
    return t


def _wrap_sum(base, n, wrap):
    """wrap(law of the n-fold sum of base), or None if base has none."""
    law = base.sum_law(n)
    return None if law is None else wrap(law)


def _chain(form):
    """(primitive, steps) of a canonical form: the law inside its wrappers,
    and the wrappers themselves (each a `_Step`), from the inside out."""
    steps = []
    while isinstance(form, _Step):
        steps.append(form)
        form = form.base
    return form, tuple(reversed(steps))


@dataclass(frozen=True)
class VectorSpec(Spec):
    """Vector with independent coordinates and the euclidean norm."""
    kind = "vector"
    dim: Count
    components: Specs
    norm_kind: str = "euclidean"

    def _check(self):
        if len(self.components) != self.dim:
            raise SpecError(f"components must have length dim={self.dim}, "
                            f"got {len(self.components)}")
        if self.norm_kind != "euclidean":
            raise SpecError(f"unsupported norm_kind {self.norm_kind!r}")

    def draw(self, rng, count):
        """(count, dim) array with independent coordinates."""
        return draw_rows(rng, count, (self.dim,), enumerate(self.components))


# ---------------------------------------------------------------------------
# Queries on the canonical form

def validate(spec) -> None:
    """Raise SpecError unless spec is a catalogue spec.  Specs check their
    fields when they are built, so this is a type check."""
    _instance(spec, "spec", (Distribution, VectorSpec), "distribution or vector spec")


def canonical(spec):
    """The canonical form of a scalar spec, itself a spec: a FiniteSupport of
    distinct values, a Gaussian or UniformInterval when the wrapper chain is
    affine, a bare primitive, or Shifted, Scaled and SquareOf around one
    (see `_chain`).  Centering a mean of 0 adds no step.  Memoised (`_law`)."""
    return _law(spec).form


def standard_form(spec):
    """(scale, standard) with |spec| distributed as scale |standard|.

    The canonical form is g(X) for a primitive X whose `unit_law()` is
    (s, b, U), so that X is s U + b.  Its chain of steps is walked with the
    law kept as a V + c, V = U at first: a scale step multiplies a and c, a
    shift step moves c, and a square step, where c is 0, makes it a^2 V^2,
    with N(0, 1)^2 read as ChiSquared(1).  A centered law (mean 0) is a (V -
    E V), whatever c is: it is |a| times Centered(V), or V where V has mean
    0 already.  So sd N(0, 1), a half-width times U(-1, 1), |a| / rate times
    Centered(Exponential(1)), |a| Centered(Poisson(rate)) and sd^2
    Centered(ChiSquared(1)) for a centered (sd Z)^2; ChiSquared(2) is twice
    Exponential(1).  An uncentered law scales out only where c is 0 and |a|
    is a float, as for Chi(dof, sd) and UniformGap(width): the closed form
    of a rate family keeps reading its own rate.  The scale is the smallest
    float not below the exact |a|.  Every other law, and one whose scale is
    inf, or subnormal and rounded up (so maybe many times |a|), is (1.0,
    spec).  The standard law's record keeps the psi estimates, so every law of one
    shape shares one search, and the moment rows of a centered shape (see
    `log_abs_moments`).  Memoised."""
    return _law(spec).standard()


def _standard_form(spec, base, steps):
    """`standard_form` of spec, of canonical form `base` inside `steps`.
    a and c are walked as integer ratios (numerator, denominator > 0) of
    the floats' exact values, reduced only where a square reads the size
    of a: the same rationals as a walk in Fractions."""
    unit = base.unit_law()
    if unit is None:
        return 1.0, spec
    (a, a_den), (c, c_den), law = unit
    for step in steps:
        if type(step) is Scaled:
            n, d = step.factor.as_integer_ratio()
            a, a_den, c, c_den = a * n, a_den * d, c * n, c_den * d
        elif type(step) is Shifted:
            n, d = step.offset.as_integer_ratio()
            c, c_den = c * d + n * c_den, c_den * d
        else:
            g = math.gcd(a, a_den)
            a, a_den = a // g, a_den // g
            if c or max(a.bit_length(), a_den.bit_length()) > _SCALE_BITS:
                return 1.0, spec
            a, a_den = a * a, a_den * a_den
            law = _UNIT_CHI2 if law is _UNIT_GAUSSIAN else SquareOf(law)
    scale, exact = _round_up(abs(a), a_den)
    if spec.expectation() == 0.0:
        law = law if law.expectation() == 0.0 else Centered(law)
    elif c or not exact:
        return 1.0, spec
    if scale == math.inf or scale < sys.float_info.min and not exact:
        return 1.0, spec
    return scale, law


_SCALE_BITS = 1 << 12   # bits of the exact scale's integers past which the walk stops


# ---------------------------------------------------------------------------
# The law record: one per scalar spec, in one memo

_LAWS = 4096            # records kept per process
_MOMENT_ROWS = 1024     # moment rows kept per record
_laws = {}              # scalar spec -> its record
# moment passes run, psi searches run and psi estimates read back
_law_counts = dict.fromkeys(("passes", "searches", "hits"), 0)


def _law(spec):
    """The record of a scalar spec, built on its first read; a fold that
    raises builds none.  An insert past _LAWS specs drops the older half of
    the records, in insertion order, so the newer half stays warm (each
    step one dict operation: no lock; a record another thread dropped is
    skipped).  A record refers to no record but the one its moments read,
    so at most 2 _LAWS records, and dicts of rows, are live once the reads
    are done."""
    law = _laws.get(spec)
    if law is None:
        law = _laws.setdefault(spec, _Record(spec))
        if len(_laws) > _LAWS:
            old = list(_laws)
            for key in old[:len(old) // 2]:
                _laws.pop(key, None)
    return law


class _Record:
    """A scalar spec resolved once: its canonical form and, each built on
    first read so that a fold pays for the form alone, the standard form,
    the record its moments read (None for this one: no cycles) with the ln
    of their scale, this law's moment rows p -> ln E|Z|^p, and its psi
    estimates by alpha (`orlicz.psi_norm`)."""
    __slots__ = ("spec", "form", "_standard", "_read", "rows", "psi")

    def __init__(self, spec):
        self.spec, self.form, self.psi = spec, _scalar(spec)._fold(), {}
        self._standard = self._read = self.rows = None

    def standard(self):
        if self._standard is None:
            self._standard = _standard_form(self.spec, *_chain(self.form))
        return self._standard

    def log_moments(self, ps):
        """ln E|X|^p at an array ps of finite orders > 0, unchecked: the
        rows of the record read, plus p ln scale (see `log_abs_moments`)."""
        if self._read is None:
            read = None, None   # a primitive form reads its own parameters
            if isinstance(self.form, _Step):
                scale, standard = self.standard()
                if standard != self.spec and standard.expectation() == 0.0:
                    read = _law(standard), None if scale == 1.0 else math.log(scale)
            self._read = read
        law, log_scale = self._read
        rows = (law or self)._rows(ps)
        return rows if log_scale is None else ps * log_scale + rows

    def _rows(self, ps):
        """ln E|Z|^p of this law at each p of ps: where the rows lack an
        order, all of ps runs in one batch of the canonical form's
        `log_abs_moments`, and the rows of the orders they lacked are
        stored.  A row does not depend on the batch it ran in, so a stored
        row is the one any batch gives.  A NaN row is not stored, nor a
        batch whose new orders take the rows past _MOMENT_ROWS."""
        rows = self.rows
        if rows is None:
            rows = self.rows = {}
        keys = ps.tolist()
        missing = [p for p in dict.fromkeys(keys) if p not in rows]
        if not missing:
            return np.array([rows[p] for p in keys])
        _law_counts["passes"] += 1
        out = self.form.log_abs_moments(ps)
        if len(rows) + len(missing) <= _MOMENT_ROWS:
            rows.update({p: lm for p, lm in zip(keys, out.tolist()) if lm == lm and p not in rows})
        return out


def round_up(exact) -> float:
    """The smallest float not below the exact rational `exact` (a Fraction
    or an int): a certified upper bound on a product or sum of floats."""
    return _round_up(*exact.as_integer_ratio())[0]


def _round_up(n, d):
    """(`round_up` of n / d, whether it is n / d), for integers n, d > 0."""
    try:
        x = n / d
    except OverflowError:
        return math.inf, False
    xn, xd = x.as_integer_ratio()
    over = xn * d - n * xd
    return (x, not over) if over >= 0 else (math.nextafter(x, math.inf), False)


def support_interval(spec):
    """Smallest closed interval carrying all the mass; endpoints may be inf."""
    return canonical(spec).support()


def mean(spec) -> float:
    return _scalar(spec).expectation()


# Absolute moments E|X|^p and L_p norms.  Everything runs in log space: the
# Orlicz supremum probes p up to ~256, where raw moments overflow doubles by
# hundreds of orders of magnitude.

def abs_moment(spec, p: float) -> float:
    """E|X|^p, exact where a closed form exists, else quadrature/series."""
    return _exp(log_abs_moment(spec, p), "E|X|^p at p={!r} of {}", p, spec)


def lp_norm(spec, p: float) -> float:
    """(E|X|^p)^(1/p) for p >= 1."""
    if p < 1:
        raise SpecError(f"p must be >= 1, got {p}")
    return _exp(log_abs_moment(spec, p) / p, "the L{!r} norm of {}", p, spec)


def _exp(x, what, *args):
    """math.exp(x) of a moment or norm read in logs; a SpecError that names
    it, what.format(*args), where it is past the largest float."""
    try:
        return math.exp(x)
    except OverflowError:
        raise SpecError(f"{what.format(*args)} is past the largest float: "
                        f"its ln is {float(x)!r}") from None


def log_abs_moment(spec, p: float) -> float:
    """ln E|X|^p (-inf for the a.s. zero variable) at a finite p >= 0: row 0
    of `log_abs_moments` at [p], read through the same memo.  A NaN moment
    is a QuadratureError."""
    _scalar(spec)
    if not 0 <= p < math.inf:
        raise SpecError(f"moment order must be finite and nonnegative, got p={p}")
    if not p:
        return 0.0
    p = float(p)
    return _not_nan(float(_law(spec).log_moments(np.array([p]))[0]), p)


def _not_nan(lm, p):
    if math.isnan(lm):
        raise QuadratureError(f"ln E|X|^p is nan at p={p!r}")
    return lm


def log_abs_moments(spec, ps) -> np.ndarray:
    """ln E|X|^p for every finite p > 0 of the 1-d array ps, in one batched pass.

    A chain of map steps whose standard law (see `standard_form`) is another
    law of mean 0, a Centered one or a unit law, reads its moments as the
    standard law's plus p ln scale: a shift that cancels in floats, as in
    Centered(Shifted(U(0, 1), 1e300)), leaves no map to integrate.  Every
    other law is a closed form, or its own standard law, and reads
    its own parameters, so that no closed form moves by the rounding of a
    scale.  Either way the rows are read through the record of the law
    read (`_law`), which keeps them by p.  Every family implements this
    method only; log_abs_moment is row 0 of it at [p], so the two agree to
    the bit.
    Numeric laws integrate all p with one fixed tanh-sinh rule (or sum the
    Poisson series for all p at once), the only numeric path; the rule
    raises QuadratureError where its embedded error estimate exceeds 1e-5
    in ln ||X||_p.
    """
    _scalar(spec)
    ps = np.asarray(ps, dtype=float)
    bad = ps[~((ps > 0) & (ps < math.inf))]
    if bad.size:
        raise SpecError(f"moment orders must be finite and positive, got p={bad[0]}")
    return _law(spec).log_moments(ps)


def mgf(spec, beta: float) -> float:
    """E[exp(beta * X)]: a MomentDivergenceError where it is infinite, and
    a SpecError where it overflows a float or the law's family has no
    closed form (Chi, UniformGap), each naming spec and beta."""
    form = canonical(spec)
    beta = float(beta)
    try:
        return _mgf(form, beta)
    except NotImplementedError:
        raise SpecError(f"the MGF of {spec} at beta={beta!r} has no closed form") from None
    except MomentDivergenceError:
        raise MomentDivergenceError(f"the MGF of {spec} at beta={beta!r} diverges") from None
    except OverflowError:
        raise SpecError(f"the MGF of {spec} at beta={beta!r} overflows a float") from None


def _mgf(form, beta):
    """`mgf` of a canonical form at a float beta, with its errors bare, as
    a caller that drops them reads it: NotImplementedError for no closed
    form, MomentDivergenceError where it is infinite, OverflowError where
    it overflows a float.  `mgf` words them."""
    if not beta:
        return 1.0
    value = form.mgf(beta)
    if not value < math.inf:    # inf, or NaN from inf - inf
        raise OverflowError
    return value


# ---------------------------------------------------------------------------
# Numeric paths: one per base kind, for both moments and squared MGFs

def _apply(steps, x):
    """Push x (a float or an array) through map steps."""
    for step in steps:
        x = step._map(x)
    return x


def _log_moments(base, steps, ps):
    """ln E|g(X)|^p for each p of ps, g the map steps, by the base's numeric
    path, _BLOCK orders at a time so that memory does not grow with len(ps).
    Each row is the same in any batch; no orders give no rows."""
    def log_g(x):       # read under the np.errstate of _log_expects
        g = np.abs(_apply(steps, x))
        return np.log(g, out=g)
    blocks = [ps[i:i + _BLOCK] for i in range(0, len(ps), _BLOCK)]
    return np.concatenate([ps[:0]] + [base._log_expects(log_g, b, b, steps) for b in blocks])


def _zeros(steps):
    """The x at which the map steps give 0."""
    ys = [0.0]
    for step in reversed(steps):
        ys = step._preimages(ys)
    return ys


def _squared_mgf(base, steps, beta, support):
    """E exp(beta g(X)^2) for g the map steps with range in `support`."""
    if beta > 0 and max(-support[0], support[1]) == math.inf:
        raise MomentDivergenceError

    def log_g(x):
        return _apply(steps, x) ** 2
    return math.exp(base._log_expects(log_g, np.array([float(beta)]), np.zeros(1))[0])


def _logsumexp(terms):
    terms = np.asarray(terms, dtype=float)
    m = np.maximum.reduce(terms)     # np.max and np.sum, without their dispatch
    return float(m + math.log(np.add.reduce(np.exp(terms - m))))


def _uniform_log_abs_moment(lo, hi, p):
    # ln of the integral of |x|^p over [lo,hi], minus ln width
    width = hi - lo
    c = -math.log(p + 1) - math.log(width)
    if lo >= 0:
        if lo == 0:
            return (p + 1) * math.log(hi) + c
        return (p + 1) * math.log(hi) + math.log1p(-(lo / hi) ** (p + 1)) + c
    if hi <= 0:
        return _uniform_log_abs_moment(-hi, -lo, p)
    return _logsumexp([(p + 1) * math.log(hi), (p + 1) * math.log(-lo)]) + c


# ---------------------------------------------------------------------------
# Deterministic sampling

def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The SFC64 generator of stream `stream` of a 64-bit `seed`.  The pair
    enters SeedSequence as entropy `seed` and spawn key `(stream,)`, which
    numpy keeps apart: as one entropy list [seed, stream], seed 2^32 with
    stream 0 would be the same 32-bit words as seed 0 with stream 1."""
    if not 0 <= seed < 2 ** 64:
        raise SpecError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _fill_runs(out, draw):
    """draw(run) on each run of 2^13 entries of out, in turn: a sampler's new
    array is then 64 KiB, which the heap reuses, not one per row that a trim
    faults in again.  Runs draw the stream of one call."""
    for start in range(0, len(out), 2 ** 13):
        draw(out[start:start + 2 ** 13])


def draw_rows(rng, count, shape, rows):
    """Coordinate-major draws: for each (index, law) of `rows`, in order,
    law.fill(rng, row) writes its `count` draws into row `index` of a
    C-order buffer of shape `shape + (count,)`, in place, with no array
    per row.  Returns the buffer as a (count,) + shape view, not a copy,
    so every coordinate is one contiguous run of draws."""
    buf = np.empty(shape + (count,))
    for index, law in rows:
        law.fill(rng, buf[index])
    return np.moveaxis(buf, -1, 0)


def sample(spec, seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Draw `count` iid values, or a (count, dim) array for a VectorSpec;
    bit-identical for equal (spec, seed, count, stream)."""
    validate(spec)
    if count < 1:
        raise SpecError(f"count must be >= 1, got {count}")
    return spec.draw(_rng(seed, stream), count)


# ---------------------------------------------------------------------------
# JSON codec (the CLI's config vocabulary)
#
# One codec serves every registered Spec class: the JSON object is
# {"kind": cls.kind} plus the dataclass fields in order.  Fields annotated
# Distribution or VectorSpec hold one nested spec, fields annotated Specs a
# list of them; the constructor checks every other value.

# kind -> spec class; functions.py adds the function specs
_KINDS = {cls.kind: cls for cls in (
    Gaussian, Exponential, Rademacher, UniformInterval, Poisson, ChiSquared,
    TwoPointEps, FiniteSupport, Shifted, Scaled, SquareOf, Centered, VectorSpec)}


def spec_to_dict(spec) -> dict:
    """JSON object of any registered spec (distribution, vector or function)."""
    values, out = vars(spec), {"kind": spec.kind}
    for name, (_, nested, _) in _fields(type(spec)).items():
        value = values[name]
        out[name] = (spec_to_dict(value) if nested == "one" else
                     [spec_to_dict(v) for v in value] if nested == "list" else
                     _lists(value) if type(value) is tuple else value)
    return out


def _lists(value):
    """A tuple of values or tuples as nested lists."""
    return [_lists(v) if type(v) is tuple else v for v in value]


def spec_from_dict(d, path="$"):
    """Decode a distribution or vector spec.  Every SpecError message starts
    with the JSON path at fault, e.g. '"$.base.components[0]": ...'."""
    spec = _decode(d, path)
    if not isinstance(spec, (Distribution, VectorSpec)):
        raise SpecError(f'"{path}": kind {spec.kind!r} is not a distribution spec')
    return spec


def _decode(d, path, depth=0):
    """Any registered spec from its JSON object."""
    if depth > _MAX_DEPTH:
        raise SpecError(f'"{path}": specs nest deeper than {_MAX_DEPTH} levels')
    if not isinstance(d, dict):
        raise SpecError(f'"{path}": expected a spec object, got {d!r}')
    kind = d.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f'"{path}": unknown spec kind {kind!r}')
    table = _fields(cls)
    for key in d:
        if key != "kind" and key not in table:
            raise SpecError(f'"{path}.{key}": unknown field of kind {kind!r}')
    args = {}
    for name, (_, nested, required) in table.items():
        if name not in d:
            if required:
                raise SpecError(f'"{path}": kind {kind!r} is missing field {name!r}')
            continue
        value = d[name]
        if nested == "one":
            value = _decode(value, f"{path}.{name}", depth + 1)
        elif nested == "list":
            where = f"{path}.{name}"
            if not isinstance(value, (list, tuple)):
                raise SpecError(f'"{where}": expected a list, got {value!r}')
            value = [_decode(c, f"{where}[{i}]", depth + 1) for i, c in enumerate(value)]
        args[name] = value
    try:
        return cls(**args)
    except SpecError as exc:
        raise SpecError(f'"{path}": {exc}') from None
