"""Declarative catalogue of scalar and vector random sources.

Every catalogue distribution has all moments finite, so L_p and Orlicz
norm queries are always well posed.  A spec checks its fields when it is
built, so every spec object is valid.  Sampling is deterministic: the
triple (spec, seed, count) plus an optional stream index fully determines
the output, so parallel shards can be merged deterministically.  Each
(seed, stream) pair has its own SFC64 generator (see `_rng`).

Moments, MGFs and supports are computed on `canonical(spec)`, which folds
the wrappers Shifted, Scaled, SquareOf and Centered into one of three forms:
a merged FiniteSupport; a re-parameterised Gaussian or UniformInterval when
the chain is affine; or a Mapped (primitive, steps) pair.  Sampling walks
the spec as written, so draws never depend on the canonical form.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, xlogy

__all__ = [
    "Spec", "Distribution", "Gaussian", "Exponential", "Rademacher",
    "UniformInterval", "Poisson", "ChiSquared", "TwoPointEps", "FiniteSupport",
    "Chi", "UniformGap", "Shifted", "Scaled", "SquareOf", "Centered", "Mapped", "VectorSpec",
    "SpecError", "MomentDivergenceError", "QuadratureError", "validate",
    "canonical", "mean", "support_interval", "abs_moment", "lp_norm",
    "log_abs_moment", "log_abs_moments", "mgf", "sample", "finite_support",
    "spec_to_dict", "spec_from_dict",
]

_MAX_DEPTH = 64
_SCAN = 4001        # points of the scan that finds a live window
_STRIDE = 20        # the scan's coarse pass reads every _STRIDE-th point
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
    if isinstance(value, bool) or not isinstance(value, kind):
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
    return tuple(_number(v, name) for v in _items(value, name))


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


def _field_type(f):
    return f.type.rsplit(".", 1)[-1]


class Spec:
    """A registered spec: a frozen dataclass with a JSON `kind`.  Building
    one checks each field by its annotation, then `_check` checks relations
    between fields."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check = _CHECKS.get(_field_type(f))
            if check is not None:
                object.__setattr__(self, f.name, check(getattr(self, f.name), f.name))
        self._check()

    def _check(self): pass


# ---------------------------------------------------------------------------
# The scalar catalogue

class Distribution(Spec):
    """A scalar law.  Every family has `expectation()` and `draw(rng, count)`;
    the families that are canonical forms also have `support()`,
    `log_abs_moments(ps)` and `mgf(beta)`."""

    # _fold gives the canonical form; _affine the family's own spec for the
    # law after an affine step, if the family is closed under it
    def _fold(self): return self
    def _affine(self, op, c): return None
    def sum_law(self, n):
        """The catalogue spec of the sum of n iid copies, or None when the
        family is not closed under convolution."""
        return None
    def abs_difference_law(self):
        """A spec whose absolute value has the law of |X - X'|, for iid
        copies X, X' of this canonical form, or None when there is none."""
        return None
    def expectation(self): return canonical(self).expectation()
    def squared_mgf(self, beta): return _squared_mgf(self, (), beta, self.support())

    def _push(self, op, c):
        """Canonical form of the law after one more map step."""
        try:
            folded = None if op == "square" else self._affine(op, c)
        except SpecError:       # the new parameters overflow: keep the step
            folded = None
        return folded or Mapped(self, ((op, c),))


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
        a peak or live point hides in a cell no pass reads."""
        lo, hi = np.array([self.window(p) for p in ps]).T[..., None]

        def at(j):
            return np.where(j == _SCAN - 1, hi, j * ((hi - lo) / (_SCAN - 1)) + lo)

        def read(j):
            xs = at(j)
            with np.errstate(divide="ignore", invalid="ignore"):
                h = np.asarray(log_h_vec(xs) + self.logpdf(xs))
            return np.where(np.isfinite(h), h, -np.inf)

        j = np.tile(np.arange(0, _SCAN, _STRIDE), (len(ps), 1))
        h = read(j)
        pad = np.full((len(ps), h.shape[1] + 2), -np.inf)
        pad[:, 1:-1] = h
        peak = (h >= pad[:, :-2]) & (h >= pad[:, 2:]) & (h > h.max(axis=1, keepdims=True) - 80.0)
        near = peak[:, :-1] | peak[:, 1:]
        near[:, [0, -1]] = True
        c = np.argsort(~near, axis=1, kind="stable")[:, :near.sum(axis=1).max()]
        c = np.where(np.take_along_axis(near, c, axis=1), c, 0)    # reads stay per row
        for _ in range(2):      # the peak pass, then the ends pass
            inner = (_STRIDE * c[..., None] + np.arange(1, _STRIDE)).reshape(len(ps), -1)
            j, h = np.concatenate([j, inner], axis=1), np.concatenate([h, read(inner)], axis=1)
            k = h.max(axis=1, keepdims=True)
            live = h > k - 80.0     # none live: first 0, last _SCAN - 1, as in the full scan
            first = np.where(live, j, _SCAN).min(axis=1, keepdims=True) % _SCAN
            last = np.where(live, j, -1).max(axis=1, keepdims=True) % _SCAN
            c = np.hstack([np.maximum(first - 1, 0), np.minimum(last, _SCAN - 2)]) // _STRIDE
        ab = at(np.hstack([np.maximum(first - 1, 0), np.minimum(last + 1, _SCAN - 1)]))
        return k[:, 0], ab[:, 0], ab[:, 1]

    def _log_expects(self, log_h, ps, kinks=()):
        """ln E exp(log_h(X, p)) for each p of ps, by a fixed tanh-sinh rule
        on each p's live window.  The window is clipped to the support and
        cut at the kinks of log_h; each piece is split into _PANELS equal
        panels.  The rule at t = j/4 reads every other node at twice the
        weight; where it and the rule at t = j/8 differ by more than 1e-5 p
        in ln (1e-5 at p = 0), QuadratureError is raised."""
        k, a, b = self._live(lambda xs: log_h(xs, ps[:, None]), ps)
        lo, hi = self.support()
        a, b = np.maximum(a, lo), np.minimum(b, hi)
        cuts = np.sort(np.column_stack([a, b] + [np.clip(z, a, b) for z in kinks]), axis=1)
        frac = np.linspace(0.0, 1.0, _PANELS + 1)
        edges = cuts[:, :-1, None] + (cuts[:, 1:] - cuts[:, :-1])[:, :, None] * frac
        u, v = edges[..., :-1, None], edges[..., 1:, None]
        w = v - u
        x = np.where(_TS_LEFT < 0.5, u + w * _TS_LEFT, v - w * _TS_RIGHT)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            e = log_h(x, ps[:, None, None, None]) + self.logpdf(x) - k[:, None, None, None]
            terms = np.where(e > -700, np.exp(e), 0.0) * w * _TS_W
            val = np.sum(terms, axis=(1, 2, 3))
            gap = np.abs(np.log(val) - np.log(2.0 * np.sum(terms[..., ::2], axis=(1, 2, 3))))
        bad = ~(np.isfinite(val) & (val > 0))
        if bad.any():
            raise QuadratureError(f"fixed-rule quadrature failed (value {val[bad][0]}) "
                                  f"at p={float(ps[bad][0])!r}")
        bad = ~(gap <= 1e-5 * np.where(ps > 0, ps, 1.0))
        if bad.any():
            raise QuadratureError(
                f"the tanh-sinh rules at t = j/8 and j/4 differ by {gap[bad][0]:.3g} "
                f"in ln E at p={float(ps[bad][0])!r}")
        return k + np.log(val)


# The tanh-sinh (Takahasi-Mori) rule on a panel [u, v]: nodes at t = j/8,
# |t| <= 4, sit at u + (v - u) * _TS_LEFT = v - (v - u) * _TS_RIGHT, and the
# rule is (v - u) * sum(_TS_W * f(node)).  Both fractions are kept, so a node
# next to either end keeps its distance to that end in full precision, which
# integrable end point singularities (the chi-squared density at 0) need.
_PANELS = 8
_TS_T = np.arange(-32, 33) / 8.0
_TS_LEFT, _TS_RIGHT = expit(math.pi * np.sinh(_TS_T)), expit(-math.pi * np.sinh(_TS_T))
_TS_W = math.pi * _TS_LEFT * _TS_RIGHT * np.cosh(_TS_T) / 8.0


# Each family lists its one-line facts as a group, then its longer methods.

@dataclass(frozen=True)
class Gaussian(_Continuous):
    kind = "gaussian"
    mean: float = 0.0
    sd: Positive = 1.0

    def expectation(self): return self.mean
    def support(self): return -math.inf, math.inf
    def draw(self, rng, count): return rng.normal(self.mean, self.sd, count)
    def sum_law(self, n): return Gaussian(n * self.mean, math.sqrt(n) * self.sd)
    def abs_difference_law(self): return Gaussian(0.0, math.sqrt(2.0) * self.sd)
    def mgf(self, beta): return math.exp(beta * self.mean + 0.5 * beta ** 2 * self.sd ** 2)

    def logpdf(self, x):
        return (-math.log(self.sd) - 0.5 * math.log(2 * math.pi)
                - 0.5 * ((x - self.mean) / self.sd) ** 2)

    def window(self, p):
        w = math.sqrt(2 * p) + 12.0
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
            raise MomentDivergenceError(
                f"MGF of a squared Gaussian diverges at beta={beta}")
        return s ** -0.5 * math.exp(beta * self.mean ** 2 / s)

    def _affine(self, op, c):
        if op == "shift":
            return Gaussian(self.mean + c, self.sd)
        return Gaussian(c * self.mean, abs(c) * self.sd)


@dataclass(frozen=True)
class Exponential(_Continuous):
    kind = "exponential"
    rate: Positive

    def expectation(self): return 1.0 / self.rate
    def support(self): return 0.0, math.inf
    def draw(self, rng, count): return rng.exponential(1.0 / self.rate, count)
    def window(self, p): return 0.0, (p + 8 * math.sqrt(p) + 40.0) / self.rate
    def log_abs_moments(self, ps): return gammaln(ps + 1) - ps * math.log(self.rate)
    # Gamma(n, rate) is chi-squared with 2n degrees of freedom over 2 rate
    def sum_law(self, n): return Scaled(ChiSquared(2 * n), 1.0 / (2.0 * self.rate))
    # Y - Y' is Laplace with scale 1/rate, so |Y - Y'| is again Exponential
    def abs_difference_law(self): return self

    def logpdf(self, x):
        x = np.asarray(x)
        return np.where(x >= 0, math.log(self.rate) - self.rate * x, -np.inf)

    def mgf(self, beta):
        if beta >= self.rate:
            raise MomentDivergenceError(
                f"MGF of Exponential(rate={self.rate}) diverges at beta={beta}")
        return self.rate / (self.rate - beta)


@dataclass(frozen=True)
class Rademacher(Distribution):
    kind = "rademacher"

    def draw(self, rng, count): return 2.0 * rng.integers(0, 2, count) - 1.0
    def _fold(self): return FiniteSupport((-1.0, 1.0), (0.5, 0.5))

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
    def draw(self, rng, count): return rng.uniform(self.lo, self.hi, count)
    def log_abs_moments(self, ps):     # math.log per order, as in FiniteSupport
        return np.array([_uniform_log_abs_moment(self.lo, self.hi, p) for p in ps])
    def abs_difference_law(self): return UniformGap(self.hi - self.lo)

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
        w = self.hi - self.lo
        return (math.exp(beta * self.hi) - math.exp(beta * self.lo)) / (beta * w)

    def _affine(self, op, c):
        if op == "shift":
            return UniformInterval(self.lo + c, self.hi + c)
        return UniformInterval(*sorted((c * self.lo, c * self.hi)))


@dataclass(frozen=True)
class Poisson(Distribution):
    kind = "poisson"
    rate: Positive

    def expectation(self): return self.rate
    def support(self): return 0.0, math.inf
    def draw(self, rng, count): return rng.poisson(self.rate, count).astype(float)
    def sum_law(self, n): return Poisson(n * self.rate)
    def log_abs_moments(self, ps): return _log_moments(self, (), ps)
    def mgf(self, beta): return math.exp(self.rate * (math.exp(beta) - 1.0))

    def _log_expects(self, log_h, ps, kinks=()):
        """ln E exp(log_h(X, p)) for each p of ps: the series over k in one
        array pass, long enough that for every p a term past the mean falls
        below the term before it and e^40 below every term before it.  So
        the series ends past the right-hand mode of h(k) P(k), not at a term
        that only lies far below an earlier mode."""
        lam, n = self.rate, int(self.rate) + 64
        if n > 100000:      # too long to build, and it ends 63 terms past the mean
            raise QuadratureError(f"Poisson series of rate {lam!r} needs over 100000 terms")
        while True:
            k = np.broadcast_to(np.arange(n, dtype=float), (len(ps), n))
            t = log_h(k, ps[:, None]) + k * math.log(lam) - lam - gammaln(k + 1)
            head, tail = t[:, :-1], t[:, 1:]
            stop = ((k[:, 1:] + 1 > lam + 10) & (tail < head)
                    & (tail < np.maximum.accumulate(head, axis=1) - 40))
            if np.all(np.any(stop, axis=1)):
                m = t.max(axis=1)
                return m + np.log(np.sum(np.exp(t - m[:, None]), axis=1))
            if n > 100000:
                raise QuadratureError("Poisson series did not converge")
            n *= 2


@dataclass(frozen=True)
class ChiSquared(_Continuous):
    kind = "chi_squared"
    dof: Count

    def expectation(self): return float(self.dof)
    def support(self): return 0.0, math.inf
    def draw(self, rng, count): return rng.chisquare(self.dof, count)
    def sum_law(self, n): return ChiSquared(n * self.dof)

    def logpdf(self, x):
        k2 = self.dof / 2.0
        c = -k2 * math.log(2.0) - float(gammaln(k2))
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 0, c + (k2 - 1) * np.log(np.maximum(x, 1e-300))
                            - x / 2, -np.inf)

    def window(self, p):
        peak = self.dof + 2 * p
        return 0.0, peak + 10 * math.sqrt(peak) + 50.0

    def log_abs_moments(self, ps):
        return (ps * math.log(2.0) + gammaln(self.dof / 2 + ps)
                - float(gammaln(self.dof / 2)))

    def mgf(self, beta):
        if beta >= 0.5:
            raise MomentDivergenceError(
                f"MGF of ChiSquared diverges at beta={beta} >= 1/2")
        return (1.0 - 2.0 * beta) ** (-self.dof / 2)


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

    def draw(self, rng, count):
        u = rng.random(count)
        out = np.zeros(count)
        out[u < self.eps / 2] = 1.0
        out[(u >= self.eps / 2) & (u < self.eps)] = -1.0
        return out

    def _fold(self):
        e = self.eps
        return FiniteSupport((-1.0, 0.0, 1.0), (e / 2, 1 - e, e / 2))


@dataclass(frozen=True)
class FiniteSupport(Distribution):
    kind = "finite_support"
    values: tuple
    probs: tuple

    def expectation(self): return float(np.dot(self.values, self.probs))
    def support(self): return min(self.values), max(self.values)
    def _fold(self): return _merged(self.values, self.probs)

    def _check(self):
        for name in ("values", "probs"):
            object.__setattr__(self, name, _floats(getattr(self, name), name))
        if len(self.values) != len(self.probs) or not self.values:
            raise SpecError("values and probs must be equal-length nonempty lists")
        if min(self.probs) < 0:
            raise SpecError(f"probs must be nonnegative, got {self.probs}")
        total = np.sum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise SpecError(f"probs must sum to 1 within 1e-12, got sum {total!r}")

    def draw(self, rng, count):
        values = np.asarray(self.values)
        probs = np.asarray(self.probs, dtype=float)
        idx = rng.choice(len(values), size=count, p=probs / probs.sum())
        return values[idx]

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
        m = np.max(beta * values)
        return float(math.exp(m) * np.dot(self.probs, np.exp(beta * values - m)))

    def abs_difference_law(self):
        # the pair law; with probs normalised by their fsum, it sums to 1
        # within 1e-12 whenever this law does
        lo, hi = min(self.values), max(self.values)
        if not math.isfinite(hi - lo):
            raise SpecError(f"values must differ by a finite amount, got min={lo}, max={hi}")
        v, p = np.asarray(self.values), np.asarray(self.probs) / math.fsum(self.probs)
        return FiniteSupport(np.abs(v[:, None] - v).ravel(), np.outer(p, p).ravel())

    def _push(self, op, c):
        return _merged(_apply(((op, c),), np.asarray(self.values)), self.probs)


def _merged(values, probs):
    """FiniteSupport with sorted values; values equal to 1e-15 relative merge."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(values)
    merged_v, merged_p = [], []
    # as Python floats, whose difference overflows to inf without a warning
    for v, p in zip(values[order].tolist(), probs[order].tolist()):
        if merged_v and abs(v - merged_v[-1]) <= 1e-15 * max(1.0, abs(v)):
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

    def support(self): return 0.0, math.inf
    def expectation(self): return math.exp(_first_row(self, 1.0))
    def draw(self, rng, count): return self.sd * np.sqrt(rng.chisquare(self.dof, count))
    # |x|^p pdf(x) peaks at sd sqrt(p + dof - 1)
    def window(self, p): return 0.0, self.sd * (math.sqrt(2.0 * (p + self.dof)) + 12.0)

    def log_abs_moments(self, ps):
        return (ps * math.log(self.sd) + 0.5 * ps * math.log(2.0)
                + gammaln((self.dof + ps) / 2) - float(gammaln(self.dof / 2)))

    def logpdf(self, x):
        k, x = self.dof, np.asarray(x, dtype=float)
        c = (1.0 - k / 2.0) * math.log(2.0) - float(gammaln(k / 2.0)) - k * math.log(self.sd)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x >= 0, c + xlogy(k - 1, x) - 0.5 * (x / self.sd) ** 2, -np.inf)


@dataclass(frozen=True)
class UniformGap(_Continuous):
    """|U - U'| for iid U, U' uniform on an interval of this width, the
    triangular law on [0, width]; not a JSON kind."""
    width: Positive

    def support(self): return 0.0, self.width
    def window(self, p): return 0.0, self.width
    def expectation(self): return self.width / 3.0

    def log_abs_moments(self, ps):
        # E|D|^p = 2 width^p / ((p+1)(p+2)), with math.log per order
        return np.array([p * math.log(self.width) + math.log(2.0) - math.log((p + 1.0) * (p + 2.0))
                         for p in ps])

    def logpdf(self, x):
        # density 2 (width - x) / width^2 on [0, width]
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((x >= 0) & (x <= self.width),
                            math.log(2.0) + np.log(self.width - x) - 2.0 * math.log(self.width),
                            -np.inf)


@dataclass(frozen=True)
class Shifted(Distribution):
    kind = "shifted"
    base: Distribution
    offset: float

    def expectation(self): return self.base.expectation() + self.offset
    def draw(self, rng, count): return self.base.draw(rng, count) + self.offset
    def _fold(self): return canonical(self.base)._push("shift", self.offset)
    def sum_law(self, n): return _wrap_sum(self.base, n, lambda s: Shifted(s, n * self.offset))


@dataclass(frozen=True)
class Scaled(Distribution):
    kind = "scaled"
    base: Distribution
    factor: float

    def expectation(self): return self.factor * self.base.expectation()
    def draw(self, rng, count): return self.factor * self.base.draw(rng, count)
    def sum_law(self, n): return _wrap_sum(self.base, n, lambda s: Scaled(s, self.factor))

    def _fold(self):
        if self.factor == 0:
            return FiniteSupport((0.0,), (1.0,))
        return canonical(self.base)._push("scale", self.factor)


@dataclass(frozen=True)
class SquareOf(Distribution):
    kind = "square_of"
    base: Distribution

    def expectation(self): return abs_moment(self.base, 2.0)   # ||base||_2^2
    def draw(self, rng, count): return self.base.draw(rng, count) ** 2
    def _fold(self): return canonical(self.base)._push("square", None)


@dataclass(frozen=True)
class Centered(Distribution):
    kind = "centered"
    base: Distribution

    def expectation(self): return 0.0
    def draw(self, rng, count): return self.base.draw(rng, count) - self.base.expectation()
    def _fold(self): return canonical(self.base)._push("shift", -self.base.expectation())
    def sum_law(self, n): return _wrap_sum(self.base, n, Centered)


def _wrap_sum(base, n, wrap):
    """wrap(law of the n-fold sum of base), or None if base has none."""
    law = base.sum_law(n)
    return None if law is None else wrap(law)


@dataclass(frozen=True)
class Mapped:
    """Canonical form of g(X) for a primitive X with no family closed under g.

    `steps` apply in order; each is ("shift", c), ("scale", c) or
    ("square", None).  Moments and MGFs peel the outer steps where a rule is
    exact and hand the rest to the base's numeric path.
    """
    base: Distribution
    steps: tuple

    def _push(self, op, c):
        return Mapped(self.base, self.steps + ((op, c),))

    def _inner(self):
        """The form without its last step."""
        return Mapped(self.base, self.steps[:-1]) if len(self.steps) > 1 else self.base

    def linear_factor(self):
        """a when every step is affine, so that g(X) = a X + b; else None."""
        if any(op == "square" for op, _ in self.steps):
            return None
        return math.prod(c for op, c in self.steps if op == "scale")

    def support(self):
        lo, hi = self.base.support()
        for step in self.steps:
            if step[0] == "square":
                lo, hi = (0.0 if lo < 0 < hi else min(lo * lo, hi * hi)), max(lo * lo, hi * hi)
            else:
                lo, hi = sorted((_apply((step,), lo), _apply((step,), hi)))
        return lo, hi

    def log_abs_moments(self, ps):
        """ln E|g(X)|^p: an outer scale step is p ln|c| plus the inner
        moment, an outer square step the inner moment at 2p, and an outer
        shift step goes to the base's numeric path with the whole chain."""
        op, c = self.steps[-1]
        if op == "shift":
            return _log_moments(self.base, self.steps, ps)
        inner = self._inner().log_abs_moments
        return inner(2 * ps) if op == "square" else ps * math.log(abs(c)) + inner(ps)

    def mgf(self, beta):
        op, c = self.steps[-1]
        if op == "shift":
            return math.exp(beta * c) * self._inner().mgf(beta)
        if op == "scale":
            return self._inner().mgf(beta * c)
        return self._inner().squared_mgf(beta)

    def squared_mgf(self, beta):
        return _squared_mgf(self.base, self.steps, beta, self.support())


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


@functools.lru_cache(maxsize=4096)
def canonical(spec):
    """The canonical form of a scalar spec: a merged FiniteSupport, a
    Gaussian or UniformInterval when the wrapper chain is affine, a bare
    primitive, or a Mapped (primitive, steps) pair.  Memoised."""
    return _scalar(spec)._fold()


def finite_support(spec):
    """Return sorted (values, probs) arrays if the spec is exactly finite,
    else None.  Duplicate values produced by transforms (e.g. squaring a
    symmetric support) are merged."""
    form = canonical(spec)
    if not isinstance(form, FiniteSupport):
        return None
    return np.array(form.values), np.array(form.probs)


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
    lm = log_abs_moment(spec, p)
    return math.exp(lm) if lm > -math.inf else 0.0


def lp_norm(spec, p: float) -> float:
    """(E|X|^p)^(1/p) for p >= 1."""
    if p < 1:
        raise SpecError(f"p must be >= 1, got {p}")
    lm = log_abs_moment(spec, p)
    return math.exp(lm / p) if lm > -math.inf else 0.0


def log_abs_moment(spec, p: float) -> float:
    """ln E|X|^p (-inf for the a.s. zero variable) at a finite p >= 0; a NaN
    moment is a QuadratureError, and is not memoised."""
    _scalar(spec)
    if not 0 <= p < math.inf:
        raise SpecError(f"moment order must be finite and nonnegative, got p={p}")
    return _log_abs_moment_cached(spec, float(p))


@functools.lru_cache(maxsize=1 << 16)
def _log_abs_moment_cached(spec, p):
    lm = _first_row(canonical(spec), p) if p else 0.0
    if math.isnan(lm):
        raise QuadratureError(f"ln E|X|^p is nan at p={p!r}")
    return lm


def log_abs_moments(spec, ps) -> np.ndarray:
    """ln E|X|^p for every finite p > 0 of the 1-d array ps, in one batched pass.

    Every family implements this method only; log_abs_moment is row 0 of it
    at [p], so the two agree to the bit.  Numeric laws integrate all
    p with one fixed tanh-sinh rule (or sum the Poisson series for all p at
    once), the only numeric path; the rule raises QuadratureError where its
    embedded error estimate exceeds 1e-5 in ln ||X||_p.  Not cached.
    """
    _scalar(spec)
    ps = np.asarray(ps, dtype=float)
    bad = ps[~((ps > 0) & (ps < math.inf))]
    if bad.size:
        raise SpecError(f"moment orders must be finite and positive, got p={bad[0]}")
    return canonical(spec).log_abs_moments(ps)


def mgf(spec, beta: float) -> float:
    """E[exp(beta * X)], raising MomentDivergenceError if infinite."""
    form = canonical(spec)
    beta = float(beta)
    return form.mgf(beta) if beta else 1.0


# ---------------------------------------------------------------------------
# Numeric paths: one per base kind, for both moments and squared MGFs

def _apply(steps, x):
    """Push x (a float or an array) through map steps."""
    for op, c in steps:
        if op == "shift":
            x = x + c
        elif op == "scale":
            x = c * x
        else:
            x = x ** 2
    return x


def _log_moments(base, steps, ps):
    """ln E|g(X)|^p for each p of ps, g the map steps, by the base's numeric
    path, _BLOCK orders at a time so that memory does not grow with len(ps).
    Each row is the same in any batch; no orders give no rows."""
    def log_h(x, q):
        with np.errstate(divide="ignore"):
            return q * np.log(np.abs(_apply(steps, x)))
    return np.concatenate([ps[:0]] + [base._log_expects(log_h, ps[i:i + _BLOCK], _zeros(steps))
                                      for i in range(0, len(ps), _BLOCK)])


def _first_row(form, p):
    """ln E|X|^p of a canonical form: row 0 of its batched moments at [p]."""
    return float(form.log_abs_moments(np.array([p], dtype=float))[0])


def _zeros(steps):
    """The x at which the map steps give 0."""
    ys = [0.0]
    for op, c in reversed(steps):
        if op == "shift":
            ys = [y - c for y in ys]
        elif op == "scale":
            ys = [y / c for y in ys]
        else:
            ys = [r for y in ys if y >= 0 for r in {math.sqrt(y), -math.sqrt(y)}]
    return ys


def _squared_mgf(base, steps, beta, support):
    """E exp(beta g(X)^2) for g the map steps with range in `support`."""
    if beta > 0 and max(-support[0], support[1]) == math.inf:
        raise MomentDivergenceError(
            f"MGF of a squared unbounded variable diverges at beta={beta}")

    def log_h(x, q):
        return beta * _apply(steps, x) ** 2
    return math.exp(base._log_expects(log_h, np.zeros(1))[0])


def _logsumexp(terms):
    terms = np.asarray(terms, dtype=float)
    m = np.max(terms) if len(terms) else -math.inf
    if m == -math.inf:
        return -math.inf
    return float(m + math.log(np.sum(np.exp(terms - m))))


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


def draw_rows(rng, count, shape, rows):
    """Coordinate-major draws: for each (index, law) of `rows`, in order,
    row `index` of a C-order buffer of shape `shape + (count,)` gets
    law.draw(rng, count).  Returns the buffer as a (count,) + shape view,
    not a copy, so every coordinate is one contiguous run of draws."""
    buf = np.empty(shape + (count,))
    for index, law in rows:
        buf[index] = law.draw(rng, count)
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
    return {"kind": spec.kind, **{f.name: _to_json(getattr(spec, f.name))
                                  for f in dataclasses.fields(spec)}}


def _to_json(value):
    if isinstance(value, Spec):
        return spec_to_dict(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


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
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in d:
        if key != "kind" and key not in names:
            raise SpecError(f'"{path}.{key}": unknown field of kind {kind!r}')
    args = {}
    for f in fields:
        value, where = d.get(f.name, dataclasses.MISSING), f"{path}.{f.name}"
        if value is dataclasses.MISSING:
            if f.default is dataclasses.MISSING:
                raise SpecError(f'"{path}": kind {kind!r} is missing field {f.name!r}')
            continue
        nested = _field_type(f)
        if nested in ("Distribution", "VectorSpec"):
            value = _decode(value, where, depth + 1)
        elif nested == "Specs":
            if not isinstance(value, (list, tuple)):
                raise SpecError(f'"{where}": expected a list, got {value!r}')
            value = [_decode(c, f"{where}[{i}]", depth + 1) for i, c in enumerate(value)]
        args[f.name] = value
    try:
        return cls(**args)
    except SpecError as exc:
        raise SpecError(f'"{path}": {exc}') from None
