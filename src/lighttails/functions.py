"""Test functions f of independent coordinates, with sampling, analytic
expectations and proxy-profile construction.

The proxy profile carries per-coordinate worst-case psi-norm bounds on the
centered conditional versions f_k; they are analytic upper bounds (never
estimated from data), so the tail bounds they feed stay sound.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import applications
from . import distributions as dist
from .bounds import ENTRIES, PSI2_KINDS, ProxyProfile, reads
from .orlicz import NotSubExponentialError, NotSubGaussianError, OrliczEstimate, psi_norm

__all__ = [
    "SumFunction", "VectorNormOfSum", "SupLinearLoss", "PsaReconstruction",
    "MetricLipschitz", "FunctionSpec", "eval_f", "sample_f", "proxy_profile",
    "expectation", "vector_norm_psi", "vector_norm_lp", "random_projections",
    "fspec_from_dict", "NotSubGaussianError",
]

_INNER_MC = 10 ** 5      # draws of the fixed-seed inner estimates and means
_INNER_STREAM = 10 ** 9  # stream offset reserved for inner estimates
# the most floats a seeded projection net may hold, net_size * ambient_dim^2:
# one QR per member, 10^6 of them at ambient_dim 1
MAX_NET_ENTRIES = 10 ** 6


class FunctionSpec(dist.Spec):
    """f of n independent coordinates.  Each kind has `n`, `counts` (the
    runs of equal coordinates of its proxy profile), `point_shape` (of one
    base point), `_rows()` (the (index into a point, law) of each entry, in
    draw order) and one method per proxy entry it has (`psi1_per_coord`,
    `ranges`, `psi2_per_coord`, `l2p_per_coord(p)`), each a list of one
    value per run; it overrides `closed_form_mean` where E[f(X)] has one.

    Every kind is a fold: `_term(index, rows, total)` adds one term per
    group of `_width` entries at rows[:_width] (`index` the group's first)
    into running totals, and f is `_of_sum(total, rows)`.  A term reads an
    entry (sum, metric_lipschitz, vector_norm_of_sum) or a coordinate point
    (psa_reconstruction, sup_linear_loss).  `sample(rng, count, work)`
    fills each group from its laws (the "per-coordinate" `sampler_layout`),
    and `evaluate` copies it from a batch of points: the same bits.  Where
    each total adds n iid draws of a law (`_summands`), one draw of its
    `sum_law(n)` stands in for them ("summed"); where `_f_law` is f's own
    law, it is drawn ("chi").  `work` is a (work_rows, >= count) array a
    caller may keep: the group's rows, `_scratch` rows, then `_totals`
    totals, every value a draw holds whatever n is."""

    _summands = _f_law = None
    _width, _scratch = 1, 0     # entries per term; rows besides them that a term may use
    _totals = property(lambda s: math.prod(s.point_shape[1:]))
    _fold_rows = property(lambda s: s._width + s._scratch + s._totals)
    work_rows = property(lambda s: s._fold_rows if s._f_law is None else 1)
    psi2_per_coord = l2p_per_coord = None      # None marks an entry the kind has not
    sampler_layout = property(lambda s: "chi" if s._f_law is not None else
                              "per-coordinate" if s._sum_laws is None else "summed")

    def closed_form_mean(self): return None
    def draw(self, rng, count): return dist.draw_rows(rng, count, self.point_shape, self._rows())

    @functools.cached_property
    def _sum_laws(self):
        try:        # None unless every summand has a sum law
            laws = [law.sum_law(self.n) for law in self._summands or ()]
        except dist.SpecError:      # its parameters overflow
            return None
        return laws if laws and all(law is not None for law in laws) else None

    def sample(self, rng, count, work=None):
        work = np.empty((self.work_rows, count)) if work is None else work[:, :count]
        if self._f_law is not None:
            self._f_law.fill(rng, work[0])
            return work[0]
        if self._sum_laws is not None:      # one draw of each sum law is its total
            total = work[-self._totals:]
            for row, law in zip(total, self._sum_laws):
                law.fill(rng, row)
            return self._of_sum(total, work[:-self._totals])
        return self._fold(work, lambda index, law, row: law.fill(rng, row))

    def evaluate(self, points):
        values = np.moveaxis(points, 0, -1)
        return self._fold(np.empty((self._fold_rows, len(points))),
                          lambda index, law, row: np.copyto(row, values[index]))

    def _fold(self, work, put):
        """`_of_sum` of the totals, from +0.0, after each group of `_rows()`
        is `put` into its rows and its term added."""
        rows, total = work[:-self._totals], work[-self._totals:]
        total[...] = 0.0
        entries = iter(self._rows())
        for group in zip(*[entries] * self._width):
            for row, (index, law) in zip(rows, group):
                put(index, law, row)
            self._term(group[0][0], rows, total)
        return self._of_sum(total, rows)

    def _term(self, index, rows, total):
        """The entry, added into the total of its place in a coordinate."""
        entry = total[index[1:]]
        entry += rows[0]


class _ScalarCoordinates(FunctionSpec):
    """Coordinate k is the scalar law `laws[k]`.  A coordinate's proxies
    read its law alone, so the profile reads one law per run of equal
    consecutive laws (`_runs`)."""
    n = property(lambda self: len(self.laws))
    counts = property(lambda self: tuple(k for _, _, k in self._runs))
    point_shape = property(lambda self: (self.n,))

    @functools.cached_property
    def _runs(self):
        """(first coordinate, law, length) of each run of equal consecutive laws."""
        runs, first = [], 0
        for law, run in itertools.groupby(self.laws):
            length = sum(1 for _ in run)
            runs.append((first, law, length))
            first += length
        return tuple(runs)

    def _rows(self): return (((i,), law) for i, law in enumerate(self.laws))


class _VectorCoordinates(FunctionSpec):
    """The n coordinates are iid copies of the vector law `coordinate`."""
    counts = property(lambda self: (self.n,))
    point_shape = property(lambda self: (self.n, self.coordinate.dim))

    def _rows(self):
        # copy by copy, component by component; a generator, so no list of n dim rows is built
        return (((i, j), c) for i in range(self.n) for j, c in enumerate(self.coordinate.components))


# Each kind lists its one-line facts as a group, then its longer methods.

@dataclass(frozen=True)
class SumFunction(_ScalarCoordinates):
    """f(x) = sum of the coordinates.  An iid sum, n >= 2 components equal
    to the first, is drawn in the summed layout if that one has a `sum_law`."""
    kind = "sum"
    components: dist.Specs

    laws = property(lambda self: self.components)

    def _of_sum(self, s, rows): return s[0]
    def closed_form_mean(self): return math.fsum(dist.mean(c) for c in self.components)
    def ranges(self): return [_support_width(c) for _, c, _ in self._runs]

    @property
    def _summands(self):
        c = self.components
        return c[:1] if self.n > 1 and all(x == c[0] for x in c) else None

    @functools.cached_property
    def _centered(self):
        """(first coordinate, law, its Centered law) per run."""
        return tuple((i, c, dist.Centered(c)) for i, c, _ in self._runs)

    def psi1_per_coord(self):
        return [_proxy_norm(psi_norm, x, 1, f"coordinate {i}") for i, _, x in self._centered]

    def psi2_per_coord(self):
        return [_proxy_norm(psi_norm, x, 2, f"coordinate {i}") for i, _, x in self._centered]

    def l2p_per_coord(self, p):
        return [_proxy_read(dist.lp_norm, x, 2 * p, f"coordinate {i}", c)
                for i, c, x in self._centered]


@dataclass(frozen=True)
class VectorNormOfSum(_VectorCoordinates):
    """f(x) = ||sum_i x_i|| (||sum_i (x_i - E X)|| if centered) for n iid
    copies of a coordinate vector.  When every component is one N(0, sd^2)
    law, or centers to one when centered is set, f has the law
    Chi(dim, sqrt(n) sd), drawn once per value of f (the "chi"
    `sampler_layout`); else, when every component has a `sum_law`, it is
    drawn in the summed layout, `dim` draws per value of f instead of `n dim`."""
    kind = "vector_norm_of_sum"
    vec: dist.VectorSpec
    n: dist.Count
    centered: bool = False

    coordinate = property(lambda self: self.vec)
    _summands = property(lambda self: self.vec.components)

    @functools.cached_property
    def _f_law(self):
        """Chi(dim, sqrt(n) sd), the law of f, or None where there is no chi
        law or sqrt(n) sd overflows."""
        chi = _chi_law(self.vec, self.centered)
        return None if chi is None else dist._built(dist.Chi, chi.dof, math.sqrt(self.n) * chi.sd)

    def _of_sum(self, s, rows):
        """||s - n E[X]|| if centered, else ||s||, of each column of the
        (dim, count) sums s, which it overwrites: the squares are added
        into rows[0] from +0.0, whole row after row, in one order for every
        memory layout."""
        if self.centered:
            means = np.array([dist.mean(c) for c in self.vec.components])
            s -= (self.n * means)[:, None]
        s *= s
        out = rows[0]
        out[...] = 0.0
        for square in s:
            out += square
        return np.sqrt(out, out=out)

    def psi1_per_coord(self):
        return [2.0 * _proxy_norm(vector_norm_psi, self.vec, 1, "coordinate 0")]

    def psi2_per_coord(self):
        return [2.0 * _proxy_norm(vector_norm_psi, self.vec, 2, "coordinate 0")]

    def l2p_per_coord(self, p):
        vec = self.vec
        return [2.0 * _proxy_read(vector_norm_lp, vec, 2 * p, "coordinate 0", vec)]

    def ranges(self):
        widths = map(_support_width, self.vec.components)
        return [math.sqrt(math.fsum(w * w for w in widths))]

    def closed_form_mean(self):
        # for iid N(0, sd^2) entries, ||sum|| is sqrt(n) sd chi_d
        chi = _chi_law(self.vec, self.centered)
        return None if chi is None else math.sqrt(self.n) * dist.abs_moment(chi, 1)


@dataclass(frozen=True)
class SupLinearLoss(_VectorCoordinates):
    """Worst estimation difference of 1-Lipschitz linear-prediction losses.

    f((x, z)) = max over the weight net of
    (1/n) sum_i loss(<w, x_i> - z_i) - E[loss(<w, X> - Z)].
    """
    kind = "sup_linear_loss"
    weights: tuple          # finite net of weight vectors, tuple of tuples
    loss: str               # "absolute" | "hinge" | "huber"
    input: dist.VectorSpec
    output: dist.Distribution
    n: dist.Count
    huber_kappa: float = 1.0

    # one coordinate is the pair (x_i, z_i), drawn together; one total per weight
    coordinate = property(lambda self: dist.VectorSpec(
        self.input.dim + 1, self.input.components + (self.output,)))
    _width = property(lambda self: self.input.dim + 1)
    _scratch = 2
    _totals = property(lambda self: len(self.weights))

    def _check(self):
        object.__setattr__(self, "weights", tuple(
            _row(w, "weights", self.input.dim) for w in dist._items(self.weights, "weights")))
        if not (isinstance(self.loss, str) and self.loss in _LOSSES):
            raise dist.SpecError(f"unknown loss {self.loss!r}")
        if self.loss == "huber" and not 0 < self.huber_kappa <= 1:
            raise dist.SpecError(f"huber_kappa must lie in (0,1], got {self.huber_kappa}")
        if not self.weights:
            raise dist.SpecError("weight net must be nonempty")

    @property
    def lipschitz(self):
        return max(math.sqrt(sum(x * x for x in w)) for w in self.weights)

    def _loss(self, w, rows):
        """loss(<w, x> - z) of the points (x, z) at rows[:d + 1], into rows[-2]."""
        resid = _dot(w, rows, rows[-2], rows[-1])
        resid -= rows[len(w)]
        return _LOSSES[self.loss](resid, rows[-1], self.huber_kappa)

    def sample(self, rng, count, work=None):
        _sup_loss_means(self)   # its batch of points, freed before the fold's array is made
        return super().sample(rng, count, work)

    def _term(self, index, rows, total):
        for w, entry in zip(self.weights, total):
            entry += self._loss(w, rows)

    def _of_sum(self, s, rows):
        """max over the net of each weight's mean loss less its mean."""
        for entry, mu in zip(s, _sup_loss_means(self)):
            entry /= self.n
            entry -= mu
        return np.maximum.reduce(s, axis=0, out=rows[0])

    def psi1_per_coord(self):
        # product-space norm L ||x|| + |z| dominates the loss increments
        return [(2.0 / self.n) * (
            self.lipschitz * _proxy_norm(vector_norm_psi, self.input, 1, "input")
            + _proxy_norm(psi_norm, self.output, 1, "output"))]

    def ranges(self):
        return [(1.0 / self.n) * (_times(self.lipschitz, math.sqrt(math.fsum(
            w * w for w in map(_support_width, self.input.components))))
            + _support_width(self.output))]


@dataclass(frozen=True)
class PsaReconstruction(_VectorCoordinates):
    """Worst estimation difference of subspace reconstruction errors.

    f(x) = max over the projection net of
    (1/n) sum_i E[l(P, X)] - l(P, x_i), with l(P, x) = ||x||^2 - ||Px||^2.
    """
    kind = "psa_reconstruction"
    ambient_dim: dist.Count
    subspace_dim: dist.Count
    projections: tuple      # tuple of (D, D) matrices as nested tuples
    input: dist.VectorSpec
    n: dist.Count

    # a term adds x x^T of one coordinate point, its upper triangle, into S
    coordinate = property(lambda self: self.input)
    _width = property(lambda self: self.ambient_dim)
    _scratch = 2
    _totals = property(lambda self: len(self._pairs))

    def _check(self):
        dim = self.ambient_dim
        if self.input.dim != dim:
            raise dist.SpecError(f"input has dim {self.input.dim}, expected ambient_dim={dim}")
        object.__setattr__(self, "projections", tuple(
            tuple(_row(row, "projections", dim) for row in dist._items(p, "projections"))
            for p in dist._items(self.projections, "projections")))
        if not self.projections:
            raise dist.SpecError("projection net must be nonempty")
        for i, p in enumerate(self.projection_arrays()):
            if p.shape != (dim, dim):
                raise dist.SpecError(
                    f"projections[{i}] has shape {p.shape}, expected {(dim, dim)}")
            if np.max(np.abs(p - p.T)) > 1e-10 or np.max(np.abs(p @ p - p)) > 1e-10:
                raise dist.SpecError(f"projections[{i}] must be symmetric and idempotent")
            if abs(np.trace(p) - self.subspace_dim) > 1e-8:
                raise dist.SpecError(f"projections[{i}] has trace {np.trace(p)}, "
                                     f"expected subspace_dim {self.subspace_dim}")

    def projection_arrays(self):
        return [np.asarray(p) for p in self.projections]

    @functools.cached_property
    def _pairs(self):
        return tuple(itertools.combinations_with_replacement(range(self.ambient_dim), 2))

    @functools.cached_property
    def _net(self):
        """(E l(P, X), the weights of the pairs of x x^T in l(P, x) =
        tr((I - P) x x^T): 1 - P_aa on the diagonal, -2 P_ab above it) per
        projection P; E x_a x_b is E x_a^2, or the product of the means."""
        c = self.input.components
        moments = [dist.abs_moment(c[a], 2) if a == b else dist.mean(c[a]) * dist.mean(c[b])
                   for a, b in self._pairs]
        weights = [tuple(1.0 - p[a, a] if a == b else -2.0 * p[a, b] for a, b in self._pairs)
                   for p in self.projection_arrays()]
        return tuple((math.fsum(map(operator.mul, w, moments)), w) for w in weights)

    def _term(self, index, rows, total):
        for (a, b), entry in zip(self._pairs, total):
            entry += np.multiply(rows[a], rows[b], out=rows[-1])

    def _of_sum(self, s, rows):
        """max over the net of E l(P, X) - tr((I - P) S) / n."""
        out = rows[0]
        out[...] = -np.inf
        for mean, weights in self._net:
            v = _dot(weights, s, rows[-2], rows[-1])
            v /= self.n
            np.maximum(out, np.subtract(mean, v, out=v), out=out)
        return out

    def psi1_per_coord(self):
        # Cauchy-Schwarz over the projection class contributes sqrt(d) + 1;
        # ||  ||X||^2  ||_psi1 <= 2 ||  ||X||  ||_psi2^2
        psi2_norm = _proxy_norm(vector_norm_psi, self.input, 2, "input")
        return [(2.0 / self.n) * (math.sqrt(self.subspace_dim) + 1.0) * 2.0
                * (psi2_norm * psi2_norm)]

    def ranges(self):
        return [(1.0 / self.n) * math.fsum(max(x * x for x in dist.support_interval(c))
                                           for c in self.input.components)]


@dataclass(frozen=True)
class MetricLipschitz(_ScalarCoordinates):
    """f(x) = lip * sum_i g_i(x_i) with each g_i 1-Lipschitz.

    E f is exact when every E g_i(X_i) is, read on the canonical form of
    the law: E X for identity; for abs, +-E X on a one-signed support, else
    the folded Gaussian, the uniform law and finite laws; for sin, Im E e^{iX}
    of a Gaussian, exponential, uniform, Poisson or finite law.  Any other
    pair leaves the mean to `expectation`'s Monte Carlo estimate."""
    kind = "metric_lipschitz"
    lip: float
    coordinate_dists: dist.Specs
    maps: tuple             # per-coordinate map names: abs | identity | sin

    laws = property(lambda self: self.coordinate_dists)

    def ranges(self): return [_times(self.lip, _support_width(c)) for _, c, _ in self._runs]

    def _check(self):
        if self.lip < 0:
            raise dist.SpecError(f"lip must be nonnegative, got {self.lip}")
        object.__setattr__(self, "maps", dist._items(self.maps, "maps"))
        if len(self.maps) != len(self.coordinate_dists):
            raise dist.SpecError("maps and coordinate_dists must have equal length")
        for m in self.maps:
            if not (isinstance(m, str) and m in _LIPSCHITZ_MAPS):
                raise dist.SpecError(f"unknown coordinate map {m!r}")

    def closed_form_mean(self):
        terms = [_map_mean(name, law) for name, law in zip(self.maps, self.coordinate_dists)]
        return None if None in terms else self.lip * math.fsum(terms)

    def _of_sum(self, s, rows):
        s *= self.lip
        return s[0]

    def _term(self, index, rows, total):
        entry = total[0]
        entry += _LIPSCHITZ_MAPS[self.maps[index[0]]](rows[0], out=rows[0])

    def psi1_per_coord(self):
        return [self.lip * _proxy_norm(applications.psi_diameter, c, 1, f"coordinate {i}")
                for i, c, _ in self._runs]


def _row(row, name, length):
    """row as a tuple of `length` floats."""
    out = dist._floats(row, name)
    if len(out) != length:
        raise dist.SpecError(f"{name} entries must have length {length}, got {len(out)}")
    return out


# each map of (x, out=None) writes into out where given; identity returns
# x, which is out wherever the fold gives it one
_LIPSCHITZ_MAPS = {
    "abs": np.abs,
    "identity": lambda x, out=None: x,
    "sin": np.sin,
}


def _folded_gaussian_mean(g):
    z = g.mean / g.sd
    return (g.sd * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z)
            + g.mean * math.erf(z / math.sqrt(2.0)))


def _two_signed_uniform_abs_mean(u):
    # (lo^2 + hi^2) / (2 (hi - lo)); lo / w and hi / w lie in (-1, 1), so
    # no square overflows
    w = u.hi - u.lo
    return 0.5 * (u.lo * (u.lo / w) + u.hi * (u.hi / w))


# E g(X) by map and canonical family, where it is a closed form; abs needs
# it only for a support on both sides of 0.  Products, not ** 2: a float
# ** that overflows raises OverflowError, a product gives inf.
_MAP_MEANS = {
    "abs": {
        dist.Gaussian: _folded_gaussian_mean,
        dist.UniformInterval: _two_signed_uniform_abs_mean,
        dist.FiniteSupport: lambda f: math.fsum(p * abs(v) for v, p in zip(f.values, f.probs)),
    },
    "sin": {    # Im E e^{iX}
        dist.Gaussian: lambda g: math.exp(-0.5 * g.sd * g.sd) * math.sin(g.mean),
        dist.Exponential: lambda e: 1.0 / (e.rate + 1.0 / e.rate),     # rate / (1 + rate^2)
        # (cos lo - cos hi) / (hi - lo), without the cancellation of a narrow interval
        dist.UniformInterval: lambda u: (2.0 * math.sin(0.5 * (u.lo + u.hi))
                                         * math.sin(0.5 * (u.hi - u.lo)) / (u.hi - u.lo)),
        dist.Poisson: lambda p: (math.exp(p.rate * (math.cos(1.0) - 1.0))
                                 * math.sin(p.rate * math.sin(1.0))),
        dist.FiniteSupport: lambda f: math.fsum(p * math.sin(v) for v, p in zip(f.values, f.probs)),
    },
}


def _map_mean(name, law):
    """E g(X) for the map `name` and the law of X, or None without a closed form."""
    if name == "identity":
        return dist.mean(law)
    if name == "abs":
        lo, hi = dist.support_interval(law)
        if lo >= 0.0:
            return dist.mean(law)
        if hi <= 0.0:
            return -dist.mean(law)
    form = dist.canonical(law)
    rule = _MAP_MEANS[name].get(type(form))
    return None if rule is None else rule(form)


dist._KINDS.update((cls.kind, cls) for cls in (
    SumFunction, VectorNormOfSum, SupLinearLoss, PsaReconstruction, MetricLipschitz))


def random_projections(ambient_dim, subspace_dim, count, seed):
    """Deterministic net of rank-d orthogonal projections (QR of Gaussians).
    It keeps its own Philox stream, as a spec's net_seed defines its net:
    the net does not follow the sampling generator of `dist._rng`."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    mats = []
    for _ in range(count):
        g = rng.normal(size=(ambient_dim, subspace_dim))
        q, _ = np.linalg.qr(g)
        mats.append(q @ q.T)
    return mats


# ---------------------------------------------------------------------------
# Sampling and evaluation

def eval_f(fspec, points) -> np.ndarray:
    """Evaluate f on one base point or on a batch (first axis = batch)."""
    points = np.asarray(points, dtype=float)
    shape = fspec.point_shape
    single = points.ndim == len(shape)
    batch = points[None] if single else points
    if batch.shape[1:] != shape:
        raise ValueError(f"point batch has shape {batch.shape}, expected {(None,) + shape}")
    out = fspec.evaluate(batch)
    return out[0] if single else out


def _dot(weights, rows, out, tmp):
    """sum_k weights[k] rows[k] into out, tmp as scratch: added in the order
    of k, one correctly rounded ufunc call a step, so that, unlike a matmul's
    or einsum's, the bits do not depend on numpy's SIMD path."""
    np.multiply(rows[0], weights[0], out=out)
    for row, w in zip(rows[1:len(weights)], weights[1:]):
        out += np.multiply(row, w, out=tmp)
    return out


def _huber(resid, tmp, kappa):
    """m (a - m / 2) for a = |resid| and m = min(a, kappa), in place; m is
    halved and doubled back exactly, so a - m / 2 is rounded once."""
    a = np.abs(resid, out=resid)
    m = np.minimum(a, kappa, out=tmp)
    m *= 0.5
    a -= m
    m *= 2.0
    a *= m
    return a


# the losses of `SupLinearLoss`, each a map of (residuals, a scratch row,
# huber_kappa) that writes into the residuals
_LOSSES = {
    "absolute": lambda resid, tmp, kappa: np.abs(resid, out=resid),
    "hinge": lambda resid, tmp, kappa: np.maximum(0.0, np.subtract(1.0, resid, out=resid), out=resid),
    "huber": _huber,
}


@functools.lru_cache(maxsize=256)
def _sup_loss_means(fspec):
    """E[loss(<w,X> - Z)] per net weight, by a fixed-seed inner estimate."""
    rng = dist._rng(0, _INNER_STREAM)
    rows = np.empty((fspec._width + fspec._scratch, _INNER_MC))
    for row, law in zip(rows, fspec.coordinate.components):
        law.fill(rng, row)
    return tuple(float(fspec._loss(w, rows).mean()) for w in fspec.weights)


def sample_f(fspec, seed, count, stream=0, work=None) -> np.ndarray:
    """Deterministic samples of f(X), in new arrays, or drawn into `work`,
    a (fspec.work_rows, >= count) array, where given: the result may then
    be a view of it."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return fspec.sample(dist._rng(seed, stream), count, work)


# ---------------------------------------------------------------------------
# Norms of vector magnitudes

def _chi_law(vec, centered=False):
    """sd chi_dim, the law of ||X|| (of ||X - E X|| if centered), if every
    coordinate is (centers to) the same Gaussian law N(0, sd^2), however the
    spec writes it, else None."""
    forms = {dist.canonical(dist.Centered(c) if centered else c) for c in vec.components}
    form = forms.pop() if len(forms) == 1 else None
    if isinstance(form, dist.Gaussian) and form.mean == 0.0:
        return dist.Chi(vec.dim, form.sd)
    return None


def vector_norm_lp(vec, p) -> float:
    """||  ||X||  ||_p for a coordinate vector: exact for the law of ||X||
    (the component when dim is 1, or the chi law), else the
    triangle-inequality bound sum ||X_i||_p."""
    law = vec.components[0] if vec.dim == 1 else _chi_law(vec)
    if law is not None:
        return dist.lp_norm(law, p)
    return math.fsum(dist.lp_norm(c, p) for c in vec.components)


def vector_norm_psi(vec, alpha) -> OrliczEstimate:
    """psi norm of ||X||, as `vector_norm_lp` reads its law, else the
    triangle-inequality bound sum ||X_i||_psi: the `proxy_value`s summed
    to nearest, the uppers summed and rounded up, so that the upper stays
    certified."""
    law = vec.components[0] if vec.dim == 1 else _chi_law(vec)
    if law is not None:
        return psi_norm(law, alpha)
    ests = [psi_norm(c, alpha) for c in vec.components]
    return OrliczEstimate(alpha, math.fsum(e.proxy_value for e in ests), float("nan"), "triangle-bound",
                          dist.round_up(sum(Fraction(e.upper) for e in ests)))


# ---------------------------------------------------------------------------
# Proxy profiles

def proxy_profile(fspec, p: Optional[float] = None, kinds=None) -> ProxyProfile:
    """Analytic per-coordinate worst-case psi-norm bounds for f_k: exactly
    the entries the bound kinds read (`bounds.READS`), an entry fspec's kind
    has not being a ValueError; without kinds, every entry it has, the psi2
    norms where all are finite and the 2p-norms (of order p > 1) where p is
    given.  A proxy norm's error names its coordinate (or input or output)
    and law; without kinds, a NotSubGaussianError drops the psi2 norms.
    The profile is memoised (see `_kind_profile`); errors are not.
    """
    p = None if p is None else float(p)
    names = (reads(kinds) if kinds is not None else
             frozenset(name for name in ENTRIES if getattr(fspec, name) is not None))
    if p is None or "l2p_per_coord" not in names:
        p, names = None, names - {"l2p_per_coord"}
    try:
        return _kind_profile(fspec, p, names)
    except NotSubGaussianError:
        if kinds is not None:
            raise
        return _kind_profile(fspec, p, names - {"psi2_per_coord"})


# the errors for the entries a kind has not, raised after it builds its own
_NO_PROXY = {
    "l2p_per_coord": "the {} kind has no 2p-norm proxy, so the thm3 bound kinds "
                     "do not apply to it",
    "psi2_per_coord": "the {} kind has no psi2 proxy, so the psi2 bound kinds "
                      f"{' and '.join(PSI2_KINDS)} do not apply to it",
}
_PROFILES = 1024     # profiles kept per process


@functools.lru_cache(maxsize=_PROFILES)
def _kind_profile(fspec, p, names):
    """The profile of the entries `names`, each from fspec's method of that
    name in the order of ENTRIES, memoised: specs and profiles are frozen
    and p is None or a float, so one result serves every equal key."""
    built = [(name, getattr(fspec, name)) for name in ENTRIES if name in names]
    rows = {name: read(p) if name == "l2p_per_coord" else read() for name, read in built if read}
    for name, missing in _NO_PROXY.items():
        if name in names and name not in rows:
            raise ValueError(missing.format(fspec.kind))
    return ProxyProfile(counts=fspec.counts, l2p_order=p, **rows)


def _support_width(spec):
    lo, hi = dist.support_interval(spec)
    return hi - lo


def _times(scale, width):
    """scale * width, and 0 for a zero scale, also where the width is infinite."""
    return scale * width if scale else 0.0


def _proxy_read(norm, spec, order, where, law):
    """norm(spec, order), for every 2p-norm a proxy reads: a QuadratureError
    in it is raised again naming `where` (a coordinate, input or output)
    and its law."""
    try:
        return norm(spec, order)
    except dist.QuadratureError as exc:
        raise dist.QuadratureError(f"{where} ({law}): its 2p-norm is not certified: {exc}") from None


def _proxy_norm(norm, spec, alpha, where):
    """The `proxy_value` of norm(spec, alpha), for every psi norm a proxy
    reads: its error, which names the law, is raised again after `where`
    (a coordinate, input or output)."""
    try:
        return norm(spec, alpha).proxy_value
    except (dist.QuadratureError, NotSubGaussianError, NotSubExponentialError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# Expectations

def expectation(fspec, seed=0):
    """(E[f(X)], half_width) -- closed form where exact, else the mean of
    _INNER_MC fixed-seed draws with a 99.9% normal-approximation half-width."""
    exact = fspec.closed_form_mean()
    if exact is not None:
        return exact, 0.0
    vals = sample_f(fspec, seed, _INNER_MC, stream=_INNER_STREAM + 777)
    half = 3.2905 * float(vals.std(ddof=1)) / math.sqrt(_INNER_MC)
    return float(vals.mean()), half


# ---------------------------------------------------------------------------
# Serialization

def fspec_from_dict(d, path="$"):
    """Decode a function spec; a bare distribution spec means the
    one-coordinate sum of it.  PsaReconstruction also takes the seeded form
    with net_size and net_seed in place of projections.  Every SpecError
    message starts with the JSON path at fault."""
    if isinstance(d, dict) and d.get("kind") == "psa_reconstruction" \
            and "projections" not in d:
        d = _seeded_net(d, path)
    spec = dist._decode(d, path)
    if isinstance(spec, dist.Distribution):
        return SumFunction([spec])
    if isinstance(spec, dist.VectorSpec):
        raise dist.SpecError(f'"{path}": a vector spec is not a function spec')
    return spec


def _seeded_net(d, path):
    """d with net_size/net_seed replaced by the projections they generate;
    a SpecError, before any draw, where the net would hold more than
    MAX_NET_ENTRIES floats."""
    rest = {k: v for k, v in d.items() if k not in ("net_size", "net_seed")}
    try:
        if "net_size" not in d or "net_seed" not in d:
            raise dist.SpecError("kind 'psa_reconstruction' needs projections, "
                                 "or net_size and net_seed")
        dim, sub, size = (dist._count(d.get(k), k)
                          for k in ("ambient_dim", "subspace_dim", "net_size"))
        seed = dist._number(d["net_seed"], "net_seed", numbers.Integral)
        dist._rng(seed)
        if sub > dim:
            raise dist.SpecError(f"subspace_dim {sub} exceeds ambient_dim {dim}")
    except dist.SpecError as exc:
        raise dist.SpecError(f'"{path}": {exc}') from None
    if size * dim * dim > MAX_NET_ENTRIES:
        raise dist.SpecError(
            f'"{path}.net_size": net_size * ambient_dim^2 must be <= 10^6, got '
            f"{size} * {dim}^2 = {size * dim * dim}")
    # check the input before generating ambient_dim^2-sized matrices
    inp = dist._decode(d.get("input"), f"{path}.input", 1)
    if not (isinstance(inp, dist.VectorSpec) and inp.dim == dim):
        raise dist.SpecError(f'"{path}.input": expected a vector spec of dim {dim}')
    rest["projections"] = random_projections(dim, sub, size, seed)
    return rest
