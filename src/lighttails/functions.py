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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import applications
from . import distributions as dist
from .bounds import ENTRIES, PSI2_KINDS, ProxyProfile, reads
from .orlicz import OrliczEstimate, PMaxTooSmallError, psi_norm

__all__ = [
    "SumFunction", "VectorNormOfSum", "SupLinearLoss", "PsaReconstruction",
    "MetricLipschitz", "FunctionSpec", "eval_f", "sample_f", "proxy_profile",
    "expectation", "vector_norm_psi", "vector_norm_lp", "random_projections",
    "fspec_from_dict", "NotSubGaussianError",
]

_INNER_MC = 10 ** 5      # draws of the fixed-seed inner estimates and means
_INNER_STREAM = 10 ** 9  # stream offset reserved for inner estimates


class FunctionSpec(dist.Spec):
    """f of n independent coordinates.  Each kind has `n`, `counts` (the
    runs of equal coordinates of its proxy profile: one run of n for the
    iid vector kinds, one run per run of equal consecutive laws for the
    scalar kinds), `point_shape` (of
    one base point), `draw(rng, count)` and `evaluate(points)` for batches of
    shape (count,) + point_shape, and one method per proxy entry it has
    (`psi1_per_coord`, `ranges`, `psi2_per_coord`, `l2p_per_coord(p)`), each
    a list of one value per run; it overrides `closed_form_mean` where
    E[f(X)] has one.

    `draw` returns a coordinate-major view (see dist.draw_rows), so a batch
    may be a non-contiguous view: `evaluate` must not assume C order, must
    give the same values for any layout of the same batch, and must not
    write into `points`.

    `sample(rng, count)` gives `count` values of f(X): f of drawn base points
    (the "per-coordinate" `sampler_layout`), or "summed": where f is `_of_sum`
    of the coordinate sum and each entry of that sum (shape point_shape[1:])
    adds n iid draws of a law, the hook `_summands` lists those laws, and
    one draw of each law's `sum_law(n)` stands in for the n draws.  Its
    values have the law of f(X), not the stream of `evaluate(draw(...))`.
    VectorNormOfSum adds a third layout, "chi", that draws f's own law.

    Both drawn layouts write every draw in place, each law `fill`ing its row
    of one buffer per batch (see dist.draw_rows).  The per-coordinate buffer
    holds prod(point_shape) values per draw, n times the summed one, and
    `evaluate` makes `evaluation_copies` C-order copies of it, so
    `verify.estimate_tail` refuses shards of it past
    `verify.MAX_SHARD_BYTES` before any draw."""

    _summands = None
    evaluation_copies = 0
    psi2_per_coord = l2p_per_coord = None      # None marks an entry the kind has not
    sampler_layout = property(lambda s: "per-coordinate" if s._sum_laws is None else "summed")

    def closed_form_mean(self): return None

    @functools.cached_property
    def _sum_laws(self):
        try:        # None unless every summand has a sum law
            laws = [law.sum_law(self.n) for law in self._summands or ()]
        except dist.SpecError:      # its parameters overflow
            return None
        return laws if laws and all(law is not None for law in laws) else None

    def sample(self, rng, count):
        if self._sum_laws is None:
            return self.evaluate(self.draw(rng, count))
        shape = self.point_shape[1:]
        rows = zip(np.ndindex(shape), self._sum_laws)
        return self._of_sum(dist.draw_rows(rng, count, shape, rows))


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

    def draw(self, rng, count): return dist.draw_rows(rng, count, (self.n,), enumerate(self.laws))


class _VectorCoordinates(FunctionSpec):
    """The n coordinates are iid copies of the vector law `coordinate`."""
    counts = property(lambda self: (self.n,))
    point_shape = property(lambda self: (self.n, self.coordinate.dim))

    def draw(self, rng, count):
        vec = self.coordinate
        return dist.draw_rows(rng, count, (self.n, vec.dim), _vector_rows(vec, self.n))


# Each kind lists its one-line facts as a group, then its longer methods.

@dataclass(frozen=True)
class SumFunction(_ScalarCoordinates):
    """f(x) = sum of the coordinates.  An iid sum, n >= 2 components equal
    to the first, is drawn in the summed layout if that one has a `sum_law`."""
    kind = "sum"
    components: dist.Specs

    laws = property(lambda self: self.components)

    def evaluate(self, points): return _coordinate_sum(points)
    def _of_sum(self, s): return s
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
        return [_proxy_norm(psi_norm, x, 1, f"coordinate {i}", c) for i, c, x in self._centered]

    def psi2_per_coord(self):
        return [_psi2(psi_norm, x, f"coordinate {i}", c) for i, c, x in self._centered]

    def l2p_per_coord(self, p):
        return [_proxy_read(dist.lp_norm, x, 2 * p, f"coordinate {i}", c, "2p-norm")
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

    def evaluate(self, points): return self._of_sum(_coordinate_sum(points))

    @property
    def sampler_layout(self):
        return super().sampler_layout if self._f_law is None else "chi"

    @functools.cached_property
    def _f_law(self):
        """Chi(dim, sqrt(n) sd), the law of f, or None where there is no chi
        law or sqrt(n) sd overflows."""
        chi = _chi_law(self.vec, self.centered)
        try:
            return None if chi is None else dist.Chi(chi.dof, math.sqrt(self.n) * chi.sd)
        except dist.SpecError:
            return None

    def sample(self, rng, count):
        law = self._f_law
        return super().sample(rng, count) if law is None else law.draw(rng, count)

    def _of_sum(self, s):
        """||s - n E[X]|| if centered, else ||s||, row by row of a (count,
        dim) batch s of sums, its squares added as `_coordinate_sum` adds."""
        if self.centered:
            means = np.array([dist.mean(c) for c in self.vec.components])
            s = s - self.n * means
        return np.sqrt(_coordinate_sum(s * s))

    def psi1_per_coord(self):
        return [2.0 * _proxy_norm(vector_norm_psi, self.vec, 1, "coordinate 0", self.vec)]

    def psi2_per_coord(self):
        return [2.0 * _psi2(vector_norm_psi, self.vec, "coordinate 0", self.vec)]

    def l2p_per_coord(self, p):
        vec = self.vec
        return [2.0 * _proxy_read(vector_norm_lp, vec, 2 * p, "coordinate 0", vec, "2p-norm")]

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

    evaluation_copies = 1   # evaluate's C-order batch

    # one coordinate is the pair (x_i, z_i)
    coordinate = property(lambda self: dist.VectorSpec(
        self.input.dim + 1, self.input.components + (self.output,)))

    def _check(self):
        object.__setattr__(self, "weights", tuple(
            _row(w, "weights", self.input.dim) for w in dist._items(self.weights, "weights")))
        if self.loss not in ("absolute", "hinge", "huber"):
            raise dist.SpecError(f"unknown loss {self.loss!r}")
        if self.loss == "huber" and not 0 < self.huber_kappa <= 1:
            raise dist.SpecError(f"huber_kappa must lie in (0,1], got {self.huber_kappa}")
        if not self.weights:
            raise dist.SpecError("weight net must be nonempty")

    @property
    def lipschitz(self):
        return max(math.sqrt(sum(x * x for x in w)) for w in self.weights)

    def draw(self, rng, count):
        # every x_i first, then every z_i: the draw order of separate x and z
        d = self.input.dim
        rows = itertools.chain(_vector_rows(self.input, self.n),
                               (((i, d), self.output) for i in range(self.n)))
        return dist.draw_rows(rng, count, (self.n, d + 1), rows)

    def evaluate(self, points):
        # matmul picks its kernel, and so its rounding, by memory layout:
        # a C-order batch keeps the values independent of the batch layout
        points = np.ascontiguousarray(points)
        d = self.input.dim
        xs, zs = points[:, :, :d], points[:, :, d]
        best = None
        for w, mu in zip(self.weights, _sup_loss_means(self)):
            resid = xs @ np.asarray(w) - zs
            vals = _loss_values(self, resid).mean(axis=1) - mu
            best = vals if best is None else np.maximum(best, vals)
        return best

    def psi1_per_coord(self):
        # product-space norm L ||x|| + |z| dominates the loss increments
        return [(2.0 / self.n) * (
            self.lipschitz * _proxy_norm(vector_norm_psi, self.input, 1, "input", self.input)
            + _proxy_norm(psi_norm, self.output, 1, "output", self.output))]

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

    evaluation_copies = 1   # evaluate's C-order batch

    coordinate = property(lambda self: self.input)

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

    def evaluate(self, points):
        points = np.ascontiguousarray(points)    # as in SupLinearLoss.evaluate
        sq = np.einsum("bij,bij->bi", points, points)
        second = _second_moment_matrix(self.input)
        e_sq = float(np.trace(second))
        best = None
        for p in self.projection_arrays():
            proj_sq = np.einsum("bij,jk,bik->bi", points, p, points)
            expected = e_sq - float(np.sum(p * second))
            vals = expected - (sq - proj_sq).mean(axis=1)
            best = vals if best is None else np.maximum(best, vals)
        return best

    def psi1_per_coord(self):
        # Cauchy-Schwarz over the projection class contributes sqrt(d) + 1;
        # ||  ||X||^2  ||_psi1 <= 2 ||  ||X||  ||_psi2^2
        psi2_norm = _proxy_norm(
            vector_norm_psi, self.input, 2, "input", self.input,
            f"||X|| is not shown to be sub-Gaussian, which the {self.kind} proxy needs")
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

    def evaluate(self, points):
        total = np.zeros(points.shape[0])
        for i, name in enumerate(self.maps):
            total += _LIPSCHITZ_MAPS[name](points[:, i])
        return self.lip * total

    def psi1_per_coord(self):
        return [self.lip * _proxy_norm(applications.psi_diameter, c, 1, f"coordinate {i}", c)
                for i, c, _ in self._runs]


def _row(row, name, length):
    """row as a tuple of `length` floats."""
    out = dist._floats(row, name)
    if len(out) != length:
        raise dist.SpecError(f"{name} entries must have length {length}, got {len(out)}")
    return out


_LIPSCHITZ_MAPS = {
    "abs": np.abs,
    "identity": lambda x: x,
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

def _vector_rows(vec, n):
    """(index, law) rows for n iid copies of vec, in draw order: copy by copy,
    component by component; a generator, so no list of n dim rows is built."""
    return (((i, j), c) for i in range(n) for j, c in enumerate(vec.components))


def _coordinate_sum(points):
    """The sum over axis 1 of a batch, whole column after whole column, in
    place in one new array that starts at +0.0 as numpy's sums do.  One
    order for every memory layout gives the same bits for every layout,
    and a coordinate-major batch is summed without a copy."""
    terms = np.moveaxis(points, 1, 0)
    total = 0.0 + terms[0]
    for t in terms[1:]:
        total += t
    return total


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


def _loss_values(fspec, resid):
    if fspec.loss == "absolute":
        return np.abs(resid)
    if fspec.loss == "hinge":
        return np.maximum(0.0, 1.0 - resid)
    kappa = fspec.huber_kappa
    a = np.abs(resid)
    return np.where(a <= kappa, 0.5 * a * a, kappa * (a - 0.5 * kappa))


@functools.lru_cache(maxsize=256)
def _sup_loss_means(fspec):
    """E[loss(<w,X> - Z)] per net weight, by a fixed-seed inner estimate."""
    rng = dist._rng(0, _INNER_STREAM)
    xs = np.ascontiguousarray(fspec.input.draw(rng, _INNER_MC))   # see evaluate
    zs = fspec.output.draw(rng, _INNER_MC)
    return tuple(float(_loss_values(fspec, xs @ np.asarray(w) - zs).mean())
                 for w in fspec.weights)


def _second_moment_matrix(vec):
    """E[X X^T] for independent coordinates: diagonal second moments,
    off-diagonal products of means."""
    means = np.array([dist.mean(c) for c in vec.components], dtype=float)
    second = np.array([dist.abs_moment(c, 2) for c in vec.components])
    m = np.outer(means, means)
    np.fill_diagonal(m, second)
    return m


def sample_f(fspec, seed, count, stream=0) -> np.ndarray:
    """Deterministic samples of f(X)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return fspec.sample(dist._rng(seed, stream), count)


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
    triangle-inequality bound sum ||X_i||_psi: the values summed to
    nearest, the uppers summed and rounded up, so that the upper stays
    certified."""
    law = vec.components[0] if vec.dim == 1 else _chi_law(vec)
    if law is not None:
        return psi_norm(law, alpha)
    ests = [psi_norm(c, alpha) for c in vec.components]
    return OrliczEstimate(alpha, math.fsum(e.value for e in ests), float("nan"), "triangle-bound",
                          dist.round_up(sum(Fraction(e.upper) for e in ests)))


# ---------------------------------------------------------------------------
# Proxy profiles

def proxy_profile(fspec, p: Optional[float] = None, kinds=None) -> ProxyProfile:
    """Analytic per-coordinate worst-case psi-norm bounds for f_k: exactly
    the entries the bound kinds read (`bounds.READS`), an entry fspec's kind
    has not being a ValueError; without kinds, every entry it has, the psi2
    norms where all are finite and the 2p-norms (of order p > 1) where p is
    given.  A proxy norm not finite up to p_max is a ValueError (for psi2 a
    NotSubGaussianError) that names its coordinate (or input or output) and
    law.  The profile is memoised (see `_kind_profile`); errors are not.
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


class NotSubGaussianError(ValueError):
    """A coordinate's psi2 norm is not finite up to p_max."""


def _proxy_read(norm, spec, order, where, law, what):
    """norm(spec, order), for every proxy norm read: a QuadratureError in it
    is raised again naming `where` (a coordinate, input or output), its law
    and `what` norm it is."""
    try:
        return norm(spec, order)
    except dist.QuadratureError as exc:
        raise dist.QuadratureError(f"{where} ({law}): its {what} is not certified: {exc}") from None


def _proxy_norm(norm, spec, alpha, where, law, why=None, error=ValueError):
    """norm(spec, alpha).value, read by `_proxy_read`.  Where its moment
    ratio still rises at p_max, `error` names `where` (a coordinate, input or
    output) and its law, and says `why` the proxy fails."""
    try:
        return _proxy_read(norm, spec, alpha, where, law, f"psi{alpha} norm").value
    except PMaxTooSmallError:
        why = why or f"its psi{alpha} norm is not certified"
        raise error(f"{where} ({law}): its psi{alpha} moment ratio still rises at p_max, "
                    f"so {why}") from None


def _psi2(norm, spec, where, law):
    """The psi2 proxy norm that the psi2 bound kinds read."""
    return _proxy_norm(norm, spec, 2, where, law, "the law is not shown to be sub-Gaussian, "
                       f"and the psi2 bound kinds {' and '.join(PSI2_KINDS)} do not apply",
                       NotSubGaussianError)


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
    """d with net_size/net_seed replaced by the projections they generate."""
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
    # check the input before generating ambient_dim^2-sized matrices
    inp = dist._decode(d.get("input"), f"{path}.input", 1)
    if not (isinstance(inp, dist.VectorSpec) and inp.dim == dim):
        raise dist.SpecError(f'"{path}.input": expected a vector spec of dim {dim}')
    rest["projections"] = random_projections(dim, sub, size, seed)
    return rest
