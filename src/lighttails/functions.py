"""Test functions f of independent coordinates, with sampling, conditional
versions, analytic expectations and proxy-profile construction.

The proxy profile carries per-coordinate worst-case psi-norm bounds on the
centered conditional versions f_k; they are analytic upper bounds (never
estimated from data), so the tail bounds they feed stay sound.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import applications
from . import distributions as dist
from .bounds import PSI2_KINDS, ProxyProfile
from .orlicz import OrliczEstimate, PMaxTooSmallError, psi_norm

__all__ = [
    "SumFunction", "VectorNormOfSum", "SupLinearLoss", "PsaReconstruction",
    "MetricLipschitz", "FunctionSpec", "HSOperatorView", "eval_f",
    "sample_points", "sample_f", "conditional_version_samples", "proxy_profile",
    "expectation", "vector_norm_psi", "vector_norm_lp", "random_projections",
    "fspec_to_dict", "fspec_from_dict",
]

_INNER_MC = 10 ** 5      # budget for conditional means without a closed form
_INNER_STREAM = 10 ** 9  # stream offset reserved for inner estimates


class FunctionSpec(dist.Spec):
    """f of n independent coordinates.  Each kind has `n`, `point_shape` (of
    one base point), `draw(rng, count)` and `evaluate(points)` for batches of
    shape (count,) + point_shape, `draw_coordinate(k, rng, count)` and
    `proxy_profile(p, with_psi2)`; it overrides `closed_form_mean` where
    E[f(X)] has one.

    `draw` returns a coordinate-major view (see dist.draw_rows), so a batch
    may be a non-contiguous view: `evaluate` must not assume C order, must
    give the same values for any layout of the same batch, and must not
    write into `points`.

    `sample(rng, count)` gives `count` values of f(X).  It evaluates f on
    drawn base points, the "per-coordinate" `sampler_layout`, unless the
    kind draws a statistic of the points with the same law ("summed")."""

    sampler_layout = "per-coordinate"

    def closed_form_mean(self): return None
    def sample(self, rng, count): return self.evaluate(self.draw(rng, count))

    def conditional_mean(self, k, x, seed):
        """E[f(X)] with every coordinate but k held at x: an inner estimate."""
        inner = np.repeat(x[None], _INNER_MC, axis=0)
        inner[:, k] = self.draw_coordinate(k, dist._rng(seed, _INNER_STREAM + k),
                                           _INNER_MC)
        return float(self.evaluate(inner).mean())


class _ScalarCoordinates(FunctionSpec):
    """Coordinate k is the scalar law `laws[k]`."""
    n = property(lambda self: len(self.laws))
    point_shape = property(lambda self: (self.n,))

    def draw(self, rng, count): return dist.draw_rows(rng, count, (self.n,), enumerate(self.laws))
    def draw_coordinate(self, k, rng, count): return self.laws[k].draw(rng, count)


class _VectorCoordinates(FunctionSpec):
    """The n coordinates are iid copies of the vector law `coordinate`."""
    point_shape = property(lambda self: (self.n, self.coordinate.dim))

    def draw(self, rng, count):
        vec = self.coordinate
        return dist.draw_rows(rng, count, (self.n, vec.dim), _vector_rows(vec, self.n))
    def draw_coordinate(self, k, rng, count): return self.coordinate.draw(rng, count)


# Each kind lists its one-line facts as a group, then its longer methods.

@dataclass(frozen=True)
class SumFunction(_ScalarCoordinates):
    """f(x) = sum of the coordinates."""
    kind = "sum"
    components: dist.Specs

    laws = property(lambda self: self.components)

    def evaluate(self, points): return _coordinate_sum(points)
    def closed_form_mean(self): return math.fsum(dist.mean(c) for c in self.components)
    def conditional_mean(self, k, x, seed): return x.sum() - x[k] + dist.mean(self.components[k])

    def proxy_profile(self, p, with_psi2):
        centered = [dist.Centered(c) for c in self.components]
        psi1 = [psi_norm(c, 1).value for c in centered]
        psi2 = _psi2_or_none(psi_norm, centered) if with_psi2 else None
        l2p = None if p is None else [dist.lp_norm(c, 2 * p) for c in centered]
        ranges = [_support_width(c) for c in self.components]
        return ProxyProfile(n=self.n, psi1_per_coord=psi1, psi2_per_coord=psi2,
                            l2p_per_coord=l2p, l2p_order=p, ranges=ranges)


@dataclass(frozen=True)
class VectorNormOfSum(_VectorCoordinates):
    """f(x) = ||sum_i x_i|| for n iid copies of a coordinate vector.

    When every component's family is closed under convolution, `sample`
    draws the sum itself: one value of its law per component, `dim` draws
    per value of f instead of `n dim`.  The values have the law of f(X),
    though not the stream of `evaluate(draw(...))`."""
    kind = "vector_norm_of_sum"
    vec: dist.VectorSpec
    n: dist.Count
    centered: bool = False

    coordinate = property(lambda self: self.vec)
    sampler_layout = property(
        lambda self: "per-coordinate" if self._sum_laws is None else "summed")

    def evaluate(self, points): return self._norm(_coordinate_sum(points))

    def sample(self, rng, count):
        if self._sum_laws is None:
            return super().sample(rng, count)
        return self._norm(dist.draw_rows(rng, count, (self.vec.dim,),
                                         enumerate(self._sum_laws)))

    @functools.cached_property
    def _sum_laws(self):
        """Per component, the law of its sum over the n copies; None unless
        every component has one."""
        laws = [c.sum_law(self.n) for c in self.vec.components]
        return None if any(law is None for law in laws) else laws

    def _norm(self, s):
        """||s - n E[X]|| if centered, else ||s||, row by row of a (count,
        dim) batch s of sums."""
        if self.centered:
            means = np.array([dist.mean(c) for c in self.vec.components])
            s = s - self.n * means
        # np.linalg.norm(s, axis=1) of a C-order s
        return np.sqrt(_pairwise_sum([c * c for c in s.T]))

    def proxy_profile(self, p, with_psi2):
        n = self.n
        b1 = 2.0 * vector_norm_psi(self.vec, 1).value
        b2 = _psi2_or_none(vector_norm_psi, [self.vec]) if with_psi2 else None
        psi2 = None if b2 is None else [2.0 * b2[0]] * n
        l2p = [2.0 * vector_norm_lp(self.vec, 2 * p)] * n if p is not None else None
        r = math.sqrt(math.fsum(_support_width(c) ** 2
                                for c in self.vec.components))
        return ProxyProfile(n=n, psi1_per_coord=[b1] * n, psi2_per_coord=psi2,
                            l2p_per_coord=l2p, l2p_order=p, ranges=[r] * n)

    def closed_form_mean(self):
        # for iid N(0, sd^2) entries, ||sum|| is sqrt(n) sd chi_d
        chi = _chi_law(self.vec)
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

    # one coordinate is the pair (x_i, z_i)
    coordinate = property(lambda self: dist.VectorSpec(
        self.input.dim + 1, self.input.components + (self.output,)))

    def _check(self):
        object.__setattr__(self, "weights", tuple(
            _row(w, "weights", self.input.dim) for w in dist._items(self.weights, "weights")))
        object.__setattr__(self, "huber_kappa", float(self.huber_kappa))
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
        rows = _vector_rows(self.input, self.n) + [((i, d), self.output)
                                                   for i in range(self.n)]
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

    def proxy_profile(self, p, with_psi2):
        n = self.n
        # product-space norm L ||x|| + |z| dominates the loss increments
        b = (2.0 / n) * (self.lipschitz * vector_norm_psi(self.input, 1).value
                         + psi_norm(self.output, 1).value)
        r = (1.0 / n) * (self.lipschitz * math.sqrt(math.fsum(
            _support_width(c) ** 2 for c in self.input.components))
            + _support_width(self.output))
        return ProxyProfile(n=n, psi1_per_coord=[b] * n, ranges=[r] * n)


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
        for p in self.projection_arrays():
            if p.shape != (dim, dim):
                raise dist.SpecError("projection has wrong shape")
            if np.max(np.abs(p - p.T)) > 1e-10 or np.max(np.abs(p @ p - p)) > 1e-10:
                raise dist.SpecError("projections must be symmetric and idempotent")
            if abs(np.trace(p) - self.subspace_dim) > 1e-8:
                raise dist.SpecError(
                    f"projection trace {np.trace(p)} != subspace_dim {self.subspace_dim}")

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

    def proxy_profile(self, p, with_psi2):
        n = self.n
        # Cauchy-Schwarz over the projection class contributes sqrt(d) + 1;
        # ||  ||X||^2  ||_psi1 <= 2 ||  ||X||  ||_psi2^2
        psi2_norm = vector_norm_psi(self.input, 2).value
        b = (2.0 / n) * (math.sqrt(self.subspace_dim) + 1.0) * 2.0 * psi2_norm ** 2
        r = (1.0 / n) * math.fsum(_interval_sq_max(c)
                                  for c in self.input.components)
        return ProxyProfile(n=n, psi1_per_coord=[b] * n, ranges=[r] * n)


@dataclass(frozen=True)
class MetricLipschitz(_ScalarCoordinates):
    """f(x) = lip * sum_i g_i(x_i) with each g_i 1-Lipschitz."""
    kind = "metric_lipschitz"
    lip: float
    coordinate_dists: dist.Specs
    maps: tuple             # per-coordinate map names: abs | identity | sin

    laws = property(lambda self: self.coordinate_dists)

    def _check(self):
        object.__setattr__(self, "lip", float(self.lip))
        object.__setattr__(self, "maps", dist._items(self.maps, "maps"))
        if len(self.maps) != len(self.coordinate_dists):
            raise dist.SpecError("maps and coordinate_dists must have equal length")
        for m in self.maps:
            if not (isinstance(m, str) and m in _LIPSCHITZ_MAPS):
                raise dist.SpecError(f"unknown coordinate map {m!r}")

    def evaluate(self, points):
        total = np.zeros(points.shape[0])
        for i, name in enumerate(self.maps):
            total += _LIPSCHITZ_MAPS[name](points[:, i])
        return self.lip * total

    def proxy_profile(self, p, with_psi2):
        psi1 = [self.lip * applications.psi_diameter(c, 1).value
                for c in self.coordinate_dists]
        ranges = [self.lip * _support_width(c) for c in self.coordinate_dists]
        return ProxyProfile(n=self.n, psi1_per_coord=psi1, ranges=ranges)


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

dist._KINDS.update((cls.kind, cls) for cls in (
    SumFunction, VectorNormOfSum, SupLinearLoss, PsaReconstruction, MetricLipschitz))


class HSOperatorView:
    """Rank-one operators Q_x y = <y, x> x inside the Hilbert-Schmidt space."""

    @staticmethod
    def q_matrix(x):
        x = np.asarray(x, dtype=float)
        return np.outer(x, x)

    @staticmethod
    def hs_inner(a, b):
        return float(np.sum(np.asarray(a) * np.asarray(b)))

    @staticmethod
    def hs_norm(a):
        return float(np.linalg.norm(np.asarray(a)))

    @staticmethod
    def reconstruction_error(p, x):
        """l(P, x) = ||x||^2 - ||Px||^2 = ||Q_x||_HS - <P, Q_x>_HS."""
        x = np.asarray(x, dtype=float)
        return float(x @ x - x @ (np.asarray(p) @ x))


def random_projections(ambient_dim, subspace_dim, count, seed):
    """Deterministic net of rank-d orthogonal projections (QR of Gaussians)."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    mats = []
    for _ in range(count):
        g = rng.normal(size=(ambient_dim, subspace_dim))
        q, _ = np.linalg.qr(g)
        mats.append(q @ q.T)
    return mats


# ---------------------------------------------------------------------------
# Sampling and evaluation

def sample_points(fspec, seed, count, stream=0):
    """Batch of base points; shape (count,) + fspec.point_shape."""
    return fspec.draw(dist._rng(seed, stream), count)


def _vector_rows(vec, n):
    """(index, law) rows for n iid copies of vec, in draw order: copy by copy,
    component by component."""
    return [((i, j), c) for i in range(n) for j, c in enumerate(vec.components)]


def _pairwise_sum(terms):
    """sum(terms) in the order numpy sums a contiguous run (pairwise_sum):
    one term after another below eight terms; up to 128, eight running sums
    combined as a tree, then the rest; longer runs split in two."""
    n = len(terms)
    if n < 8:
        return functools.reduce(np.add, terms)
    if n <= 128:
        acc, i = list(terms[:8]), 8
        while i < n - n % 8:
            acc = [a + t for a, t in zip(acc, terms[i:i + 8])]
            i += 8
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        return functools.reduce(np.add, terms[i:], total)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _coordinate_sum(points):
    """points.sum(axis=1), bit for bit as numpy computes it on the C-order
    batch, for a batch of any layout.  There scalar coordinates form a
    contiguous run, which numpy sums pairwise; vector coordinates are added
    one after another.  Both orders work on whole columns here, so a
    coordinate-major batch is summed without a copy."""
    terms = list(np.moveaxis(points, 1, 0))
    # numpy's sums start at +0.0, which also makes the result a new array
    if math.prod(points.shape[2:]) == 1:
        return 0.0 + _pairwise_sum(terms)
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
# Conditional versions

def conditional_version_samples(fspec, k, x, seed, count) -> np.ndarray:
    """Samples of f_k(X)(x): resample coordinate k at base point x, center
    by the conditional mean (closed form for sums, inner estimate otherwise)."""
    n = fspec.n
    if not 0 <= k < n:
        raise ValueError(f"coordinate k={k} out of range for n={n}")
    x = np.asarray(x, dtype=float)
    if x.shape != fspec.point_shape:
        raise ValueError(f"point has shape {x.shape}, expected {fspec.point_shape}")
    batch = np.repeat(x[None], count, axis=0)
    batch[:, k] = fspec.draw_coordinate(k, dist._rng(seed, 0), count)
    return fspec.evaluate(batch) - fspec.conditional_mean(k, x, seed)


# ---------------------------------------------------------------------------
# Norms of vector magnitudes

def _chi_law(vec):
    """sd chi_dim, the law of ||X||, if every coordinate is the same centered
    Gaussian law N(0, sd^2), however the spec writes it, else None."""
    forms = {dist.canonical(c) for c in vec.components}
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
    triangle-inequality bound sum ||X_i||_psi."""
    law = vec.components[0] if vec.dim == 1 else _chi_law(vec)
    if law is not None:
        return psi_norm(law, alpha)
    total = math.fsum(psi_norm(c, alpha).value for c in vec.components)
    return OrliczEstimate(alpha, total, float("nan"), "triangle-bound")


# ---------------------------------------------------------------------------
# Proxy profiles

def proxy_profile(fspec, p: Optional[float] = None, kinds=None) -> ProxyProfile:
    """Analytic per-coordinate worst-case psi-norm bounds for f_k.

    Pass p > 1 to additionally populate the 2p-norm entries used by the
    moment-based bound.  Pass the bound kinds the profile is for to leave
    out what none of them reads: the 2p-norms without a thm3 kind, the psi2
    norms without thm1 or thm3-psi2-variant.  A thm3 kind on a function kind
    with no 2p-norm proxy is a ValueError.
    """
    if kinds is None:
        return fspec.proxy_profile(p, True)
    if not any(k.startswith("thm3") for k in kinds):
        p = None
    profile = fspec.proxy_profile(p, any(k in PSI2_KINDS for k in kinds))
    if p is not None and profile.l2p_per_coord is None:
        raise ValueError(f"the {fspec.kind} kind has no 2p-norm proxy, so the "
                         "thm3 bound kinds do not apply to it")
    return profile


def _support_width(spec):
    lo, hi = dist.support_interval(spec)
    return hi - lo


def _interval_sq_max(spec):
    lo, hi = dist.support_interval(spec)
    return max(lo * lo, hi * hi)


def _psi2_or_none(norm, specs):
    """[norm(s, 2).value for s in specs], or None if one of them needs p
    beyond p_max."""
    try:
        return [norm(s, 2).value for s in specs]
    except PMaxTooSmallError:
        return None


# ---------------------------------------------------------------------------
# Expectations

def expectation(fspec, budget=10 ** 5, seed=0):
    """(E[f(X)], half_width) -- closed form where exact, else a fixed-seed
    estimate with a 99.9% normal-approximation half-width."""
    exact = fspec.closed_form_mean()
    if exact is not None:
        return exact, 0.0
    if budget < 10 ** 4:
        raise ValueError(f"budget must be >= 10^4 samples, got {budget}")
    vals = sample_f(fspec, seed, budget, stream=_INNER_STREAM + 777)
    half = 3.2905 * float(vals.std(ddof=1)) / math.sqrt(budget)
    return float(vals.mean()), half


# ---------------------------------------------------------------------------
# Serialization

fspec_to_dict = dist.spec_to_dict


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
