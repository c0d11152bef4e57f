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
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln

from . import distributions as dist
from .bounds import ProxyProfile
from .orlicz import OrliczEstimate, PMaxTooSmallError, psi_norm, _sup_ratio

__all__ = [
    "SumFunction", "VectorNormOfSum", "SupLinearLoss", "PsaReconstruction",
    "MetricLipschitz", "FunctionSpec", "HSOperatorView", "n_coords",
    "eval_f", "sample_points", "sample_f", "conditional_version_samples",
    "proxy_profile", "expectation", "vector_norm_psi", "vector_norm_lp",
    "random_projections", "fspec_to_dict", "fspec_from_dict",
]

_INNER_MC = 10 ** 5      # budget for conditional means without a closed form
_INNER_STREAM = 10 ** 9  # stream offset reserved for inner estimates


@dataclass(frozen=True)
class SumFunction(dist.Spec):
    """f(x) = sum of the coordinates."""
    kind = "sum"
    components: dist.Specs


@dataclass(frozen=True)
class VectorNormOfSum(dist.Spec):
    """f(x) = ||sum_i x_i|| for n iid copies of a coordinate vector."""
    kind = "vector_norm_of_sum"
    vec: dist.VectorSpec
    n: dist.Count
    centered: bool = False


@dataclass(frozen=True)
class SupLinearLoss(dist.Spec):
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


@dataclass(frozen=True)
class PsaReconstruction(dist.Spec):
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


@dataclass(frozen=True)
class MetricLipschitz(dist.Spec):
    """f(x) = lip * sum_i g_i(x_i) with each g_i 1-Lipschitz."""
    kind = "metric_lipschitz"
    lip: float
    coordinate_dists: dist.Specs
    maps: tuple             # per-coordinate map names: abs | identity | sin

    def _check(self):
        object.__setattr__(self, "lip", float(self.lip))
        object.__setattr__(self, "maps", dist._items(self.maps, "maps"))
        if len(self.maps) != len(self.coordinate_dists):
            raise dist.SpecError("maps and coordinate_dists must have equal length")
        for m in self.maps:
            if not (isinstance(m, str) and m in _LIPSCHITZ_MAPS):
                raise dist.SpecError(f"unknown coordinate map {m!r}")


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

FunctionSpec = Union[SumFunction, VectorNormOfSum, SupLinearLoss,
                     PsaReconstruction, MetricLipschitz]
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


def n_coords(fspec) -> int:
    if isinstance(fspec, SumFunction):
        return len(fspec.components)
    if isinstance(fspec, (VectorNormOfSum, SupLinearLoss, PsaReconstruction)):
        return fspec.n
    if isinstance(fspec, MetricLipschitz):
        return len(fspec.coordinate_dists)
    raise TypeError(f"unknown function spec {type(fspec).__name__}")


# ---------------------------------------------------------------------------
# Sampling and evaluation

def sample_points(fspec, seed, count, stream=0):
    """Batch of base points; shape (count, n) or (count, n, dim)."""
    rng = dist._rng(seed, stream)
    return _draw_points(fspec, rng, count)


def _draw_points(fspec, rng, count):
    if isinstance(fspec, SumFunction):
        return np.column_stack([c.draw(rng, count) for c in fspec.components])
    if isinstance(fspec, VectorNormOfSum):
        return _draw_vectors(fspec.vec, rng, count, fspec.n)
    if isinstance(fspec, SupLinearLoss):
        xs = _draw_vectors(fspec.input, rng, count, fspec.n)
        zs = np.stack([fspec.output.draw(rng, count)
                       for _ in range(fspec.n)], axis=1)
        return np.concatenate([xs, zs[:, :, None]], axis=2)
    if isinstance(fspec, PsaReconstruction):
        return _draw_vectors(fspec.input, rng, count, fspec.n)
    if isinstance(fspec, MetricLipschitz):
        return np.column_stack([c.draw(rng, count) for c in fspec.coordinate_dists])
    raise TypeError(f"unknown function spec {type(fspec).__name__}")


def _draw_vectors(vec, rng, count, n):
    out = np.empty((count, n, vec.dim))
    for i in range(n):
        for j, comp in enumerate(vec.components):
            out[:, i, j] = comp.draw(rng, count)
    return out


def eval_f(fspec, points) -> np.ndarray:
    """Evaluate f on a batch of base points (first axis = batch)."""
    points = np.asarray(points, dtype=float)
    squeeze = False
    if points.ndim == _point_ndim(fspec):
        points = points[None]
        squeeze = True
    out = _eval_batch(fspec, points)
    return out[0] if squeeze else out


def _point_ndim(fspec):
    return 1 if isinstance(fspec, (SumFunction, MetricLipschitz)) else 2


def _eval_batch(fspec, points):
    if isinstance(fspec, SumFunction):
        _check_shape(points, (None, len(fspec.components)))
        return points.sum(axis=1)
    if isinstance(fspec, VectorNormOfSum):
        _check_shape(points, (None, fspec.n, fspec.vec.dim))
        s = points.sum(axis=1)
        if fspec.centered:
            means = np.array([dist.mean(c) for c in fspec.vec.components])
            s = s - fspec.n * means
        return np.linalg.norm(s, axis=1)
    if isinstance(fspec, SupLinearLoss):
        d = fspec.input.dim
        _check_shape(points, (None, fspec.n, d + 1))
        xs, zs = points[:, :, :d], points[:, :, d]
        mus = _sup_loss_means(fspec)
        best = None
        for w, mu in zip(fspec.weights, mus):
            resid = xs @ np.asarray(w) - zs
            vals = _loss_values(fspec, resid).mean(axis=1) - mu
            best = vals if best is None else np.maximum(best, vals)
        return best
    if isinstance(fspec, PsaReconstruction):
        _check_shape(points, (None, fspec.n, fspec.ambient_dim))
        sq = np.einsum("bij,bij->bi", points, points)
        second = _second_moment_matrix(fspec.input)
        e_sq = float(np.trace(second))
        best = None
        for p in fspec.projection_arrays():
            proj_sq = np.einsum("bij,jk,bik->bi", points, p, points)
            expected = e_sq - float(np.sum(p * second))
            vals = expected - (sq - proj_sq).mean(axis=1)
            best = vals if best is None else np.maximum(best, vals)
        return best
    if isinstance(fspec, MetricLipschitz):
        _check_shape(points, (None, len(fspec.coordinate_dists)))
        total = np.zeros(points.shape[0])
        for i, name in enumerate(fspec.maps):
            total += _LIPSCHITZ_MAPS[name](points[:, i])
        return fspec.lip * total
    raise TypeError(f"unknown function spec {type(fspec).__name__}")


def _check_shape(points, expected):
    got = points.shape
    if len(got) != len(expected) or any(
            e is not None and g != e for g, e in zip(got, expected)):
        raise ValueError(f"point batch has shape {got}, expected {expected}")


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
    xs = fspec.input.draw(rng, _INNER_MC)
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
    return _eval_batch(fspec, sample_points(fspec, seed, count, stream))


# ---------------------------------------------------------------------------
# Conditional versions

def conditional_version_samples(fspec, k, x, seed, count) -> np.ndarray:
    """Samples of f_k(X)(x): resample coordinate k at base point x, center
    by the conditional mean (closed form for sums, inner estimate otherwise)."""
    n = n_coords(fspec)
    if not 0 <= k < n:
        raise ValueError(f"coordinate k={k} out of range for n={n}")
    x = np.asarray(x, dtype=float)
    batch = np.repeat(x[None], count, axis=0)
    rng = dist._rng(seed, 0)
    batch[:, k] = _draw_coordinate(fspec, k, rng, count)
    vals = _eval_batch(fspec, batch)
    if isinstance(fspec, SumFunction):
        cond_mean = x.sum() - x[k] + dist.mean(fspec.components[k])
        return vals - cond_mean
    inner = np.repeat(x[None], _INNER_MC, axis=0)
    inner[:, k] = _draw_coordinate(fspec, k, dist._rng(seed, _INNER_STREAM + k),
                                   _INNER_MC)
    cond_mean = float(_eval_batch(fspec, inner).mean())
    return vals - cond_mean


def _draw_coordinate(fspec, k, rng, count):
    if isinstance(fspec, SumFunction):
        return fspec.components[k].draw(rng, count)
    if isinstance(fspec, MetricLipschitz):
        return fspec.coordinate_dists[k].draw(rng, count)
    if isinstance(fspec, (VectorNormOfSum, PsaReconstruction)):
        vec = fspec.vec if isinstance(fspec, VectorNormOfSum) else fspec.input
        return vec.draw(rng, count)
    if isinstance(fspec, SupLinearLoss):
        xs = fspec.input.draw(rng, count)
        zs = fspec.output.draw(rng, count)
        return np.concatenate([xs, zs[:, None]], axis=1)
    raise TypeError(f"unknown function spec {type(fspec).__name__}")


# ---------------------------------------------------------------------------
# Norms of vector magnitudes

def _iid_centered_gaussian_sd(vec):
    comps = vec.components
    if all(isinstance(c, dist.Gaussian) and c.mean == 0.0 for c in comps):
        sds = {c.sd for c in comps}
        if len(sds) == 1:
            return comps[0].sd
    return None


def vector_norm_lp(vec, p) -> float:
    """||  ||X||  ||_p for a coordinate vector; exact for iid centered
    Gaussians (chi law), else the triangle-inequality bound sum ||X_i||_p."""
    if vec.dim == 1:
        return dist.lp_norm(vec.components[0], p)
    sd = _iid_centered_gaussian_sd(vec)
    if sd is not None:
        d = vec.dim
        lm = (p * math.log(sd) + 0.5 * p * math.log(2.0)
              + float(gammaln((d + p) / 2)) - float(gammaln(d / 2)))
        return math.exp(lm / p)
    return math.fsum(dist.lp_norm(c, p) for c in vec.components)


def vector_norm_psi(vec, alpha) -> OrliczEstimate:
    """psi norm (or a valid upper bound) of ||X||."""
    if vec.dim == 1:
        return psi_norm(vec.components[0], alpha)
    sd = _iid_centered_gaussian_sd(vec)
    if sd is not None:
        d = vec.dim

        def log_lp(p):
            return (math.log(sd) + 0.5 * math.log(2.0)
                    + (float(gammaln((d + p) / 2)) - float(gammaln(d / 2))) / p)
        return _sup_ratio(log_lp, alpha, 256.0, 16, "analytic-grid")
    total = math.fsum(psi_norm(c, alpha).value for c in vec.components)
    return OrliczEstimate(alpha, total, float("nan"), "triangle-bound")


# ---------------------------------------------------------------------------
# Proxy profiles

def proxy_profile(fspec, p: Optional[float] = None) -> ProxyProfile:
    """Analytic per-coordinate worst-case psi-norm bounds for f_k.

    Pass p > 1 to additionally populate the 2p-norm entries used by the
    moment-based bound.
    """
    n = n_coords(fspec)
    if isinstance(fspec, SumFunction):
        psi1 = [psi_norm(dist.Centered(c), 1).value for c in fspec.components]
        psi2 = _try_psi2([dist.Centered(c) for c in fspec.components])
        l2p = None
        if p is not None:
            l2p = [dist.lp_norm(dist.Centered(c), 2 * p) for c in fspec.components]
        ranges = [_support_width(c) for c in fspec.components]
        return ProxyProfile(n=n, psi1_per_coord=psi1, psi2_per_coord=psi2,
                            l2p_per_coord=l2p, l2p_order=p, ranges=ranges)
    if isinstance(fspec, VectorNormOfSum):
        b1 = 2.0 * vector_norm_psi(fspec.vec, 1).value
        try:
            b2 = 2.0 * vector_norm_psi(fspec.vec, 2).value
            psi2 = [b2] * n
        except PMaxTooSmallError:
            psi2 = None
        l2p = [2.0 * vector_norm_lp(fspec.vec, 2 * p)] * n if p is not None else None
        r = math.sqrt(math.fsum(_support_width(c) ** 2
                                for c in fspec.vec.components))
        return ProxyProfile(n=n, psi1_per_coord=[b1] * n, psi2_per_coord=psi2,
                            l2p_per_coord=l2p, l2p_order=p, ranges=[r] * n)
    if isinstance(fspec, SupLinearLoss):
        # product-space norm L ||x|| + |z| dominates the loss increments
        b = (2.0 / n) * (fspec.lipschitz * vector_norm_psi(fspec.input, 1).value
                         + psi_norm(fspec.output, 1).value)
        r = (1.0 / n) * (fspec.lipschitz * math.sqrt(math.fsum(
            _support_width(c) ** 2 for c in fspec.input.components))
            + _support_width(fspec.output))
        return ProxyProfile(n=n, psi1_per_coord=[b] * n, ranges=[r] * n)
    if isinstance(fspec, PsaReconstruction):
        # Cauchy-Schwarz over the projection class contributes sqrt(d) + 1;
        # ||  ||X||^2  ||_psi1 <= 2 ||  ||X||  ||_psi2^2
        psi2_norm = vector_norm_psi(fspec.input, 2).value
        b = (2.0 / n) * (math.sqrt(fspec.subspace_dim) + 1.0) * 2.0 * psi2_norm ** 2
        r = (1.0 / n) * math.fsum(_interval_sq_max(c)
                                  for c in fspec.input.components)
        return ProxyProfile(n=n, psi1_per_coord=[b] * n, ranges=[r] * n)
    if isinstance(fspec, MetricLipschitz):
        from .applications import psi_diameter
        psi1 = [fspec.lip * psi_diameter(c, 1).value
                for c in fspec.coordinate_dists]
        ranges = [fspec.lip * _support_width(c) for c in fspec.coordinate_dists]
        return ProxyProfile(n=n, psi1_per_coord=psi1, ranges=ranges)
    raise TypeError(f"unknown function spec {type(fspec).__name__}")


def _support_width(spec):
    lo, hi = dist.support_interval(spec)
    return hi - lo


def _interval_sq_max(spec):
    lo, hi = dist.support_interval(spec)
    return max(lo * lo, hi * hi)


def _try_psi2(specs):
    out = []
    for s in specs:
        try:
            out.append(psi_norm(s, 2).value)
        except PMaxTooSmallError:
            return None
    return out


# ---------------------------------------------------------------------------
# Expectations

def expectation(fspec, budget=10 ** 5, seed=0):
    """(E[f(X)], half_width) -- closed form where exact, else a fixed-seed
    estimate with a 99.9% normal-approximation half-width."""
    if isinstance(fspec, SumFunction):
        return math.fsum(dist.mean(c) for c in fspec.components), 0.0
    if isinstance(fspec, VectorNormOfSum):
        sd = _iid_centered_gaussian_sd(fspec.vec)
        if sd is not None:
            # ||sum|| is a chi law with scale sd * sqrt(n)
            d = fspec.vec.dim
            scale = sd * math.sqrt(fspec.n)
            val = scale * math.sqrt(2.0) * math.exp(
                float(gammaln((d + 1) / 2)) - float(gammaln(d / 2)))
            return val, 0.0
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
