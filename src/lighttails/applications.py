"""Closed-form application bounds: vector concentration, principal subspace
analysis, generalization for unbounded losses, and metric-space tails driven
by psi diameters.

Preconditions are hard errors naming the failing inequality, so a bound is
never reported outside its validity region.
"""
from __future__ import annotations

import math

from . import distributions as dist
from .bounds import TailBoundResult, _tail
from .orlicz import OrliczEstimate, psi_norm
from .orlicz import psi_norm_finite  # noqa: F401 (bench/tracing.py wraps it here)

__all__ = [
    "PreconditionError", "vector_bound_i",
    "vector_bound_ii", "vector_bound_iii", "psa_bound",
    "rademacher_generalization_bound", "regression_bound", "metric_tail",
    "psi_diameter",
]

E = math.e


class PreconditionError(ValueError):
    """A stated hypothesis of the bound fails for the given inputs."""


def _check_delta(delta, upper=1.0):
    if not 0 < delta < 1:
        raise PreconditionError(f"delta must lie in (0,1), got {delta}")
    if delta > upper:
        raise PreconditionError(f"delta must be <= {upper}, got {delta}")


def _check_n_vs_level(n, delta, need_ln2=True):
    big_l = math.log(1.0 / delta)
    if n < big_l:
        raise PreconditionError(
            f"need n >= ln(1/delta): n={n} < ln(1/delta)={big_l:.6g}")
    if need_ln2 and big_l < math.log(2.0) - 1e-12:
        raise PreconditionError(
            f"need ln(1/delta) >= ln 2: ln(1/delta)={big_l:.6g} < ln 2; "
            f"take delta <= 1/2")
    return big_l


def vector_bound_i(psi1_per_coord, delta) -> float:
    """Deviation of the norm of a sum of independent vectors at level delta:
    4e sqrt(sum psi1_k^2 L) + 4e max psi1_k L, with L = ln(1/delta)."""
    _check_delta(delta)
    entries = [float(x) for x in psi1_per_coord]
    if not entries:
        raise PreconditionError("psi1_per_coord must be nonempty")
    if any(x < 0 for x in entries):
        raise PreconditionError("psi1 entries must be nonnegative")
    big_l = math.log(1.0 / delta)
    v = math.fsum(x * x for x in entries)
    return 4.0 * E * math.sqrt(v * big_l) + 4.0 * E * max(entries) * big_l


def vector_bound_ii(psi1, n, delta) -> float:
    """Normalized iid deviation 8e psi1 sqrt(2 ln(1/delta) / n)."""
    if psi1 < 0:
        raise PreconditionError(f"psi1 must be nonnegative, got {psi1}")
    _check_delta(delta)
    big_l = _check_n_vs_level(n, delta)
    return 8.0 * E * psi1 * math.sqrt(2.0 * big_l / n)


def vector_bound_iii(l2p_centered, psi1, p, n, delta) -> float:
    """Moment-refined iid deviation:
    2 ||X1 - E X1'||_2p sqrt(2 L / n) + 4 e q psi1 L / n, q = p/(p-1)."""
    if l2p_centered < 0 or psi1 < 0:
        raise PreconditionError("norm inputs must be nonnegative")
    if p <= 1:
        raise PreconditionError(f"p must exceed 1, got {p}")
    if n < 1:
        raise PreconditionError(f"n must be positive, got {n}")
    _check_delta(delta, upper=0.5)
    big_l = math.log(1.0 / delta)
    q = p / (p - 1.0)
    return (2.0 * l2p_centered * math.sqrt(2.0 * big_l / n)
            + 4.0 * E * q * psi1 * big_l / n)


def psa_bound(psi2_of_norm, d, n, delta) -> float:
    """Uniform reconstruction-error deviation over rank-d subspaces:
    16 e (sqrt(d) + 1) psi2^2 sqrt(2 ln(2/delta) / n)."""
    if psi2_of_norm < 0:
        raise PreconditionError(f"psi2_of_norm must be nonnegative, got {psi2_of_norm}")
    if d < 1:
        raise PreconditionError(f"subspace dimension must be >= 1, got {d}")
    _check_delta(delta)
    _check_n_vs_level(n, delta)
    return (16.0 * E * (math.sqrt(d) + 1.0) * psi2_of_norm ** 2
            * math.sqrt(2.0 * math.log(2.0 / delta) / n))


def rademacher_generalization_bound(rad_expectation, lip, psi1_of_norm, n, delta) -> float:
    """Uniform deviation for an L-Lipschitz loss class:
    E[R] + 16 e L psi1 sqrt(ln(1/delta) / n)."""
    if lip < 0 or psi1_of_norm < 0:
        raise PreconditionError("L and psi1 must be nonnegative")
    _check_delta(delta)
    big_l = _check_n_vs_level(n, delta, need_ln2=False)
    return rad_expectation + 16.0 * E * lip * psi1_of_norm * math.sqrt(big_l / n)


def regression_bound(lip, psi1_x, psi1_z, n, delta) -> float:
    """Linear regression with unbounded data:
    (8 / sqrt(n)) (L psi1_X + psi1_Z) (1 + 2e sqrt(ln(1/delta)))."""
    if lip < 0 or psi1_x < 0 or psi1_z < 0:
        raise PreconditionError("norm inputs must be nonnegative")
    _check_delta(delta)
    big_l = _check_n_vs_level(n, delta, need_ln2=False)
    return (8.0 / math.sqrt(n)) * (lip * psi1_x + psi1_z) * (
        1.0 + 2.0 * E * math.sqrt(big_l))


def metric_tail(lip, diameters, t) -> TailBoundResult:
    """Tail for an L-Lipschitz function of independent metric coordinates:
    exp(-t^2 / (4 e L^2 sum D_k^2 + 2 e L max D_k t)).

    f/L is 1-Lipschitz, so this is the L = 1 bound at t/L, and L scales
    both terms of the denominator.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if lip < 0:
        raise PreconditionError(f"L must be nonnegative, got {lip}")
    vals = [d.value if isinstance(d, OrliczEstimate) else float(d) for d in diameters]
    if not vals:
        raise PreconditionError("diameters must be nonempty")
    if any(v < 0 for v in vals):
        raise PreconditionError("diameters must be nonnegative")
    ssq = math.fsum(v * v for v in vals)
    return _tail("metric", t, 4.0 * E * lip * lip * ssq, 2.0 * E * lip * max(vals))


# ---------------------------------------------------------------------------
# psi diameters for the scalar metric |x - y|

def psi_diameter(spec, alpha) -> OrliczEstimate:
    """Orlicz norm of |X - X'| for independent copies of the catalogue law.

    For an affine image a Y + b of a law Y with an `abs_difference_law()`
    (Gaussian, exponential, uniform, finite), |X - X'| = |a| |Y - Y'| and the
    diameter is |a| psi_norm of that law.  Other specs fall back to the
    centering bound ||X - X'|| <= 2 ||X - E X||, which keeps every downstream
    tail sound.  The value and the certified upper are the norm's, scaled by
    |a| (or 2 |a|), at the norm's p*; the method is the norm's, or
    "centering-bound" for the fallback.
    """
    form = dist.canonical(spec)
    base, a = ((form.base, form.linear_factor()) if isinstance(form, dist.Mapped)
               else (form, 1.0))
    if a is None:       # a square step: the wrappers of spec have no difference law
        base, a = spec, 1.0
    law = base.abs_difference_law()
    if law is None:
        est, scale, method = psi_norm(dist.Centered(base), alpha), abs(a) * 2.0, "centering-bound"
    else:
        est, scale = psi_norm(law, alpha), abs(a)
        method = est.method
    return OrliczEstimate(alpha, scale * est.value, est.p_star, method, scale * est.upper)
