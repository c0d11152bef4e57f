"""Sub-Gaussian and sub-exponential norms via the moment-ratio supremum.

The norms are defined as sup over p >= 1 of ||Z||_p / p^(1/alpha) with
alpha = 2 (sub-Gaussian) or alpha = 1 (sub-exponential).  The supremum is
searched on a log-spaced grid of p and refined locally by a bounded scalar
minimisation; the tail beyond p_max is accepted only when the ratio is
nonincreasing over the last octave, which holds for every catalogue
distribution.  For a catalogue law the search reads the batched moments of
`distributions.log_abs_moments`, one fixed-rule pass over the whole grid,
and the value reported is certified by the adaptive `log_abs_moment` at the
maximiser p*.  Every psi norm of a law takes this one path: a finite law is
a FiniteSupport, with one exact log-sum-exp over (p, value) as its batched
moments; the length of an iid centered Gaussian vector is a Chi law; and a
psi diameter is psi_norm of the law's `abs_difference_law()`.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import distributions as dist

__all__ = [
    "OrliczEstimate", "PMaxTooSmallError", "psi_norm", "psi_norm_finite",
    "psi_norm_empirical", "centering_bound", "conditional_contraction_check",
    "concentrated_variable_bounds", "square_psi1_from_psi2", "mgf_bound_check",
]

E = math.e
_GRID_DENSITY = 16  # points of the p-grid per octave


class PMaxTooSmallError(RuntimeError):
    """The moment ratio was still increasing at p_max."""


@dataclass(frozen=True)
class OrliczEstimate:
    alpha: int
    value: float
    p_star: float
    method: str

    def to_dict(self):
        return {"alpha": self.alpha, "value": self.value,
                "p_star": self.p_star, "method": self.method}


def _check_alpha(alpha):
    if alpha not in (1, 2):
        raise ValueError(f"alpha must be 1 or 2, got {alpha}")


def _p_grid(p_max):
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    octaves = math.log2(p_max) if p_max > 1 else 1.0
    n = max(2, int(math.ceil(octaves * _GRID_DENSITY)) + 1)
    return np.exp(np.linspace(0.0, math.log(p_max), n))


def _sup_ratio(log_lp, alpha, p_max):
    """Maximize ln(||Z||_p / p^(1/alpha)) over [1, p_max].

    log_lp maps an array of p to the array of ln ||Z||_p; the grid is one
    call and each refinement step a call with one p.  Returns the maximum
    and the maximiser p* (-inf and 1.0 when Z = 0); raises
    PMaxTooSmallError when the last octave is still increasing.
    """
    grid = _p_grid(p_max)

    def log_ratio(p):
        return float(log_lp(np.array([p]))[0]) - math.log(p) / alpha

    # math.log per p, as in log_ratio, so that grid and refinement agree
    ratios = log_lp(grid) - np.array([math.log(p) for p in grid]) / alpha
    if np.all(ratios == -math.inf):
        return -math.inf, 1.0

    tail = ratios[grid >= p_max / 2 - 1e-9]
    if np.any(np.diff(tail) > 1e-9):
        raise PMaxTooSmallError(
            f"moment ratio still increasing at p_max={p_max}; p_max too small")

    i = int(np.argmax(ratios))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    best_lr, best_p = ratios[i], grid[i]
    if hi > lo:
        res = optimize.minimize_scalar(
            lambda t: -log_ratio(math.exp(t)),
            bounds=(math.log(lo), math.log(hi)), method="bounded",
            options={"xatol": 1e-12})
        if -res.fun > best_lr:
            best_lr, best_p = -res.fun, math.exp(res.x)
    return best_lr, float(best_p)


def psi_norm(spec, alpha, p_max=256.0) -> OrliczEstimate:
    """psi_1 or psi_2 norm of a catalogue distribution.

    The grid search and its refinement read `log_abs_moments`: closed forms,
    or one fixed tanh-sinh rule for all p.  The value reported is the
    adaptive `log_abs_moment` at the maximiser p*; if it differs from the
    fixed rule by more than 1e-9 in ln(ratio), QuadratureError is raised.
    Memoised on (spec, alpha, p_max), PMaxTooSmallError included.
    """
    _check_alpha(alpha)
    dist.validate(spec)
    est = _psi_norm_cached(spec, alpha, p_max)
    if isinstance(est, PMaxTooSmallError):
        raise PMaxTooSmallError(*est.args)
    return est


@functools.lru_cache(maxsize=4096)
def _psi_norm_cached(spec, alpha, p_max):
    method = "closed-form" if dist.finite_support(spec) is not None else "analytic-grid"
    try:
        best, p = _sup_ratio(lambda ps: dist.log_abs_moments(spec, ps) / ps, alpha, p_max)
    except PMaxTooSmallError as exc:
        return exc.with_traceback(None)
    if best == -math.inf:
        return OrliczEstimate(alpha, 0.0, p, method)
    log_ratio = dist.log_abs_moment(spec, p) / p - math.log(p) / alpha
    gap = abs(log_ratio - best)
    if not gap <= 1e-9:
        raise dist.QuadratureError(
            f"psi norm of {spec}: the fixed rule and adaptive quadrature differ "
            f"by {gap:.3g} in ln(ratio) at p*={p!r}")
    return OrliczEstimate(alpha, math.exp(log_ratio), p, method)


def psi_norm_finite(values, probs, alpha) -> OrliczEstimate:
    """psi norm of the finite law with these values and probabilities:
    `psi_norm` of their FiniteSupport, memoised like any catalogue law."""
    return psi_norm(dist.FiniteSupport(values, probs), alpha)


def psi_norm_empirical(samples, alpha, p_max=10.0) -> OrliczEstimate:
    """Plug-in psi norm from samples.

    High empirical moments are dominated by the sample maximum and are
    downward biased; p_max may not exceed ln(sample count).
    """
    _check_alpha(alpha)
    samples = np.asarray(samples, dtype=float).ravel()
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample array")
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    if p_max > math.log(n):
        raise ValueError(
            f"p_max={p_max} exceeds ln(sample count)={math.log(n):.3f}; "
            "higher empirical moments are unreliable")
    warnings.warn("empirical psi norms are downward-biased at high p",
                  stacklevel=2)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(samples))
    log_abs = log_abs[np.isfinite(log_abs)]
    log_n = math.log(n)
    grid = _p_grid(p_max)
    lrs = np.array([(dist._logsumexp(p * log_abs) - log_n) / p - math.log(p) / alpha
                    for p in grid])
    i = int(np.argmax(lrs))
    return OrliczEstimate(alpha, math.exp(lrs[i]), float(grid[i]), "empirical")


def centering_bound(psi_value: float) -> float:
    """Norm bound for the centered variable: twice the uncentered norm."""
    if psi_value < 0:
        raise ValueError(f"psi_value must be nonnegative, got {psi_value}")
    return 2.0 * psi_value


def conditional_contraction_check(marginal, phi, alpha):
    """Conditioning contracts the psi norm: returns (lhs, rhs), lhs <= rhs.

    `marginal` is the FiniteSupport of iid X, X'; `phi` is a square value
    table phi[s, t] over its values in the order given.  lhs is the psi
    norm of E[phi(X, X')|X], rhs the psi norm of phi(X, X') on the product
    space.
    """
    dist._instance(marginal, "marginal", dist.FiniteSupport, "FiniteSupport")
    # normalised, so that the pair law sums to 1 within 1e-12 whenever the
    # marginal does
    probs = np.array(marginal.probs) / math.fsum(marginal.probs)
    phi = np.asarray(phi, dtype=float)
    m = len(probs)
    if phi.shape != (m, m):
        raise ValueError(
            f"phi must be a square {m}x{m} table, got shape {phi.shape}")
    cond_mean = phi @ probs
    lhs = psi_norm_finite(cond_mean, probs, alpha).value
    joint_p = np.outer(probs, probs).ravel()
    rhs = psi_norm_finite(phi.ravel(), joint_p, alpha).value
    return lhs, rhs


def concentrated_variable_bounds(eps: float):
    """Norm bounds for a centered variable with |X|<=1, Pr{|X|>eps}<=eps.

    Returns (lp_bound, psi1_bound) with lp_bound(p) = 2*eps^(1/p) and
    psi1_bound = 2/(e*ln(1/eps)).
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")

    def lp_bound(p):
        return 2.0 * eps ** (1.0 / p)

    psi1_bound = 2.0 / (E * math.log(1.0 / eps))
    return lp_bound, psi1_bound


def square_psi1_from_psi2(psi2_value: float) -> float:
    """psi_1 bound for the square of a sub-Gaussian variable."""
    if psi2_value < 0:
        raise ValueError(f"psi2_value must be nonnegative, got {psi2_value}")
    return 2.0 * psi2_value ** 2


def mgf_bound_check(spec, beta, psi2_value=None):
    """MGF of a centered variable against exp(4e beta^2 psi_2^2).

    Returns (mgf, bound); the sub-Gaussian MGF bound asserts mgf <= bound.
    psi2_value may be passed to avoid recomputing the norm across a beta
    sweep.
    """
    mu = dist.mean(spec)
    if abs(mu) > 1e-9:
        raise ValueError(f"spec must be centered, got mean {mu}")
    if psi2_value is None:
        psi2_value = psi_norm(spec, 2).value
    m = dist.mgf(spec, beta)
    bound = math.exp(4.0 * E * beta ** 2 * psi2_value ** 2)
    return m, bound
