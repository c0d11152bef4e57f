"""Sub-Gaussian and sub-exponential norms via the moment-ratio supremum.

The norms are defined as sup over p >= 1 of ||Z||_p / p^(1/alpha) with
alpha = 2 (sub-Gaussian) or alpha = 1 (sub-exponential).  phi(p) = ln E|Z|^p
is convex in p (Hoelder), so between two evaluated orders phi lies below its
chord, which bounds the ratio on the whole interval.  The search evaluates
every 4th point of a log-spaced p-grid and then bisects, one batched call
per round, each interval whose chord bound beats the best ratio by more
than 1e-12 in ln; the largest final bound is reported as `upper`.  The grid
ends at p = _P_MAX = 256 for every norm, and the tail beyond it is accepted
only when the ratio does not rise over the last octave of the evaluated
orders.  For a catalogue law the search reads the batched moments of
`distributions.log_abs_moments`, the one numeric path of every moment, and
reports the best ratio it read as the value.  Every psi norm of a law takes
this one path: a finite law is a FiniteSupport, with one exact log-sum-exp
over (p, value) as its batched moments; the length of an iid centered
Gaussian vector is a Chi law; and a psi diameter is psi_norm of the law's
`abs_difference_law()`.  No norm here is estimated from samples, so every
one may feed a tail bound.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist

__all__ = [
    "OrliczEstimate", "PMaxTooSmallError", "psi_norm", "psi_norm_finite",
    "conditional_contraction_check", "concentrated_variable_bounds", "mgf_bound_check",
]

E = math.e
_GRID_DENSITY = 16  # points of the p-grid per octave
_COARSE_STEP = 4    # the search starts on every 4th grid point
_CHORD_TOL = 1e-12  # ln-ratio by which a chord bound may exceed the best ratio
_MAX_ROUNDS = 24    # bisection rounds before the search gives up; 16 suffice
_P_MAX = 256.0      # the largest order of the p-grid
_P_GRID = np.exp(np.linspace(0.0, math.log(_P_MAX), int(math.log2(_P_MAX)) * _GRID_DENSITY + 1))


class PMaxTooSmallError(RuntimeError):
    """The moment ratio was still increasing at p = _P_MAX, the end of the p-grid."""


@dataclass(frozen=True)
class OrliczEstimate:
    alpha: int
    value: float
    p_star: float
    method: str
    upper: float    # certified bound on the supremum, never below value

    def to_dict(self):
        return {"alpha": self.alpha, "value": self.value, "upper": self.upper,
                "p_star": self.p_star, "method": self.method}


def _check_alpha(alpha):
    if alpha not in (1, 2):
        raise ValueError(f"alpha must be 1 or 2, got {alpha}")


def _chord_bounds(ps, phis, alpha):
    """For each interval [a, b] of consecutive orders, the maximum over it of
    u(p) = s + c/p - ln(p)/alpha, where s p + c is the chord of phi: at
    clamp(-alpha c, a, b) when c < 0, else at a."""
    a, b, fa = ps[:-1], ps[1:], phis[:-1]
    s = (phis[1:] - fa) / (b - a)
    c = fa - s * a
    q = np.where(c < 0, np.clip(-alpha * c, a, b), a)
    return (fa + s * (q - a)) / q - np.log(q) / alpha


def _sup_ratio(log_moments, alpha):
    """Maximize ln(||Z||_p / p^(1/alpha)) over [1, _P_MAX], with a certificate.

    log_moments maps an array of p to the array of phi(p) = ln E|Z|^p.  It
    is called once on every _COARSE_STEP-th point of _P_GRID and its
    last two, then once per round on the geometric midpoints of the
    intervals whose chord bound beats the best ratio by more than
    _CHORD_TOL.  16 rounds certify any data: where the bound peaks inside
    [a, b], it exceeds the larger end ratio by at most (b-a)^2 / (8 alpha a^2).
    Returns the best ratio, its p and the largest chord bound (-inf, 1.0,
    -inf when Z = 0).  Raises QuadratureError on a non-finite phi or when
    the rounds run out, PMaxTooSmallError when the ratio rises anywhere
    over the last octave of the evaluated orders.
    """
    ps = np.unique(np.concatenate([_P_GRID[::_COARSE_STEP], _P_GRID[-2:]]))
    phis = log_moments(ps)
    if np.all(phis == -math.inf):
        return -math.inf, 1.0, -math.inf
    for rounds in range(_MAX_ROUNDS + 1):
        bad = ~np.isfinite(phis)
        if bad.any():
            raise dist.QuadratureError(
                f"ln E|Z|^p is {phis[bad][0]} at p={float(ps[bad][0])!r}: no chord bound")
        ratios = phis / ps - np.log(ps) / alpha
        bounds = _chord_bounds(ps, phis, alpha)
        split = bounds > ratios.max() + _CHORD_TOL
        if not split.any():
            break
        if rounds == _MAX_ROUNDS:
            raise dist.QuadratureError(
                f"chord bounds still {bounds.max() - ratios.max():.3g} above the "
                f"best ln ratio after {rounds} bisection rounds")
        mids = np.sqrt(ps[:-1][split] * ps[1:][split])
        ps, phis = np.concatenate([ps, mids]), np.concatenate([phis, log_moments(mids)])
        order = np.argsort(ps)
        ps, phis = ps[order], phis[order]
    if np.any(np.diff(ratios[ps >= _P_MAX / 2 - 1e-9]) > 1e-9):
        raise PMaxTooSmallError(
            f"moment ratio still rises at p = {_P_MAX:g}, the end of the p-grid, "
            "so the norm is not certified")
    i = int(np.argmax(ratios))
    return ratios[i], float(ps[i]), max(ratios[i], bounds.max(initial=-math.inf))


def psi_norm(spec, alpha) -> OrliczEstimate:
    """psi_1 or psi_2 norm of a catalogue distribution.

    The chord search reads `log_abs_moments`: closed forms, or one fixed
    tanh-sinh rule for all p, which raises QuadratureError where its
    embedded error estimate exceeds 1e-5 in ln ||Z||_p.  The value is the
    best ratio the search read, at p*; `upper` is the largest final chord
    bound, and never below the value.  PMaxTooSmallError where the ratio
    still rises at p = _P_MAX.  Memoised on (spec, alpha), PMaxTooSmallError
    included.
    """
    _check_alpha(alpha)
    dist.validate(spec)
    est = _psi_norm_cached(spec, alpha)
    if isinstance(est, PMaxTooSmallError):
        raise PMaxTooSmallError(*est.args)
    return est


@functools.lru_cache(maxsize=4096)
def _psi_norm_cached(spec, alpha):
    method = "closed-form" if dist.finite_support(spec) is not None else "analytic-grid"
    try:
        best, p, top = _sup_ratio(lambda ps: dist.log_abs_moments(spec, ps), alpha)
    except PMaxTooSmallError as exc:
        return exc.with_traceback(None)
    if best == -math.inf:
        return OrliczEstimate(alpha, 0.0, p, method, 0.0)
    value = math.exp(best)
    return OrliczEstimate(alpha, value, p, method, max(value, math.exp(top)))


def psi_norm_finite(values, probs, alpha) -> OrliczEstimate:
    """psi norm of the finite law with these values and probabilities:
    `psi_norm` of their FiniteSupport, memoised like any catalogue law."""
    return psi_norm(dist.FiniteSupport(values, probs), alpha)


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


def mgf_bound_check(spec, beta):
    """MGF of a centered variable against exp(4e beta^2 psi_2^2).

    Returns (mgf, bound); the sub-Gaussian MGF bound asserts mgf <= bound.
    psi_2 is `psi_norm(spec, 2)`, memoised, so a beta sweep computes it once.
    """
    mu = dist.mean(spec)
    if abs(mu) > 1e-9:
        raise ValueError(f"spec must be centered, got mean {mu}")
    m = dist.mgf(spec, beta)
    bound = math.exp(4.0 * E * beta ** 2 * psi_norm(spec, 2).value ** 2)
    return m, bound
