"""Sub-Gaussian and sub-exponential norms via the moment-ratio supremum.

The norms are defined as sup over p >= 1 of ||Z||_p / p^(1/alpha) with
alpha = 2 (sub-Gaussian) or alpha = 1 (sub-exponential).  phi(p) = ln E|Z|^p
is convex in p (Hoelder), so between two evaluated orders phi lies below its
chord, which bounds the ratio on the whole interval.  The search evaluates
the octaves of a log-spaced p-grid and the quarter octaves of its last
octave, and then splits, one batched call per round, each interval whose
chord bound beats the best ratio by more than 1e-12 in ln, at its
geometric midpoint and at the bound's own maximiser; the largest final
bound, rounded up, is `upper`.  The grid ends at p = _P_MAX = 256 for every
norm, and the tail beyond it is accepted only when the ratio does not rise
over the last octave of the evaluated orders.  For a catalogue law the
search reads the batched moments of
`distributions.log_abs_moments`, the one numeric path of every moment,
through its memo of rows, and reports the best ratio it read as the
value.  The norm is homogeneous, ||aZ|| = |a| ||Z|| at the same p*, so the
search runs on the standard law of `distributions.standard_form` and is
memoised on (standard law, alpha): Gaussians of any sd, centered uniforms
of any width, centered affine images of an exponential, chi-squared or
Poisson law, centered squares of N(0, sd), Chi laws of any sd and
UniformGap laws of any width each read one search per shape, scaled, with
the upper widened by the rounding of the moments, at scale 1 too.  Every
psi norm of a law takes this one path: a finite law is a FiniteSupport,
with one exact log-sum-exp over (p, value) as its batched moments; the
length of an iid centered Gaussian vector is a Chi law; and a psi diameter
is s psi_norm(Z.abs_difference_law()) for the standard form s Z of X - E X.
No norm here is estimated from samples, so every one may feed a tail bound.
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
_CHORD_TOL = 1e-12  # ln-ratio by which a chord bound may exceed the best ratio
_MAX_ROUNDS = 24    # splitting rounds before the search gives up; 18 suffice
_P_MAX = 256.0      # the largest order of the p-grid
# 2^(j/16) for j = 0, ..., 15, each the float nearest to it (a test proves
# it in exact arithmetic); exact powers of two scale them to the octaves of
# the p-grid 2^(i/16), i = 0, ..., 128, without a libm or SIMD exp2 call
_OCTAVE = tuple(map(float.fromhex, (
    "0x1.0000000000000p+0", "0x1.0b5586cf9890fp+0", "0x1.172b83c7d517bp+0", "0x1.2387a6e756238p+0",
    "0x1.306fe0a31b715p+0", "0x1.3dea64c123422p+0", "0x1.4bfdad5362a27p+0", "0x1.5ab07dd485429p+0",
    "0x1.6a09e667f3bcdp+0", "0x1.7a11473eb0187p+0", "0x1.8ace5422aa0dbp+0", "0x1.9c49182a3f090p+0",
    "0x1.ae89f995ad3adp+0", "0x1.c199bdd85529cp+0", "0x1.d5818dcfba487p+0", "0x1.ea4afa2a490dap+0")))
_P_GRID = np.array([math.ldexp(x, k) for k in range(int(math.log2(_P_MAX))) for x in _OCTAVE]
                   + [_P_MAX])
# the search's first orders: the octaves 1, 2, 4, ..., 256, every 4th grid
# point of the last octave and the grid's last but one point
_START = np.unique(np.concatenate([
    _P_GRID[::_GRID_DENSITY], _P_GRID[-_GRID_DENSITY - 1::4], _P_GRID[-2:]]))
_START.setflags(write=False)    # every search passes it to log_moments


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
    u(p) = s + c/p - ln(p)/alpha, where s p + c is the chord of phi, and
    its maximiser: clamp(-alpha c, a, b) when c < 0, else a."""
    a, b, fa = ps[:-1], ps[1:], phis[:-1]
    s = (phis[1:] - fa) / (b - a)
    c = fa - s * a
    q = np.where(c < 0, np.minimum(np.maximum(-alpha * c, a), b), a)
    return (fa + s * (q - a)) / q - np.log(q) / alpha, q


def _sup_ratio(log_moments, alpha):
    """Maximize ln(||Z||_p / p^(1/alpha)) over [1, _P_MAX], with a certificate.

    log_moments maps an array of p to the array of phi(p) = ln E|Z|^p.  It
    is called once on the 13 orders of _START, then once per round on the
    intervals whose chord bound beats the best ratio by more than
    _CHORD_TOL: at the geometric midpoint of each, and at the chord bound's
    maximiser where that lies strictly inside (Piyavskii-Shubert), which is
    p* itself for a linear phi.  Where the bound peaks inside [a, b], it
    exceeds the larger end ratio by at most (b-a)^2 / (8 alpha a^2); every
    split at least halves an interval in ln p, and a start interval is at
    most an octave wide, so 18 rounds certify any data.  Returns the best
    ratio, its p and the largest chord bound (-inf, 1.0, -inf when Z = 0).
    Raises QuadratureError on a non-finite phi or when the rounds run out,
    PMaxTooSmallError when the ratio rises anywhere over the last octave
    of the evaluated orders.
    """
    ps = _START
    phis = log_moments(ps)
    if (phis == -math.inf).all():
        return -math.inf, 1.0, -math.inf
    for rounds in range(_MAX_ROUNDS + 1):
        bad = ~np.isfinite(phis)
        if bad.any():
            raise dist.QuadratureError(
                f"ln E|Z|^p is {phis[bad][0]} at p={float(ps[bad][0])!r}: no chord bound")
        ratios = phis / ps - np.log(ps) / alpha
        bounds, peaks = _chord_bounds(ps, phis, alpha)
        split = bounds > ratios.max() + _CHORD_TOL
        if not split.any():
            break
        if rounds == _MAX_ROUNDS:
            raise dist.QuadratureError(
                f"chord bounds still {bounds.max() - ratios.max():.3g} above the "
                f"best ln ratio after {rounds} bisection rounds")
        a, b, q = ps[:-1][split], ps[1:][split], peaks[split]
        new = np.concatenate([np.sqrt(a * b), q[(a < q) & (q < b)]])
        new.sort()      # and each order once, as np.unique gives them
        new = new[np.concatenate([[True], new[1:] != new[:-1]])]
        ps, phis = np.concatenate([ps, new]), np.concatenate([phis, log_moments(new)])
        order = np.argsort(ps)
        ps, phis = ps[order], phis[order]
    last = ratios[ps >= _P_MAX / 2 - 1e-9]
    if (last[1:] - last[:-1] > 1e-9).any():
        raise PMaxTooSmallError(
            f"the moment ratio still rises at p = {_P_MAX:g}, the end of the p-grid")
    i = int(np.argmax(ratios))
    return ratios[i], float(ps[i]), max(ratios[i], bounds.max(initial=-math.inf))


def psi_norm(spec, alpha) -> OrliczEstimate:
    """psi_1 or psi_2 norm of a catalogue distribution.

    The chord search reads `log_abs_moments`: closed forms, or one fixed
    tanh-sinh rule for all p, which raises QuadratureError where its
    embedded error estimate exceeds 1e-5 in ln ||Z||_p.  The value is the
    best ratio the search read, at p*.  PMaxTooSmallError, naming the spec
    and alpha, where the ratio still rises at p = _P_MAX, a SpecError where
    the norm is past the largest float.  The search runs on the standard law s Z of
    `distributions.standard_form(spec)` and is memoised on (standard law,
    alpha), PMaxTooSmallError included; the value is s times the standard
    law's, at its p*.  At every s, 1 included, `upper` is s times the
    standard law's largest final chord bound, rounded up and widened by
    _READ_ROUNDING, so that it also bounds every ratio read from the law's
    own moments (p ln s + ln E|Z|^p, or its own closed form), or from Z's
    at orders the search did not read; it is never below the value.
    """
    _check_alpha(alpha)
    dist.validate(spec)
    scale, standard = dist.standard_form(spec)
    est = _psi_norm_cached(standard, alpha)
    if isinstance(est, PMaxTooSmallError):
        raise PMaxTooSmallError(f"the psi{alpha} norm of {spec} is not certified: {est}")
    value, upper = scale * est.value, _scaled_upper(est.upper, scale)
    if value == math.inf:
        raise dist.SpecError(f"the psi{alpha} norm of {spec} is past the largest float")
    if 0.0 < upper < math.inf:
        slack = _READ_ROUNDING * (abs(math.log(scale)) + abs(math.log(upper)) + math.log(_P_MAX) + 1.0)
        upper = math.nextafter(upper * (1.0 + slack), math.inf)
    return OrliczEstimate(est.alpha, value, est.p_star, est.method, upper)


# The relative rounding, per unit of |ln s| + |ln ratio| + ln p_max + 1, of a
# ratio ln(||sZ||_p / p^(1/alpha)) read in floats from the moments of s Z, or
# of Z at an order the search did not read: every upper, at s = 1 too, is
# widened by it.  Over 400 scaled laws (scales to 1e+-300) the largest excess
# over s times the standard upper was a third of it.
_READ_ROUNDING = 4 * 2.0 ** -53


def scaled_estimate(est, scale, method=None) -> OrliczEstimate:
    """est for scale times its variable: the value times scale, the upper
    times scale and then the next float up, the same p*; the method is
    est's unless given.  A product rounds to within half an ulp of the
    exact one, also when it underflows or overflows, so the next float up
    is not below it; the upper 0 of the zero variable stays 0."""
    return OrliczEstimate(est.alpha, scale * est.value, est.p_star, method or est.method,
                          _scaled_upper(est.upper, scale))


def _scaled_upper(upper, scale):
    return math.nextafter(scale * upper, math.inf) if upper else 0.0


@functools.lru_cache(maxsize=4096)
def _psi_norm_cached(spec, alpha):
    method = "closed-form" if isinstance(dist.canonical(spec), dist.FiniteSupport) else "analytic-grid"
    try:
        best, p, top = _sup_ratio(lambda ps: dist.log_abs_moments(spec, ps), alpha)
    except PMaxTooSmallError as exc:
        return exc.with_traceback(None)
    if best == -math.inf:
        return OrliczEstimate(alpha, 0.0, p, method, 0.0)
    value = dist._exp(best, "the psi{} norm of {}", alpha, spec)
    return OrliczEstimate(alpha, value, p, method,
                          max(value, dist._exp(top, "the psi{} norm of {}", alpha, spec)))


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
    """MGF of X - E X against exp(4e beta^2 psi_2^2), for X of law spec.

    Returns (mgf, bound); the sub-Gaussian MGF bound asserts mgf <= bound.
    Both read `dist.Centered(spec)`, the one centering rule: the MGF of
    X - E X does not change when X is shifted, so the check on an
    uncentered law is the check on its centered law.  psi_2 is
    `psi_norm`, memoised, so a beta sweep computes it once.  A bound past
    the largest float is a SpecError that names spec and beta.
    """
    centered = dist.Centered(spec)
    m = dist.mgf(centered, beta)
    try:
        bound = math.exp(4.0 * E * beta ** 2 * psi_norm(centered, 2).value ** 2)
    except OverflowError:
        raise dist.SpecError(f"the sub-Gaussian MGF bound of {spec} at beta={float(beta)!r} "
                             "overflows a float") from None
    return m, bound
