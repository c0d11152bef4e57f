"""Sub-Gaussian and sub-exponential norms via the moment-ratio supremum.

The norms are defined as sup over p >= 1 of ||Z||_p / p^(1/alpha) with
alpha = 2 (sub-Gaussian) or alpha = 1 (sub-exponential).  phi(p) = ln E|Z|^p
is convex in p (Hoelder), so between two evaluated orders phi lies below its
chord, which bounds the ratio on the whole interval.  The search evaluates
the octaves of a log-spaced p-grid and the quarter octaves of its last
octave, and then splits, one batched call per round, each interval whose
chord bound beats the best ratio by more than 1e-12 in ln, at its
geometric midpoint and at the bound's own maximiser; the largest final
bound, rounded up, is `upper`.  A law with a certified bound T(p0) on the
ratio at every p >= p0 (`_tail_bounds`: its bounded support, or at alpha =
1 its closed-form MGF) ends the search at p0 = 8 (or, at alpha = 2, 16)
where T(p0) is not above the best ratio read.  Every other search reads
the octaves up to p = _P_MAX = 256, and the tail beyond it is accepted
only when the ratio does not rise over the last octave of the evaluated
orders.  For a catalogue law the search reads the batched moments of
`distributions.log_abs_moments`, the one numeric path of every moment,
through the moment rows of the law's record (`distributions._law`), and
reports the best ratio it read as the value.  The norm is homogeneous,
||aZ|| = |a| ||Z|| at the same p*, so the search runs on the standard law
of `distributions.standard_form`, and its estimate is kept per alpha in
that law's record: Gaussians of any sd, centered uniforms
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
# the orders p0 = _START[3], _START[4], ... at which a tail bound may end a
# search, and so the octaves its first call reads: 8 at alpha = 1, and 8 or
# 16 at alpha = 2, where ln(p0) / alpha falls half as fast and 8 less often
# suffices
_P0 = {1: (8.0,), 2: (8.0, 16.0)}
_LOG_GAMMA_9 = math.lgamma(9.0) / 8.0     # ln Gamma(p0 + 1) / p0 at p0 = 8
# the MGF arguments of a tail bound, c / K for K the best ratio read, tried
# in turn until one bounds the ratio past 8 by K: any lambda > 0 gives a
# valid bound, and c near 0.65 suits exponential, Poisson and Gaussian tails
_LAMBDAS = (0.65, 0.55, 0.8)
# the outward margin of a tail bound, per unit of 1 + the sum of its terms'
# magnitudes: it covers the rounding of its logs and of the closed-form MGF
_TAIL_MARGIN = 2.0 ** -30


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


def _chord_bounds(ps, phis, logs, alpha, known):
    """For each interval [a, b] of consecutive orders, the maximum over it of
    u(p) = s + c/p - ln(p)/alpha, where s p + c is the chord of phi, and
    its maximiser: clamp(-alpha c, a, b) when c < 0, else a.  ps, phis and
    logs (ln(p) / alpha at each p) are lists; an interval whose left end
    `known` maps to (b, bound, maximiser) takes that entry, and each new
    one is added to it.  The floats are numpy's for the same operations,
    with ln of an inner maximiser by one np.log call."""
    bounds, peaks, inner = [], [], []
    for i in range(len(ps) - 1):
        a, b = ps[i], ps[i + 1]
        hit = known.get(a)
        if hit is not None and hit[0] == b:
            bounds.append(hit[1])
            peaks.append(hit[2])
            continue
        fa = phis[i]
        s = (phis[i + 1] - fa) / (b - a)
        c = fa - s * a
        q = min(max(-alpha * c, a), b) if c < 0 else a
        bounds.append((fa + s * (q - a)) / q)
        peaks.append(q)
        if q == a or q == b:
            bounds[-1] -= logs[i] if q == a else logs[i + 1]
            known[a] = (b, bounds[-1], q)
        else:
            inner.append(i)
    if inner:
        for i, lg in zip(inner, (np.log([peaks[i] for i in inner]) / alpha).tolist()):
            bounds[i] -= lg
            known[ps[i]] = (ps[i + 1], bounds[i], peaks[i])
    return bounds, peaks


# the orders of _START as floats, and ln(p) / alpha at each, as np.log and
# the division give them on any batch of orders
_START_PS = _START.tolist()
_START_LOGS = {alpha: (np.log(_START) / alpha).tolist() for alpha in (1, 2)}
_HEAD = {alpha: _START[:3 + len(p0)] for alpha, p0 in _P0.items()}    # the first call's orders


def _sup_ratio(log_moments, alpha, tail_bounds=None):
    """Maximize ln(||Z||_p / p^(1/alpha)) over p >= 1, with a certificate.

    log_moments maps an array of p to the array of phi(p) = ln E|Z|^p.
    Without tail_bounds it is called once on the 13 orders of _START, then
    once per round on the intervals whose chord bound beats the best ratio
    by more than _CHORD_TOL: at the geometric midpoint of each, and at the
    chord bound's maximiser where that lies strictly inside
    (Piyavskii-Shubert), which is p* itself for a linear phi.  Where the
    bound peaks inside [a, b], it exceeds the larger end ratio by at most
    (b-a)^2 / (8 alpha a^2); every split at least halves an interval in ln
    p, and a start interval is at most an octave wide, so 18 rounds certify
    any data.  Returns the best ratio, its p and the largest chord bound
    (-inf, 1.0, -inf when Z = 0).  Raises QuadratureError on a non-finite
    phi or when the rounds run out, PMaxTooSmallError when the ratio rises
    anywhere over the last octave of the evaluated orders.

    tail_bounds, where given, maps the best ratio read to T(p0) for each
    p0 of _P0[alpha], T(p0) at least the ratio at every p >= p0
    (`_tail_bounds`).  The first call then reads _START up to the last p0.
    At the first p0 whose T(p0) is not above the best ratio read, the
    rounds refine [1, p0] only, and the largest bound returned counts
    T(p0); no last-octave test runs.  Where every T is above it, one call
    reads the rest of _START and the search goes on as without
    tail_bounds.  Every ratio the full search reads past p0 is at most
    T(p0), so its rounds split [1, p0] as these do: the best ratio, p* and
    chord bounds on [1, p0] are the full search's.

    The search keeps its orders, phis, ln(p) / alpha and ratios as float
    lists, sorted by p, and the chord bound of each interval from the round
    that made it: on a few orders, numpy's call overhead is most of the
    work, and float arithmetic gives the bits numpy gives.
    """
    n = len(_START) if tail_bounds is None else 3 + len(_P0[alpha])
    ps, logs = _START_PS[:n], _START_LOGS[alpha][:n]
    phis = log_moments(_START if tail_bounds is None else _HEAD[alpha]).tolist()
    if all(phi == -math.inf for phi in phis):
        return -math.inf, 1.0, -math.inf
    _check_finite(ps, phis)
    ratios = [phi / p - lg for phi, p, lg in zip(phis, ps, logs)]
    tail = None
    if tail_bounds is not None:
        best = max(ratios)
        for end, t in enumerate(tail_bounds(best), 4):     # _START[:4] ends at 8
            if t <= best:
                tail = t
                del ps[end:], phis[end:], logs[end:], ratios[end:]
                break
        else:
            more = log_moments(_START[n:]).tolist()
            _check_finite(_START_PS[n:], more)
            ps += _START_PS[n:]
            logs += _START_LOGS[alpha][n:]
            ratios += [phi / p - lg for phi, p, lg in zip(more, _START_PS[n:], _START_LOGS[alpha][n:])]
            phis += more
    known = {}
    for rounds in range(_MAX_ROUNDS + 1):
        bounds, peaks = _chord_bounds(ps, phis, logs, alpha, known)
        best = max(ratios)
        split = [i for i, u in enumerate(bounds) if u > best + _CHORD_TOL]
        if not split:
            break
        if rounds == _MAX_ROUNDS:
            raise dist.QuadratureError(
                f"chord bounds still {max(bounds) - best:.3g} above the "
                f"best ln ratio after {rounds} bisection rounds")
        new = {math.sqrt(ps[i] * ps[i + 1]) for i in split}
        new.update(peaks[i] for i in split if ps[i] < peaks[i] < ps[i + 1])
        new = sorted(new)       # each order once, in order
        batch = np.array(new)
        new_phis = log_moments(batch).tolist()
        _check_finite(new, new_phis)
        new_logs = (np.log(batch) / alpha).tolist()
        new_ratios = [phi / p - lg for phi, p, lg in zip(new_phis, new, new_logs)]
        rows = sorted(zip(ps + new, phis + new_phis, logs + new_logs, ratios + new_ratios))
        ps, phis, logs, ratios = map(list, zip(*rows))
    if tail is None:
        last = [r for p, r in zip(ps, ratios) if p >= _P_MAX / 2 - 1e-9]
        if any(b - a > 1e-9 for a, b in zip(last, last[1:])):
            raise PMaxTooSmallError(
                f"the moment ratio still rises at p = {_P_MAX:g}, the end of the p-grid")
    top = max(best, max(bounds, default=-math.inf))    # best: the last round's max(ratios)
    return best, ps[ratios.index(best)], top if tail is None else max(top, tail)


def _check_finite(ps, phis):
    for p, phi in zip(ps, phis):
        if not math.isfinite(phi):
            raise dist.QuadratureError(f"ln E|Z|^p is {phi} at p={p!r}: no chord bound")


def _tail_bounds(law, alpha):
    """For the record of a scalar law (`distributions._law`), a function of
    the best ln ratio read that gives T(p0) for each p0 of _P0[alpha],
    T(p0) >= ln(||Z||_p / p^(1/alpha)) at every p >= p0, or None where
    there is none here (or Z = 0).  Each T is rounded outward by
    _TAIL_MARGIN.

    - A bounded support, |Z| <= M: T(p0) = ln M - ln(p0) / alpha, with M
      an end of the canonical form's primitive's support walked outward
      through its steps.
    - At alpha = 1, a closed-form MGF (no square step, a primitive with an
      `mgf`): E|Z|^p <= Gamma(p+1) lambda^-p E e^(lambda |Z|), and
      E e^(lambda |Z|) <= mgf(lambda) + mgf(-lambda) = S, so T(p0) =
      (ln S + ln Gamma(p0+1)) / p0 - ln lambda - ln p0 at p0 = 8, the
      least over the lambda = c / K of _LAMBDAS.  It bounds every p >= p0
      as S >= 1 and Gamma(p+1)^(1/p) / p is nonincreasing.
    """
    base, steps = dist._chain(law.form)
    lo, hi = base.support()
    if max(-lo, hi) == math.inf:    # and so are its images under the steps
        if alpha != 1 or type(base).mgf is dist.Distribution.mgf or any(op == "square" for op, _ in steps):
            return None
    else:
        for op, c in steps:
            lo, hi = _outward(op, c, lo, hi)
        m = max(-lo, hi)
        if not m > 0.0:     # Z = 0, which the first call reads
            return None
        bounds = [_outward_sum(math.log(m), -math.log(p0) / alpha) for p0 in _P0[alpha]]
        return lambda best: bounds
    form = law.form

    def mgf_bounds(best):
        t = math.inf
        for c in _LAMBDAS:
            log_lam = math.log(c) - best
            try:        # lambda past the MGF's domain, or overflowing
                lam = math.exp(log_lam)
                s = dist._mgf(form, lam) + dist._mgf(form, -lam)
            except (OverflowError, NotImplementedError, dist.MomentDivergenceError):
                continue
            t = min(t, _outward_sum(math.log(s) / 8.0, _LOG_GAMMA_9, -log_lam, -math.log(8.0)))
            if t <= best:
                break
        return (t,)
    return mgf_bounds


def _outward(op, c, lo, hi):
    """An interval that holds the image of [lo, hi] under one map step,
    exactly and in floats: each end is rounded to nearest, then moved one
    float outward."""
    if op == "shift":
        lo, hi = lo + c, hi + c
    elif op == "scale":
        lo, hi = sorted((c * lo, c * hi))
    else:
        lo, hi = (0.0 if lo < 0.0 < hi else min(lo * lo, hi * hi)), max(lo * lo, hi * hi)
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _outward_sum(*terms):
    """The sum of terms, widened by _TAIL_MARGIN per unit of 1 + their
    magnitudes: above the exact sum of the values they round."""
    return sum(terms) + _TAIL_MARGIN * (1.0 + sum(map(abs, terms)))


def psi_norm(spec, alpha) -> OrliczEstimate:
    """psi_1 or psi_2 norm of a catalogue distribution.

    The chord search reads `log_abs_moments`: closed forms, or one fixed
    tanh-sinh rule for all p, which raises QuadratureError where its
    embedded error estimate exceeds 1e-5 in ln ||Z||_p.  The value is the
    best ratio the search read, at p*.  PMaxTooSmallError, naming the spec
    and alpha, where the ratio still rises at p = _P_MAX, a SpecError where
    the norm is past the largest float.  The search runs on the standard law s Z of
    `distributions.standard_form(spec)`, and its outcome, PMaxTooSmallError
    included, is kept in that law's record per alpha; the value is s times
    the standard law's, at its p*.  At every s, 1 included, `upper` is s times the
    standard law's largest final chord bound, rounded up and widened by
    _READ_ROUNDING, so that it also bounds every ratio read from the law's
    own moments (p ln s + ln E|Z|^p, or its own closed form), or from Z's
    at orders the search did not read; it is never below the value.
    """
    _check_alpha(alpha)
    dist.validate(spec)
    scale, standard = dist.standard_form(spec)
    law = dist._law(standard)
    est = law.psi.get(alpha)
    dist._law_counts["searches" if est is None else "hits"] += 1
    if est is None:     # kept, a PMaxTooSmallError too; no other error is
        law.psi[alpha] = est = _search(law, alpha)
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


def _search(law, alpha):
    """The psi estimate of a record's law, or the PMaxTooSmallError raised."""
    method = "closed-form" if isinstance(law.form, dist.FiniteSupport) else "analytic-grid"
    try:
        best, p, top = _sup_ratio(law.log_moments, alpha, _tail_bounds(law, alpha))
    except PMaxTooSmallError as exc:
        return exc.with_traceback(None)
    if best == -math.inf:
        return OrliczEstimate(alpha, 0.0, p, method, 0.0)
    value = dist._exp(best, "the psi{} norm of {}", alpha, law.spec)
    return OrliczEstimate(alpha, value, p, method,
                          max(value, dist._exp(top, "the psi{} norm of {}", alpha, law.spec)))


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
