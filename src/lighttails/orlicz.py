"""Sub-Gaussian and sub-exponential norms via the moment-ratio supremum.

The norms are sup over p >= 1 of ||Z||_p / p^(1/alpha), alpha = 2
(sub-Gaussian) or 1 (sub-exponential).  phi(p) = ln E|Z|^p is convex in p
(Hoelder), so a chord of phi bounds the ratio between two orders read.  The
search reads octaves of a p-grid, splits the intervals whose chord bound
beats the best ratio, and ends only at a certified tail T(p0) past p0 = 8,
16 or 256 (`_tail_bound`), or at a proof that the norm is infinite:
- a bounded support |Z| <= M gives T(p0) = ln M - ln(p0) / alpha;
- an exponential moment S >= E exp(lambda |Z|^a), a >= alpha, gives T(p0)
  = (ln S + ln Gamma(p0/a + 1)) / p0 - ln(lambda) / a - ln(p0) / alpha;
- each map step moves T by its own rule (`distributions._Step`): a scale
  c adds ln|c|, a shift b its Minkowski term |b| p0^(-1/alpha), and a
  square reads its base at 2 p0 and 2 alpha, T = 2 T_Y + ln(2) / alpha;
- an unbounded family states its largest alpha with a finite norm, which
  each square step halves: below alpha, the norm is infinite.
The search reads the moment rows of the law's record (`distributions._law`)
and runs on its standard form (`distributions.standard_form`), as ||aZ|| =
|a| ||Z|| at the same p*; the record keeps the estimate, never an error.
No norm here is estimated from samples, so every one may feed a tail bound.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import distributions as dist

__all__ = [
    "OrliczEstimate", "NotSubGaussianError", "NotSubExponentialError", "psi_norm", "psi_norm_finite",
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
# 16 at alpha = 2, where ln(p0) / alpha falls half as fast
_P0 = {1: (8.0,), 2: (8.0, 16.0)}
# the first ln(lambda) of a tail bound from E exp(lambda |Z|^a), ln(c) - a ln K
# for K the best ratio read: any lambda > 0 is valid, these suit the catalogue
_GUESS = {1: math.log(0.65), 2: math.log(0.25)}
_STEP, _ROUNDS = 1.5, 6     # the first step in ln(lambda) of `_moment_tail`, and its rounds
_LOG_MIN = math.log(sys.float_info.min)     # the least first ln(lambda), where a shift sets T
TAIL_BOUND = "tail-bound"   # the method of an estimate whose upper T(256) sets


class NotSubGaussianError(ValueError):
    """The psi2 norm of a law is infinite."""


class NotSubExponentialError(ValueError):
    """The psi1 norm of a law is infinite."""


_INFINITE = {1: NotSubExponentialError, 2: NotSubGaussianError}


@dataclass(frozen=True)
class OrliczEstimate:
    alpha: int
    value: float
    p_star: float
    method: str
    upper: float    # certified bound on the supremum, never below value

    @property
    def proxy_value(self):
        """The number a bound reads: the value, or the upper where a tail
        bound set it, as the value read may then be far below the norm."""
        return self.upper if self.method == TAIL_BOUND else self.value

    def to_dict(self):
        return {"alpha": self.alpha, "value": self.value, "upper": self.upper,
                "p_star": self.p_star, "method": self.method}


def _chord_bounds(ps, phis, logs, alpha):
    """For each interval [a, b] of consecutive orders, the maximum over it of
    u(p) = s + c/p - ln(p)/alpha, where s p + c is the chord of phi, and
    its maximiser: clamp(-alpha c, a, b) when c < 0, else a.  ps, phis and
    logs (ln(p) / alpha at each p) are lists.  The floats are numpy's for
    the same operations, with ln of an inner maximiser by one np.log call."""
    bounds, peaks, inner = [], [], []
    for i in range(len(ps) - 1):
        a, b = ps[i], ps[i + 1]
        fa = phis[i]
        s = (phis[i + 1] - fa) / (b - a)
        c = fa - s * a
        q = min(max(-alpha * c, a), b) if c < 0 else a
        bounds.append((fa + s * (q - a)) / q)
        peaks.append(q)
        if q == a or q == b:
            bounds[-1] -= logs[i] if q == a else logs[i + 1]
        else:
            inner.append(i)
    if inner:
        for i, lg in zip(inner, (np.log([peaks[i] for i in inner]) / alpha).tolist()):
            bounds[i] -= lg
    return bounds, peaks


# the orders of _START as floats, and ln(p) / alpha at each, as np.log and
# the division give them on any batch of orders
_START_PS = _START.tolist()
_START_LOGS = {alpha: (np.log(_START) / alpha).tolist() for alpha in (1, 2)}
_HEAD = {alpha: _START[:3 + len(p0)] for alpha, p0 in _P0.items()}    # the first call's orders


def _sup_ratio(log_moments, alpha, tail):
    """Maximize ln(||Z||_p / p^(1/alpha)) over p >= 1, with a certificate.

    log_moments maps an array of p to phi(p) = ln E|Z|^p; tail(best, p0) is
    T(p0) >= the ratio at every p >= p0 (`_tail_bound`).  The first call
    reads _HEAD[alpha], and the search keeps [1, p0] for the first p0 of
    _P0[alpha] with T(p0) not above the best ratio, else reads the rest of
    _START with p0 = _P_MAX.  Each round reads the intervals whose chord
    bound beats the best ratio by more than _CHORD_TOL, at the geometric
    midpoint and at an inner maximiser of the bound (Piyavskii-Shubert, p*
    itself for a linear phi).  An inner peak exceeds the larger end ratio
    by at most (b-a)^2 / (8 alpha a^2), and a split at least halves an
    interval in ln p, so 18 rounds certify any data.  Returns the best
    ratio, its p, the largest chord bound and T(p0), T(_P_MAX) taken after
    the rounds (-inf, 1.0, -inf, -inf when Z = 0).  QuadratureError on a
    non-finite phi or when the rounds run out.  The orders, phis, ln(p) /
    alpha, ratios and chord bounds are float lists, with numpy's bits.
    """
    n = len(_HEAD[alpha])
    ps, logs = _START_PS[:n], _START_LOGS[alpha][:n]
    phis = log_moments(_HEAD[alpha]).tolist()
    if all(phi == -math.inf for phi in phis):
        return -math.inf, 1.0, -math.inf, -math.inf
    _check_finite(ps, phis)
    ratios = [phi / p - lg for phi, p, lg in zip(phis, ps, logs)]
    best = max(ratios)
    for end, p0 in enumerate(_P0[alpha], 4):     # _START[:4] ends at 8
        t = tail(best, p0)
        if t <= best:
            del ps[end:], phis[end:], logs[end:], ratios[end:]
            break
    else:
        t = None
        more = log_moments(_START[n:]).tolist()
        _check_finite(_START_PS[n:], more)
        ps += _START_PS[n:]
        logs += _START_LOGS[alpha][n:]
        ratios += [phi / p - lg for phi, p, lg in zip(more, _START_PS[n:], _START_LOGS[alpha][n:])]
        phis += more
    for rounds in range(_MAX_ROUNDS + 1):
        bounds, peaks = _chord_bounds(ps, phis, logs, alpha)
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
    top = max(best, max(bounds, default=-math.inf))    # best: the last round's max(ratios)
    return best, ps[ratios.index(best)], top, tail(best, _P_MAX) if t is None else t


def _check_finite(ps, phis):
    for p, phi in zip(ps, phis):
        if not math.isfinite(phi):
            raise dist.QuadratureError(f"ln E|Z|^p is {phi} at p={p!r}: no chord bound")


def _tail_bound(law, alpha):
    """tail(best, p0) of `_sup_ratio` for a law's record: T(p0) >= ln(||Z||_p
    / p^(1/alpha)) at every p >= p0, rounded outward, inf where there is
    none; NotSubGaussianError or NotSubExponentialError where the form's
    `max_psi_alpha` (the primitive X's, halved by each square step) is
    below alpha.  A bounded X reads its support walked through each map
    step.  At alpha = 1, a form whose first step (X where it has none) has
    largest alpha 1 reads its closed-form MGF: a = 1, S = mgf(lambda) +
    mgf(-lambda).  An unbounded X lacks a squared MGF exactly where its
    largest alpha is 1, and only a square step moves it, from 2 to 1.  Else
    X = s U + b, for U its unit law, reads U's squared MGF, a = 2, folded
    over the map steps by their `_tail`.
    """
    form = law.form
    base, steps = dist._chain(form)
    lo, hi = base.support()
    if max(-lo, hi) < math.inf:
        for step in steps:
            lo, hi = _outward(step, lo, hi)
        return _support_tail(max(-lo, hi), alpha)
    top, fact = form.max_psi_alpha, base.max_psi_alpha
    if top is not None and top < alpha:
        halved = f", and {round(math.log2(fact / top))} square step(s) halve that to {top:g}"
        raise _INFINITE[alpha](f"{type(base).__name__} laws have finite psi norms only up to "
                               f"alpha = {fact}{halved * (top != fact)}")
    if alpha == 1 and (steps[0] if steps else base).max_psi_alpha == 1:
        mgf_tail = _moment_tail(lambda lam: math.log(dist._mgf(form, lam) + dist._mgf(form, -lam)), 1)
        return lambda best, p0: mgf_tail(best, p0, alpha, 0.0, 0.0)
    (s, s_den), (b, b_den), unit = base.unit_law()
    tail = _moment_tail(lambda lam: math.log(unit.squared_mgf(lam)), 2)
    log_scale, shift = math.log(s / s_den), b / b_den
    for step in steps:
        tail, log_scale, shift = step._tail(tail, log_scale, shift)
    return lambda best, p0: tail(best, p0, alpha, log_scale, shift)


def _support_tail(m, alpha):
    """tail(best, p0) of `_tail_bound` for |Z| <= m, read only where Z is not 0."""
    return lambda best, p0: dist._tail_sum((math.log(m), -math.log(p0) / alpha))


def _moment_tail(log_s, a):
    """tail(best, p0, alpha, log_scale, shift) of `_tail_bound` from
    log_s(lambda) >= ln E exp(lambda |Y|^a), which raises OverflowError,
    NotImplementedError or MomentDivergenceError where it has none, for Z
    = e^log_scale Y + shift (`distributions._tail_sum`), a >= alpha: T(p0)
    holds past p0 as x^k <= Gamma(k+1) e^x and Gamma(p/a + 1)^(1/p) /
    p^(1/alpha) is nonincreasing.  T is convex in u = ln(lambda) where
    finite, so a pattern search from _GUESS reads it: a step each way, to
    the lower value, the step halved each round, until a value is not above
    best.  lambda is a normal float, so that ln(lambda) is u within the
    margin."""
    def tail(best, p0, alpha, log_scale, shift):
        log_gamma, log_p0 = math.lgamma(p0 / a + 1.0) / p0, -math.log(p0) / alpha

        def bound(u):       # T(p0) at lambda = e^u
            try:
                lam = math.exp(u)
                t = log_s(lam) / p0
            except (OverflowError, NotImplementedError, dist.MomentDivergenceError):
                return math.inf
            t = dist._tail_sum((t, log_gamma, -u / a, log_p0), log_scale, shift, log_p0)
            return t if lam >= sys.float_info.min else math.inf
        u, step = max(_GUESS[a] - a * (best - log_scale), _LOG_MIN), _STEP
        least = bound(u)
        for _ in range(_ROUNDS):
            if least <= best:
                break
            least, u = min((least, u), (bound(u - step), u - step), (bound(u + step), u + step))
            step /= 2.0
        return least
    return tail


def _outward(step, lo, hi):
    """An interval that holds the image of [lo, hi] under one map step (a
    wrapper of `distributions._chain`), exactly and in floats: each end of
    the step's image, rounded to nearest, moved one float outward."""
    lo, hi = step._image(lo, hi)
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def psi_norm(spec, alpha) -> OrliczEstimate:
    """psi_1 or psi_2 norm of a catalogue distribution.

    The value is the best ratio the search read, at p*.  NotSubGaussianError
    or NotSubExponentialError where the norm is infinite, QuadratureError
    where it or a moment is not certified, each naming spec and alpha, and
    SpecError where it is past the largest float.  The search runs on the
    standard law s Z of `distributions.standard_form`, and its estimate is
    kept in that law's record per alpha; the value is s times the standard
    law's, at its p* (`_scaled_value`).  `upper` is s times the standard
    law's (`_search`), rounded up and widened by _READ_ROUNDING, so that it
    also bounds every ratio read from the law's own moments or from Z's at
    orders the search did not read; it is never below the value.
    """
    if alpha not in (1, 2):
        raise ValueError(f"alpha must be 1 or 2, got {alpha}")
    dist.validate(spec)
    scale, standard = dist.standard_form(spec)
    law = dist._law(standard)
    est = law.psi.get(alpha)
    dist._law_counts["searches" if est is None else "hits"] += 1
    if est is None:
        try:
            law.psi[alpha] = est = _search(law, alpha)
        except (dist.QuadratureError, NotSubGaussianError, NotSubExponentialError) as exc:
            verdict = "is not certified" if isinstance(exc, dist.QuadratureError) else "is infinite"
            raise type(exc)(f"the psi{alpha} norm of {spec} {verdict}: {exc}") from None
    value, upper = _scaled_value(est.value, scale), _scaled_upper(est.upper, scale)
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
    """est for scale times its variable, at the same p*: `_scaled_value` of
    est's value, or with a method (a bound built on est) of its
    `proxy_value`, and the upper times scale then the next float up, which
    is not below the exact product; an upper of 0 stays 0."""
    return OrliczEstimate(est.alpha, _scaled_value(est.proxy_value if method else est.value, scale),
                          est.p_star, method or est.method, _scaled_upper(est.upper, scale))


def _scaled_upper(upper, scale):
    return math.nextafter(scale * upper, math.inf) if upper else 0.0


def _scaled_value(value, scale):
    """scale * value to nearest or, below the least normal float, where
    floats lie 5e-324 apart, the exact product rounded up."""
    x = scale * value
    return x if x >= sys.float_info.min else dist._round_up(
        *map(math.prod, zip(value.as_integer_ratio(), scale.as_integer_ratio())))[0]


def _search(law, alpha):
    """The psi estimate of a record's law: its upper is the larger of the
    largest final chord bound and the tail bound, with the method
    "tail-bound" where the tail bound is the larger.  The errors of
    `_tail_bound` and `_sup_ratio`, and a QuadratureError where no tail
    bound past _P_MAX is finite."""
    best, p, top, t = _sup_ratio(law.log_moments, alpha, _tail_bound(law, alpha))
    method = "closed-form" if isinstance(law.form, dist.FiniteSupport) else "analytic-grid"
    if best == -math.inf:
        return OrliczEstimate(alpha, 0.0, p, method, 0.0)
    value = dist._exp(best, "the psi{} norm of {}", alpha, law.spec)
    if t == math.inf:
        raise dist.QuadratureError(f"no tail bound on the moment ratio past p = {_P_MAX:g}")
    upper = dist._exp(max(top, t), "the psi{} norm of {}", alpha, law.spec)
    return OrliczEstimate(alpha, value, p, TAIL_BOUND if t > top else method, max(value, upper))


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
        bound = math.exp(4.0 * E * beta ** 2 * psi_norm(centered, 2).proxy_value ** 2)
    except OverflowError:
        raise dist.SpecError(f"the sub-Gaussian MGF bound of {spec} at beta={float(beta)!r} "
                             "overflows a float") from None
    return m, bound


# ---------------------------------------------------------------------------
# The unit laws' records, shipped

# The psi estimates of the unit laws of `distributions.standard_form`, by
# alpha where the norm is finite, as (value, p*, method, upper), and the
# moment rows p -> ln E|Z|^p their searches read: the five `_UNIT_*` laws,
# the centered forms of those whose mean is not 0, and a centered
# Rademacher law.  They depend only on the code, so they are written into
# the law memo at import and a fresh process runs no search for them; a
# memo clear or an eviction drops them like any record.  Written by `python
# tests/unit_records.py` from live searches on both SIMD paths of numpy's
# float64 exp, without the rows the two paths read differently; a tier-1
# test proves every field equal to a live search, bit for bit.
_UNIT_RECORDS = {
    dist._UNIT_GAUSSIAN: (
        {1: (0.7978845608028654, 1.0, "analytic-grid", 0.7978845608028654),
         2: (0.7978845608028654, 1.0, "analytic-grid", 0.7978845608028654)},
        {1.0: -0.22579135264472744, 2.0: -1.1102230246251565e-16, 4.0: 1.0986122886681096,
         8.0: 4.653960350157523, 16.0: 14.52207975885586}),
    dist._UNIT_EXPONENTIAL: (
        {1: (1.0, 1.0, "analytic-grid", 1.0)},
        {1.0: 0.0, 2.0: 0.6931471805599453, 4.0: 3.1780538303479458, 8.0: 10.60460290274525}),
    dist._UNIT_UNIFORM: (
        {1: (0.5, 1.0, "analytic-grid", 0.5),
         2: (0.5, 1.0, "analytic-grid", 0.5)},
        {1.0: -0.6931471805599453, 2.0: -1.0986122886681096, 4.0: -1.6094379124341,
         8.0: -2.1972245773362196, 16.0: -2.833213344056216}),
    dist._UNIT_GAP: (
        {1: (0.33333333333333337, 1.0, "analytic-grid", 0.33333333333333337),
         2: (0.33333333333333337, 1.0, "analytic-grid", 0.33333333333333337)},
        {1.0: -1.0986122886681096, 2.0: -1.791759469228055, 4.0: -2.70805020110221,
         8.0: -3.8066624897703196, 16.0: -5.030437921392435}),
    dist._UNIT_CHI2: (
        {1: (1.0, 1.0, "analytic-grid", 1.0)},
        {1.0: 0.0, 1.0986122886681098: 0.07636921119181683,
         1.4142135623730951: 0.3740408459755089, 2.0: 1.0986122886681098, 4.0: 4.653960350157524,
         8.0: 14.52207975885586, 16.0: 39.79574446107524, 32.0: 101.42953024860792,
         64.0: 246.8758594487399, 128.0: 582.1289609639896, 152.2185107203483: 718.5838993037758,
         181.01933598375618: 885.8478675227244, 215.2694823049509: 1090.6944515321402,
         245.14643985883487: 1273.8828760515316, 256.0: 1341.3575148401221}),
    dist.Centered(dist._UNIT_EXPONENTIAL): (
        {1: (0.7357588823428847, 1.0, "analytic-grid", 0.7357588823428847)},
        {1.0: -0.30685281944005466, 4.0: 2.197224577336219}),
    dist.Centered(dist._UNIT_GAP): (
        {1: (0.19753086419753085, 1.0, "analytic-grid", 0.19753086419753085),
         2: (0.19753086419753085, 1.0, "analytic-grid", 0.19753086419753085)},
        {1.0: -1.6218604324326575, 2.0: -2.8903717578961645, 4.0: -4.905274778438429,
         8.0: -7.833386864317441, 16.0: -12.328607708819726}),
    dist.Centered(dist._UNIT_CHI2): (
        {1: (0.96788289807657, 1.0, "analytic-grid", 0.96788289807657)},
        {1.0: -0.03264417208478565, 2.0: 0.6931471805599407, 4.0: 4.094344562222096,
         8.0: 13.990028411583696, 16.0: 39.2798951793492, 32.0: 100.92165906661974,
         64.0: 246.3719382260661, 128.0: 581.6270040595579, 152.2185107203483: 718.0822542514882,
         181.01933598375618: 885.3464845598604, 215.2694823049509: 1090.193288855739,
         245.14643985883487: 1273.381855217913, 256.0: 1340.856537328325}),
    dist.Centered(dist.Rademacher()): (
        {1: (1.0, 1.0, "closed-form", 1.0),
         2: (1.0, 1.0, "closed-form", 1.0)},
        {1.0: 0.0, 2.0: 0.0, 4.0: 0.0, 8.0: 0.0, 16.0: 0.0}),
}


def _ship(records):
    """Write each (psi, rows) of records into the record of its law."""
    for spec, (psi, rows) in records.items():
        law = dist._law(spec)
        law.psi = {alpha: OrliczEstimate(alpha, *est) for alpha, est in psi.items()}
        law.rows = dict(rows)


_ship(_UNIT_RECORDS)
