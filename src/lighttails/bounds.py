"""Closed-form tail bounds for functions of independent variables.

Three headline bounds plus the classical bounded-difference baseline:

  sub-Gaussian:     exp(-t^2 / (32 e V2))
  sub-exponential:  exp(-t^2 / (4 e^2 V1 + 2 e M1 t))
  moment/Bernstein: exp(-t^2 / (2 V2p + 2 e q M1 t))   (q conjugate to p;
                    thm3-psi2-variant has sqrt(q) M2 in place of q M1)

with V_a the summed squared per-coordinate proxies and M the largest one;
the baseline is exp(-2 t^2 / sum r_k^2).  Every bound is exp(-t^2 / (a + b t)),
and one (a, b) table of the entries in `READS` serves evaluation and
inversion; entries below 1/2 are lifted by a power of two before they are
squared, so they do not underflow.  All probabilities are evaluated in log
space and clamped to (0, 1].
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "ProxyProfile", "TailBoundResult", "InversionResult", "evaluate_tail", "evaluate_tail_grid",
    "invert_tail", "optimization_lemma", "BOUND_KINDS", "PSI2_KINDS", "READS", "reads", "ENTRIES",
]

E = math.e

ENTRIES = ("psi1_per_coord", "psi2_per_coord", "l2p_per_coord", "ranges")  # of a ProxyProfile
# bound kind -> the entries its exponent reads, in the order it checks them:
# the first gives its sum of squares V (a), the last its largest entry M (b)
READS = {
    "thm1": ("psi2_per_coord",),
    "thm2": ("psi1_per_coord",),
    "thm3": ("l2p_per_coord", "psi1_per_coord"),
    "thm3-psi2-variant": ("l2p_per_coord", "psi2_per_coord"),
    "bounded-difference": ("ranges",),
}
BOUND_KINDS = tuple(READS)
PSI2_KINDS = tuple(k for k, row in READS.items() if "psi2_per_coord" in row)


def _row(kind):
    if kind not in READS:
        raise ValueError(f"unknown bound kind {kind!r}; known: {BOUND_KINDS}")
    return READS[kind]


def reads(kinds):
    """The entries the kinds read, as a frozenset; an unknown kind is a ValueError."""
    return frozenset().union(*map(_row, kinds))


@dataclass(frozen=True)
class ProxyProfile:
    """Per-coordinate worst-case norm data consumed by the bounds, one run
    of equal coordinates at a time: `counts` holds the length of each run,
    and each entry one value per run.  The iid vector kinds are one run of
    n, the scalar kinds n runs of one.

    Entries are the essential suprema over the base point of the
    per-coordinate conditional-version norms; computing those suprema is
    the caller's job (see functions.proxy_profile).
    """
    counts: tuple
    psi1_per_coord: Optional[tuple] = None
    psi2_per_coord: Optional[tuple] = None
    l2p_per_coord: Optional[tuple] = None
    l2p_order: Optional[float] = None       # the p of the 2p-norms
    ranges: Optional[tuple] = None

    def __post_init__(self):
        counts = tuple(map(operator.index, self.counts))
        if not counts or min(counts) < 1:
            raise ValueError(f"counts must be one positive int per run, got {self.counts}")
        object.__setattr__(self, "counts", counts)
        for name in ENTRIES:
            entries = getattr(self, name)
            if entries is None:
                continue
            entries = tuple(float(x) for x in entries)
            object.__setattr__(self, name, entries)
            if len(entries) != len(counts):
                raise ValueError(f"{name} must have one entry per run, {len(counts)}, "
                                 f"got {len(entries)}")
            if any(x < 0 for x in entries):
                raise ValueError(f"{name} entries must be nonnegative")
        if self.l2p_per_coord is not None:
            if self.l2p_order is None or self.l2p_order <= 1:
                raise ValueError("l2p_per_coord requires l2p_order > 1")


def _squares(entries, counts):
    """V, the sum of count * x^2 over the runs: the exact sum of count *
    fl(x * x), rounded once, which is the fsum of the squares of the
    expanded entries bit for bit, and inf past the largest float.  Each
    square is split over the set bits b of its count into ldexp(x * x, b),
    exact pieces whose fsum is that sum (one piece, x * x, for a count
    of 1)."""
    try:
        return math.fsum(math.ldexp(x * x, b) for x, count in zip(entries, counts)
                         for b in range(count.bit_length()) if count >> b & 1)
    except OverflowError:       # the exact sum of nonnegative pieces is past the largest float
        return math.inf


class TailBoundResult(NamedTuple):
    """One bound at one t: a named tuple, a third of the cost of a frozen
    dataclass per row."""
    kind: str
    t: float
    prob: float
    log_prob: float
    note: str = ""

    def to_dict(self):
        d = {"kind": self.kind, "t": self.t, "prob": self.prob,
             "log_prob": self.log_prob}
        if self.note:
            d["note"] = self.note
        return d


def _lift(top):
    """The power of two that brings top, the largest entry a bound reads,
    into [1/2, 1) where it is below 1/2, so that the squares of the entries
    do not underflow, and 1 otherwise.  A power of two scales a float
    exactly, so a lift changes no bit of a bound where nothing underflows."""
    if not top < 0.5:
        return 1.0
    return math.ldexp(1.0, min(-math.frexp(top)[1], 1023))


def _tail(kind, t, u, a, b):
    """The bound at t, exp(-u^2 / (a + b u)) with u = t lifted as a and b
    were, clamped to (0, 1]; a = b = 0 means f is a.s. constant, and an
    infinite a or b (an infinite proxy or range) gives the bound 1, which
    says nothing.  Where u^2 or a + b u is past the largest float, the
    exponent is read divided through by u, -u / (a/u + b)."""
    if a == 0.0 and b == 0.0:
        return TailBoundResult(kind, t, 0.0, -math.inf,
                               "degenerate: f is a.s. constant")
    if not (math.isfinite(a) and math.isfinite(b)):
        return TailBoundResult(kind, t, 1.0, 0.0, "inapplicable: a + b t is infinite")
    square, denom = u * u, a + b * u if b else a
    if math.isfinite(square) and math.isfinite(denom):
        log_prob = -square / denom
    else:       # a / u + b is 0 only where a / u underflows and b = 0
        per_u = a / u + b
        log_prob = -u / per_u if per_u else -math.inf
    log_prob = min(log_prob, 0.0)
    return TailBoundResult(kind, t, math.exp(log_prob), log_prob)


def _thm3_q(profile, p):
    """q = p/(p-1) for the thm3 kinds; p defaults to the profile's l2p_order."""
    p = profile.l2p_order if p is None else p
    if p <= 1:
        raise ValueError(
            f"p must exceed 1 (p -> 1 drives the scale proxy to infinity), got {p}")
    if profile.l2p_order is not None and abs(profile.l2p_order - p) > 1e-12:
        raise ValueError(
            f"profile carries 2p-norms for p={profile.l2p_order}, asked for p={p}")
    return p / (p - 1.0)


def _exponent(kind, profile, p):
    """(a, b, lift) with the kind's bound exp(-u^2 / (a + b u)) at u = lift t,
    from its row of READS: a and b are read from the entries times the
    `_lift` of the largest, so both are 0 only where every entry read is."""
    rows = [getattr(profile, name) for name in _row(kind)]
    if None in rows:
        raise ValueError(f"profile is missing {_row(kind)[rows.index(None)]}")
    lift = _lift(max(map(max, rows)))
    if lift != 1.0:
        rows = [[x * lift for x in entries] for entries in rows]
    v, m = _squares(rows[0], profile.counts), max(rows[-1])
    if kind == "thm1":
        return 32.0 * E * v, 0.0, lift
    if kind == "thm2":
        return 4.0 * E * E * v, 2.0 * E * m, lift
    if kind in ("thm3", "thm3-psi2-variant"):
        q = _thm3_q(profile, p)
        scale = q * m if kind == "thm3" else math.sqrt(q) * m
        return 2.0 * v, 2.0 * E * scale, lift
    return v / 2.0, 0.0, lift     # bounded-difference


def evaluate_tail(kind, profile, t, p=None) -> TailBoundResult:
    """The named bound at t.  The thm3 kinds use the 2p-norms of order p,
    by default the profile's own l2p_order."""
    return evaluate_tail_grid(kind, profile, (t,), p)[0]


def evaluate_tail_grid(kind, profile, t_grid, p=None) -> list:
    """evaluate_tail at each t of t_grid, from one (a, b) of the kind."""
    for t in t_grid:
        if not t > 0:
            raise ValueError(f"t must be positive, got {t}")
    a, b, lift = _exponent(kind, profile, p)
    return [_tail(kind, t, t * lift, a, b) for t in t_grid]


# ---------------------------------------------------------------------------
# Inversion

@dataclass(frozen=True)
class InversionResult:
    """Deviation levels with exp(bound exponent) = delta.

    `exact` solves the quadratic t^2 = L (a + b t) exactly; `additive` is
    the relaxation sqrt(a L) + b L used by the closed-form application
    bounds.  exact <= additive always.
    """
    kind: str
    delta: float
    exact: float
    additive: float

    def to_dict(self):
        return {"kind": self.kind, "delta": self.delta,
                "exact": self.exact, "additive": self.additive}


def invert_tail(kind, profile: ProxyProfile, delta: float, p=None) -> InversionResult:
    """Smallest t at which the requested bound equals delta; p as in
    evaluate_tail."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    big_l = math.log(1.0 / delta)
    a, b, lift = _exponent(kind, profile, p)
    exact = (b * big_l + math.sqrt(b * b * big_l * big_l + 4.0 * a * big_l)) / 2.0
    additive = math.sqrt(a * big_l) + b * big_l
    return InversionResult(kind, delta, exact / lift, additive / lift)


# ---------------------------------------------------------------------------
# The optimization lemma behind the quadratic-over-linear exponents

def optimization_lemma(c: float, b: float, t: float):
    """(rhs, grid_min) for inf over beta in [0,1/b) of -beta t + C beta^2/(1-b beta).

    rhs = -t^2 / (2 (2C + b t)); the infimum is at most rhs, so the minimum
    on a grid of 10^4 betas must also not exceed it (up to grid resolution).
    """
    if c <= 0 or b <= 0 or t <= 0:
        raise ValueError(f"C, b, t must all be positive, got ({c}, {b}, {t})")
    rhs = -t * t / (2.0 * (2.0 * c + b * t))
    betas = np.linspace(0.0, 1.0 / b, 10 ** 4 + 1)[:-1]
    # include the witness point realizing the right-hand side, so coarse
    # grids cannot spuriously miss the infimum near beta = 0
    betas = np.append(betas, t / (2.0 * c + b * t))
    g = -betas * t + c * betas ** 2 / (1.0 - b * betas)
    grid_min = float(np.min(g))
    return rhs, grid_min
