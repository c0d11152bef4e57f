"""Closed-form tail bounds for functions of independent variables.

Three headline bounds plus the classical bounded-difference baseline:

  sub-Gaussian:     exp(-t^2 / (32 e V2))
  sub-exponential:  exp(-t^2 / (4 e^2 V1 + 2 e M1 t))
  moment/Bernstein: exp(-t^2 / (2 V2p + 2 e q M1 t))   (q conjugate to p;
                    thm3-psi2-variant has sqrt(q) M2 in place of q M1)

with V_a the summed squared per-coordinate proxies and M the largest one;
the baseline is exp(-2 t^2 / sum r_k^2).  Every bound is exp(-t^2 / (a + b t)),
and one (a, b) table serves both evaluation and inversion.  All
probabilities are evaluated in log space and clamped to (0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ProxyProfile", "TailBoundResult", "InversionResult", "evaluate_tail",
    "invert_tail", "optimization_lemma", "BOUND_KINDS", "PSI2_KINDS",
]

E = math.e

BOUND_KINDS = ("thm1", "thm2", "thm3", "thm3-psi2-variant", "bounded-difference")
PSI2_KINDS = ("thm1", "thm3-psi2-variant")     # the kinds that read psi2_per_coord


@dataclass(frozen=True)
class ProxyProfile:
    """Per-coordinate worst-case norm data consumed by the bounds.

    Entries are the essential suprema over the base point of the
    per-coordinate conditional-version norms; computing those suprema is
    the caller's job (see functions.proxy_profile).
    """
    n: int
    psi1_per_coord: Optional[tuple] = None
    psi2_per_coord: Optional[tuple] = None
    l2p_per_coord: Optional[tuple] = None
    l2p_order: Optional[float] = None       # the p of the 2p-norms
    ranges: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("psi1_per_coord", "psi2_per_coord", "l2p_per_coord", "ranges"):
            entries = getattr(self, name)
            if entries is None:
                continue
            entries = tuple(float(x) for x in entries)
            object.__setattr__(self, name, entries)
            if len(entries) != self.n:
                raise ValueError(f"{name} must have length n={self.n}, got {len(entries)}")
            if any(x < 0 for x in entries):
                raise ValueError(f"{name} entries must be nonnegative")
        if self.l2p_per_coord is not None:
            if self.l2p_order is None or self.l2p_order <= 1:
                raise ValueError("l2p_per_coord requires l2p_order > 1")

    # derived proxies
    @property
    def v1(self):
        self._need("psi1_per_coord")
        return math.fsum(x * x for x in self.psi1_per_coord)

    @property
    def m1(self):
        self._need("psi1_per_coord")
        return max(self.psi1_per_coord)

    @property
    def v2(self):
        self._need("psi2_per_coord")
        return math.fsum(x * x for x in self.psi2_per_coord)

    @property
    def m2(self):
        self._need("psi2_per_coord")
        return max(self.psi2_per_coord)

    @property
    def v2p(self):
        self._need("l2p_per_coord")
        return math.fsum(x * x for x in self.l2p_per_coord)

    def _need(self, name):
        if getattr(self, name) is None:
            raise ValueError(f"profile is missing {name}")


@dataclass(frozen=True)
class TailBoundResult:
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


def _tail(kind, t, a, b):
    """exp(-t^2 / (a + b t)), clamped to (0, 1]; a = b = 0 means f is a.s.
    constant."""
    if a == 0.0 and b == 0.0:
        return TailBoundResult(kind, t, 0.0, -math.inf,
                               "degenerate: f is a.s. constant")
    log_prob = min(-t * t / (a + b * t if b else a), 0.0)
    return TailBoundResult(kind, t, math.exp(log_prob), log_prob)


def _thm3_q(profile, p):
    """q = p/(p-1) for the thm3 kinds; p defaults to the profile's l2p_order."""
    if p is None:
        profile._need("l2p_per_coord")
        p = profile.l2p_order
    if p <= 1:
        raise ValueError(
            f"p must exceed 1 (p -> 1 drives the scale proxy to infinity), got {p}")
    if profile.l2p_order is not None and abs(profile.l2p_order - p) > 1e-12:
        raise ValueError(
            f"profile carries 2p-norms for p={profile.l2p_order}, asked for p={p}")
    return p / (p - 1.0)


def _exponent(kind, profile, p):
    """(a, b) with the bound of the kind equal to exp(-t^2 / (a + b t))."""
    if kind == "thm1":
        return 32.0 * E * profile.v2, 0.0
    if kind == "thm2":
        return 4.0 * E * E * profile.v1, 2.0 * E * profile.m1
    if kind in ("thm3", "thm3-psi2-variant"):
        q = _thm3_q(profile, p)
        v2p = profile.v2p
        scale = q * profile.m1 if kind == "thm3" else math.sqrt(q) * profile.m2
        return 2.0 * v2p, 2.0 * E * scale
    if kind == "bounded-difference":
        profile._need("ranges")
        return math.fsum(r * r for r in profile.ranges) / 2.0, 0.0
    raise ValueError(f"unknown bound kind {kind!r}; known: {BOUND_KINDS}")


def evaluate_tail(kind, profile, t, p=None) -> TailBoundResult:
    """The named bound at t.  The thm3 kinds use the 2p-norms of order p,
    by default the profile's own l2p_order."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    a, b = _exponent(kind, profile, p)
    if kind == "bounded-difference" and a == math.inf:
        return TailBoundResult(kind, t, 1.0, 0.0,
                               "baseline inapplicable: infinite conditional range")
    return _tail(kind, t, a, b)


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
    a, b = _exponent(kind, profile, p)
    exact = (b * big_l + math.sqrt(b * b * big_l * big_l + 4.0 * a * big_l)) / 2.0
    additive = math.sqrt(a * big_l) + b * big_l
    return InversionResult(kind, delta, exact, additive)


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
