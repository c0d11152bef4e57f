"""Falsification harness: empirical and exact tail probabilities with exact
binomial confidence intervals, checked against the closed-form bounds.

A bound is never declared tight, only SOUND or VIOLATION: VIOLATION means
the Clopper-Pearson lower confidence limit (or an exact enumerated tail)
exceeds the bound at some grid point.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import betaincinv

from . import functions as fn
from .bounds import TailBoundResult, evaluate_tail
from .entropy import ProductTable

__all__ = [
    "TailEstimate", "VerificationReport", "clopper_pearson", "estimate_tail",
    "exact_tail_enumeration", "bounds_on_grid", "falsified_bounds",
    "check_bounds", "compare_bounds", "report_to_csv", "SHARD_SIZE", "MIN_SAMPLES",
]

SHARD_SIZE = 10 ** 5    # fixed shard width keeps counts thread-count invariant
DEFAULT_CP_LEVEL = 0.999
MIN_SAMPLES = 10 ** 4   # fewest draws estimate_tail accepts


def clopper_pearson(k, n: int, level: float = DEFAULT_CP_LEVEL):
    """Exact binomial two-sided confidence interval (lo, hi) for k successes
    in n: the beta quantiles, from one betaincinv call per end.  For an
    array of counts k, lo and hi are arrays aligned with it."""
    ks = np.asarray(k)
    bad = ks[(ks < 0) | (ks > n)]
    if bad.size:
        raise ValueError(f"need 0 <= k <= n, got k={bad.flat[0]}, n={n}")
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0,1), got {level}")
    tail = (1.0 - level) / 2.0
    # k = 0 and k = n have a fixed end; a valid stand-in parameter keeps
    # betaincinv off its invalid domain there
    lo = np.where(ks == 0, 0.0, betaincinv(np.maximum(ks, 1), n - ks + 1, tail))
    hi = np.where(ks == n, 1.0, betaincinv(ks + 1, np.maximum(n - ks, 1), 1.0 - tail))
    if ks.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Exceedance counts of f(X) - E[f(X')] over a sorted threshold grid.

    Thresholds are shifted up by the expectation half-width before counting,
    which is conservative toward SOUND; the shift is reported.
    """
    t_grid: tuple
    exceed_counts: tuple
    n_samples: int
    mean_value: float
    mean_half_width: float
    cp_level: float
    seed: int

    def __post_init__(self):
        if any(c > self.n_samples for c in self.exceed_counts):
            raise ValueError("exceedance count exceeds sample count")

    @property
    def empirical_tail(self):
        return tuple(c / self.n_samples for c in self.exceed_counts)

    def intervals(self):
        lo, hi = clopper_pearson(np.array(self.exceed_counts), self.n_samples, self.cp_level)
        return tuple(zip(lo.tolist(), hi.tolist()))


def _check_grid(t_grid):
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    if any(t <= 0 for t in t_grid):
        raise ValueError("t_grid entries must be positive")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be sorted strictly ascending")
    return t_grid


def estimate_tail(fspec, t_grid, n_samples, seed, threads=1) -> TailEstimate:
    """One pass over n_samples deterministic draws of f, in shards of a fixed
    width that one pool of `threads` >= 1 workers counts, so the result does
    not depend on the worker count.  The intervals are at DEFAULT_CP_LEVEL,
    and E[f(X)] is `fn.expectation`; where that estimate's half-width
    exceeds a tenth of the t-grid spacing, the grid is too fine for it and
    this is a ValueError."""
    t_grid = _check_grid(t_grid)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= 10^4, got {n_samples}")
    mean_value, half = fn.expectation(fspec, seed=seed)
    spacing = min(np.diff(t_grid)) if len(t_grid) > 1 else t_grid[0]
    if half > spacing / 10.0:
        raise ValueError(
            f"t-grid spacing {spacing:.3g} too fine: the expectation half-width "
            f"{half:.3g} exceeds a tenth of it")
    thresholds = np.asarray(t_grid) + mean_value + half

    shards = [(i, min(SHARD_SIZE, n_samples - i * SHARD_SIZE))
              for i in range((n_samples + SHARD_SIZE - 1) // SHARD_SIZE)]

    def shard_counts(job):
        stream, count = job
        vals = np.sort(fn.sample_f(fspec, seed, count, stream=stream))
        # a NaN would compare False, as no exceedance; np.sort puts it last
        if not (np.isfinite(vals[0]) and np.isfinite(vals[-1])):
            bad = vals[-1] if np.isfinite(vals[0]) else vals[0]
            raise ValueError(f"{fspec.kind}: sample value {bad} in shard {stream} "
                             "is not finite")
        # the values above each threshold; a tie does not exceed
        return count - np.searchsorted(vals, thresholds, side="right")

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(shard_counts, shards))
    counts = np.sum(np.stack(parts), axis=0)
    return TailEstimate(t_grid=tuple(t_grid),
                        exceed_counts=tuple(int(c) for c in counts),
                        n_samples=n_samples, mean_value=mean_value,
                        mean_half_width=half, cp_level=DEFAULT_CP_LEVEL, seed=seed)


def exact_tail_enumeration(table: ProductTable, t_grid) -> list:
    """Exact Pr{f - E[f] > t} on a small product space by full enumeration."""
    t_grid = _check_grid(t_grid)
    probs = table.joint_probs().ravel()
    vals = np.asarray(table.f_table, dtype=float).ravel()
    mu = float(np.dot(probs, vals))
    return [float(probs[vals - mu > t].sum()) for t in t_grid]


def bounds_on_grid(fspec, kinds, t_grid, p=None) -> dict:
    """Evaluate each requested bound kind over the grid via the function's
    analytic proxy profile."""
    t_grid = _check_grid(t_grid)
    profile = fn.proxy_profile(fspec, p=p, kinds=kinds)
    return {k: [evaluate_tail(k, profile, t, p=p) for t in t_grid] for k in kinds}


def falsified_bounds(bounds: dict) -> dict:
    """Negative control: halve every bound probability.  The harness must
    flag these as VIOLATION on a suitable config."""
    out = {}
    for kind, results in bounds.items():
        out[kind + "-falsified"] = [
            TailBoundResult(r.kind + "-falsified", r.t, r.prob / 2.0,
                            r.log_prob - math.log(2.0), r.note)
            for r in results]
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Per-threshold verdicts plus the sampling facts needed to reproduce
    them."""
    t_grid: tuple
    empirical: tuple
    cp_lower: tuple
    cp_upper: tuple
    kinds: tuple
    bound_probs: dict            # kind -> tuple of probs over the grid
    verdicts: tuple              # per-t: "SOUND" | "VIOLATION"
    verdict: str
    cp_level: float
    n_samples: Optional[int]
    seed: Optional[int]
    mean_value: Optional[float]
    mean_half_width: Optional[float]
    ratios_log10: dict = field(default_factory=dict)

    def to_dict(self):
        rows = []
        for i, t in enumerate(self.t_grid):
            row = {"t": t, "empirical": self.empirical[i],
                   "cp_lower": self.cp_lower[i], "cp_upper": self.cp_upper[i],
                   "bounds": {k: self.bound_probs[k][i] for k in self.kinds},
                   "verdict": self.verdicts[i]}
            if self.ratios_log10:
                row["ratios_log10"] = {k: self.ratios_log10[k][i]
                                       for k in self.kinds}
            rows.append(row)
        d = {"rows": rows, "verdict": self.verdict, "cp_level": self.cp_level}
        for key in ("n_samples", "seed", "mean_value", "mean_half_width"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        return d


def check_bounds(est, bounds: dict) -> VerificationReport:
    """Certify domination: VIOLATION iff the lower confidence limit (or the
    exact tail) exceeds some bound value at some threshold.

    `est` is a TailEstimate, or a plain sequence of exact tail probabilities
    aligned with the bound grids (then the interval collapses to the value).
    A NaN bound probability is a ValueError that names its kind and t.
    The report holds no caller data: a caller merges `report.to_dict()`
    into its own document, as the CLI does into its envelope.
    """
    kinds = tuple(bounds)
    if not kinds:
        raise ValueError("no bounds supplied")
    grids = {k: tuple(r.t for r in rs) for k, rs in bounds.items()}
    ref = grids[kinds[0]]
    for k, g in grids.items():
        if len(g) != len(ref) or any(abs(a - b) > 1e-12 for a, b in zip(g, ref)):
            raise ValueError(f"bound grids misaligned between {kinds[0]} and {k}")

    if isinstance(est, TailEstimate):
        if len(est.t_grid) != len(ref) or any(
                abs(a - b) > 1e-12 for a, b in zip(est.t_grid, ref)):
            raise ValueError("estimate grid does not match bound grid")
        emp = est.empirical_tail
        ivs = est.intervals()
        lo = tuple(iv[0] for iv in ivs)
        hi = tuple(iv[1] for iv in ivs)
        facts = dict(cp_level=est.cp_level, n_samples=est.n_samples, seed=est.seed,
                     mean_value=est.mean_value, mean_half_width=est.mean_half_width)
    else:
        emp = tuple(float(x) for x in est)
        if len(emp) != len(ref):
            raise ValueError("exact tail list does not match bound grid")
        lo = hi = emp
        facts = dict(cp_level=1.0, n_samples=None, seed=None, mean_value=None,
                     mean_half_width=None)

    probs = {k: tuple(r.prob for r in bounds[k]) for k in kinds}
    for k in kinds:     # lo > NaN is False, which would read SOUND
        for t, prob in zip(ref, probs[k]):
            if math.isnan(prob):
                raise ValueError(f"bound {k} is NaN at t={t}")
    verdicts = []
    for i in range(len(ref)):
        bad = any(lo[i] > probs[k][i] for k in kinds)
        verdicts.append("VIOLATION" if bad else "SOUND")
    overall = "VIOLATION" if "VIOLATION" in verdicts else "SOUND"
    return VerificationReport(
        t_grid=ref, empirical=emp, cp_lower=lo, cp_upper=hi, kinds=kinds,
        bound_probs=probs, verdicts=tuple(verdicts), verdict=overall, **facts)


def compare_bounds(fspec, kinds, t_grid, n_samples, seed, p=None,
                   threads=1) -> VerificationReport:
    """Single estimation pass, all requested bounds, log10 tightness ratios
    (bound over empirical; inf where no exceedance was observed).  The
    bounds come first, so a profile error costs no samples."""
    bounds = bounds_on_grid(fspec, kinds, t_grid, p=p)
    est = estimate_tail(fspec, t_grid, n_samples, seed, threads=threads)
    report = check_bounds(est, bounds)
    ratios = {}
    for k in report.kinds:
        col = []
        for b, e in zip(report.bound_probs[k], report.empirical):
            if e == 0.0:
                col.append(math.inf)
            elif b == 0.0:
                col.append(-math.inf)
            else:
                col.append(math.log10(b / e))
        ratios[k] = tuple(col)
    return replace(report, ratios_log10=ratios)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def report_to_csv(report: VerificationReport) -> str:
    """Fixed column order: t, empirical, cp_lo, cp_hi, one column per bound
    kind (plus ratio columns when present), verdict.  Floats use shortest
    round-trip decimals."""
    cols = ["t", "empirical", "cp_lo", "cp_hi"] + list(report.kinds)
    if report.ratios_log10:
        cols += [f"ratio_log10_{k}" for k in report.kinds]
    cols.append("verdict")
    lines = [",".join(cols)]
    for i in range(len(report.t_grid)):
        row = [report.t_grid[i], report.empirical[i], report.cp_lower[i],
               report.cp_upper[i]]
        row += [report.bound_probs[k][i] for k in report.kinds]
        if report.ratios_log10:
            row += [report.ratios_log10[k][i] for k in report.kinds]
        lines.append(",".join(_fmt(x) for x in row) + "," + report.verdicts[i])
    return "\n".join(lines) + "\n"
