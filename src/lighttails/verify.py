"""Falsification harness: empirical and exact tail probabilities with exact
binomial confidence intervals, checked against the closed-form bounds.

A bound is never declared tight, only SOUND or VIOLATION: VIOLATION means
the Clopper-Pearson lower confidence limit (or an exact enumerated tail)
exceeds the bound at some grid point.  A `VerificationReport` is its
rows, one dict per grid point that `check_bounds` builds once; `to_dict`
and `report_to_csv` read them.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import betaincinv

from . import functions as fn
# evaluate_tail is not called here, but bench/tracing.py wraps it by this name
from .bounds import TailBoundResult, evaluate_tail, evaluate_tail_grid  # noqa: F401
from .entropy import ProductTable

__all__ = [
    "TailEstimate", "VerificationReport", "clopper_pearson", "estimate_tail",
    "exact_tail_enumeration", "bounds_on_grid", "falsified_bounds",
    "check_bounds", "compare_bounds", "report_to_csv", "SHARD_SIZE", "MIN_SAMPLES",
    "MAX_SAMPLES", "MAX_THREADS", "MAX_SHARD_BYTES", "MAX_FILLS",
]

SHARD_SIZE = 10 ** 5    # fixed shard width keeps counts thread-count invariant
DEFAULT_CP_LEVEL = 0.999
MIN_SAMPLES = 10 ** 4   # fewest draws estimate_tail accepts
MAX_SAMPLES = 10 ** 9   # most draws it accepts, 10^4 shards
MAX_THREADS = 64        # most workers it accepts
# most bytes the draw arrays in flight, or the expectation's batch, may take:
# each worker holds one array of fspec.work_rows values per draw
MAX_SHARD_BYTES = 2 ** 30
# most entries a run may fill, its draws and the expectation's batch: about
# 9 minutes on one core at the 1.9e8 uniform fills per second of the fold
MAX_FILLS = 10 ** 11
# A shard counts the values above each threshold of a grid of at most this
# many; a longer grid sorts the shard once and bisects it.  The crossover of
# the two on 10^5 Gamma(10) draws lay near 32 thresholds on AVX-512 and
# near 44 on AVX2.
_COUNT_STEPS = 32
# the most bytes of draw arrays a thread keeps, for its next shard and run (20
# rows at the shard width): a freed buffer would be trimmed and faulted in again
_KEPT_BYTES = 2 ** 24
_kept = threading.local()


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


def _check_shard_bytes(fspec, threads, n_samples):
    """ValueError, naming what a draw holds and the budget, where the draw
    arrays of `work_rows` values a draw take more than MAX_SHARD_BYTES at
    their peak: in the shards (a worker for each of `threads` and of the
    run's shards, whichever are fewer, with min(SHARD_SIZE, n_samples)
    draws each) or, where larger, in the fn._INNER_MC draws of
    `fn.expectation` before them, counted whatever the mean."""
    draws = min(SHARD_SIZE, n_samples)
    workers = min(threads, -(-n_samples // SHARD_SIZE))
    batch = "a shard"
    if workers * draws < fn._INNER_MC:
        batch, draws, workers = "the expectation's batch", fn._INNER_MC, 1
    size = fspec.work_rows * draws * 8
    if workers * size > MAX_SHARD_BYTES:
        raise ValueError(
            f"{fspec.kind}: {batch} of {draws} draws takes {size} bytes in the "
            f"{fspec.sampler_layout} layout, {fspec.work_rows} values per draw"
            + (f", {workers * size} bytes with {workers} threads" if workers > 1 else "")
            + f", over the shard budget of {MAX_SHARD_BYTES} bytes (1 GiB)")


def _check_fills(fspec, n_samples):
    """ValueError, naming --n and n, where the run's draws and the
    expectation's batch fill more than MAX_FILLS entries: one a draw in the
    chi layout, one per total when summed, every entry of a point in the fold."""
    layout = fspec.sampler_layout
    per_draw = {"chi": 1, "summed": fspec._totals}.get(layout, math.prod(fspec.point_shape))
    fills = (n_samples + fn._INNER_MC) * per_draw
    if fills > MAX_FILLS:
        raise ValueError(
            f"{fspec.kind}: --n {n_samples} draws and the expectation's {fn._INNER_MC}, at n = "
            f"{fspec.n}, fill {fills} entries in the {layout} layout ({per_draw} a draw), over "
            f"the work budget of {MAX_FILLS} fills (about 9 minutes)")


def estimate_tail(fspec, t_grid, n_samples, seed, threads=1) -> TailEstimate:
    """One pass over n_samples deterministic draws of f, in shards of a fixed
    width that `threads` workers count, so the result does not depend on the
    worker count.  One thread draws on the calling thread, more in a pool,
    each shard into the array its thread keeps (`_work`).  The intervals are
    at DEFAULT_CP_LEVEL, and E[f(X)] is `fn.expectation`; where that
    estimate's half-width exceeds a tenth of the t-grid spacing, the grid is
    too fine for it and this is a ValueError.  So are n_samples outside
    [MIN_SAMPLES, MAX_SAMPLES], threads outside [1, MAX_THREADS] and runs
    past the shard or work budget, each checked before any draw."""
    t_grid = _check_grid(t_grid)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= 10^4, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples must be <= 10^9, got {n_samples}")
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must lie in [1, {MAX_THREADS}], got {threads}")
    _check_shard_bytes(fspec, threads, n_samples)
    _check_fills(fspec, n_samples)
    # draws past the largest float read inf or NaN, which the shards refuse
    with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):     # set per thread
            vals = fn.sample_f(fspec, seed, count, stream=stream,
                               work=_work(fspec.work_rows, count))
        # a NaN would compare False, as no exceedance; min and max carry it
        lo, hi = vals.min(), vals.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            bad = hi if np.isfinite(lo) else lo
            raise ValueError(f"{fspec.kind}: sample value {bad} in shard {stream} "
                             "is not finite")
        return _exceedances(vals, thresholds)

    if threads == 1:
        parts = list(map(shard_counts, shards))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(shard_counts, shards))
    counts = np.sum(np.stack(parts), axis=0)
    return TailEstimate(t_grid=tuple(t_grid),
                        exceed_counts=tuple(int(c) for c in counts),
                        n_samples=n_samples, mean_value=mean_value,
                        mean_half_width=half, cp_level=DEFAULT_CP_LEVEL, seed=seed)


def _work(rows, width):
    """A (rows, width) view of the buffer its thread keeps, grown to the
    largest one asked for up to _KEPT_BYTES; a larger one is new each call."""
    size = rows * width
    buf = getattr(_kept, "buf", None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        if buf.nbytes <= _KEPT_BYTES:
            _kept.buf = buf
    return buf[:size].reshape(rows, width)


def _exceedances(vals, thresholds):
    """The number of values above each of the ascending thresholds; a tie
    does not exceed.  A grid of at most _COUNT_STEPS is counted threshold
    by threshold; a longer one sorts vals in place and bisects it."""
    if len(thresholds) <= _COUNT_STEPS:
        return [np.count_nonzero(vals > t) for t in thresholds]
    vals.sort()
    return len(vals) - np.searchsorted(vals, thresholds, side="right")


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
    return {k: evaluate_tail_grid(k, profile, t_grid, p=p) for k in kinds}


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
    """Per-threshold rows plus the facts needed to reproduce them.  A row
    is the dict `to_dict` prints: t, empirical, cp_lower, cp_upper, bounds
    (kind -> prob over the kinds in order) and verdict ("SOUND" or
    "VIOLATION"); `compare_bounds` adds ratios_log10 (kind -> log10 ratio).
    The sampling facts are None for an exact tail list."""
    kinds: tuple
    rows: tuple
    verdict: str
    cp_level: float
    n_samples: Optional[int] = None
    seed: Optional[int] = None
    mean_value: Optional[float] = None
    mean_half_width: Optional[float] = None

    def to_dict(self):
        d = {"rows": list(self.rows), "verdict": self.verdict, "cp_level": self.cp_level}
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
        lo, hi = zip(*est.intervals())
        facts = dict(cp_level=est.cp_level, n_samples=est.n_samples, seed=est.seed,
                     mean_value=est.mean_value, mean_half_width=est.mean_half_width)
    else:
        emp = tuple(float(x) for x in est)
        if len(emp) != len(ref):
            raise ValueError("exact tail list does not match bound grid")
        lo = hi = emp
        facts = dict(cp_level=1.0)

    for k in kinds:     # lo > NaN is False, which would read SOUND
        for t, r in zip(ref, bounds[k]):
            if math.isnan(r.prob):
                raise ValueError(f"bound {k} is NaN at t={t}")
    rows = []
    for i, t in enumerate(ref):
        probs = {k: bounds[k][i].prob for k in kinds}
        bad = any(lo[i] > b for b in probs.values())
        rows.append({"t": t, "empirical": emp[i], "cp_lower": lo[i], "cp_upper": hi[i],
                     "bounds": probs, "verdict": "VIOLATION" if bad else "SOUND"})
    overall = "VIOLATION" if any(r["verdict"] == "VIOLATION" for r in rows) else "SOUND"
    return VerificationReport(kinds=kinds, rows=tuple(rows), verdict=overall, **facts)


def compare_bounds(fspec, kinds, t_grid, n_samples, seed, p=None,
                   threads=1) -> VerificationReport:
    """Single estimation pass, all requested bounds, and each row's log10
    tightness ratios (bound over empirical; inf where no exceedance was
    observed, -inf where the bound is 0).  The bounds come first, so a
    profile error costs no samples."""
    bounds = bounds_on_grid(fspec, kinds, t_grid, p=p)
    est = estimate_tail(fspec, t_grid, n_samples, seed, threads=threads)
    report = check_bounds(est, bounds)
    rows = []
    for row in report.rows:
        e = row["empirical"]
        ratios = {k: math.inf if e == 0.0 else -math.inf if b == 0.0 else math.log10(b / e)
                  for k, b in row["bounds"].items()}
        rows.append({**row, "ratios_log10": ratios})
    return replace(report, rows=tuple(rows))


def report_to_csv(report: VerificationReport) -> str:
    """Fixed column order: t, empirical, cp_lo, cp_hi, one column per bound
    kind (plus ratio columns when the rows have them), verdict.  Each number
    is written with repr, its shortest round-trip decimal."""
    ratios = any("ratios_log10" in row for row in report.rows)
    cols = ["t", "empirical", "cp_lo", "cp_hi", *report.kinds]
    if ratios:
        cols += [f"ratio_log10_{k}" for k in report.kinds]
    lines = [",".join(cols + ["verdict"])]
    for row in report.rows:
        cells = [row["t"], row["empirical"], row["cp_lower"], row["cp_upper"],
                 *row["bounds"].values(), *row.get("ratios_log10", {}).values()]
        lines.append(",".join(map(repr, cells)) + "," + row["verdict"])
    return "\n".join(lines) + "\n"
