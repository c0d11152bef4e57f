"""The falsification harness: empirical tails vs closed-form bounds.

Every bound claim is checked against deterministic Monte-Carlo tail
estimates with exact binomial (Clopper-Pearson) confidence intervals.
A bound is flagged VIOLATION only when the lower confidence limit
exceeds it; a deliberately falsified bound demonstrates the harness
has teeth.
"""
import numpy as np

from lighttails import distributions as D
from lighttails.functions import SumFunction
from lighttails.verify import (bounds_on_grid, check_bounds, compare_bounds,
                               estimate_tail, falsified_bounds, report_to_csv)

fspec = SumFunction([D.Exponential(1.0)] * 10)
grid = list(np.linspace(2.0, 20.0, 6))

print("empirical tail of a ten-fold Exp(1) sum (N = 10^5, seed 7):")
est = estimate_tail(fspec, grid, 10 ** 5, seed=7)
for t, emp, (lo, hi) in zip(grid, est.empirical_tail, est.intervals()):
    print(f"  t = {t:5.1f}: empirical {emp:.5f},"
          f" 99.9% CP interval [{lo:.5f}, {hi:.5f}]")

print()
print("verdict against the sub-exponential bound:")
report = check_bounds(est, bounds_on_grid(fspec, ["thm2"], grid))
for row in report.rows:
    print(f"  t = {row['t']:5.1f}: bound {row['bounds']['thm2']:.3e} -> {row['verdict']}")
print(f"  overall: {report.verdict}")

print()
print("negative control: halving the bound on a fair-coin flip at t = 1/2")
coin = SumFunction([D.Rademacher()])
est = estimate_tail(coin, [0.5], 10 ** 6, seed=1)
bad = falsified_bounds(bounds_on_grid(coin, ["thm2"], [0.5]))
report = check_bounds(est, bad)
lo = report.rows[0]["cp_lower"]
b = report.rows[0]["bounds"]["thm2-falsified"]
print(f"  CP lower limit {lo:.5f} > falsified bound {b:.5f}"
      f" -> {report.verdict}")

print()
print("tightness comparison (log10 bound/empirical; inf = no exceedances):")
report = compare_bounds(fspec, ["thm2", "thm3"], grid, 10 ** 5, seed=7, p=2.0)
print(report_to_csv(report))

print("thread count never changes the counts:")
a = estimate_tail(fspec, grid, 3 * 10 ** 5, seed=9, threads=1)
b = estimate_tail(fspec, grid, 3 * 10 ** 5, seed=9, threads=8)
print(f"  1 thread vs 8 threads identical: {a == b}")
