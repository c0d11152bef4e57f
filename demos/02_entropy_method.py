"""The entropy method on finite probability spaces, exactly.

Everything here is computed by enumeration: the entropy
S(Y) = E_Y[Y] - ln E[e^Y] under the tilted expectation, the two
integral representations of the log-MGF, and the subadditivity
inequality that turns per-coordinate entropy bounds into tail bounds
for a full function of independent variables.
"""
import math

import numpy as np

from lighttails.distributions import FiniteSupport
from lighttails.entropy import (ProductTable, entropy, entropy_bound_holder,
                                entropy_bound_subexponential,
                                entropy_bound_subgaussian,
                                fluctuation_entropy, log_mgf_via_entropy,
                                subadditivity_gap)

rademacher = FiniteSupport([-1.0, 1.0], [0.5, 0.5])

print("log-MGF recovered from an entropy integral:")
for beta in (0.5, 1.0, 2.0):
    direct, integral = log_mgf_via_entropy(rademacher, beta)
    print(f"  beta = {beta:3.1f}: ln cosh = {direct:.10f},"
          f" integral form = {integral:.10f}")

print()
print("the fluctuation representation gives the same entropy:")
y = FiniteSupport([-1.0, 0.2, 1.5], [0.3, 0.5, 0.2])
print(f"  S(Y) direct = {entropy(y):.10f},"
      f" via fluctuations = {fluctuation_entropy(y):.10f}")

print()
print("entropy bounds for centered laws:")
s, bound = entropy_bound_subgaussian(rademacher, 1.0)
print(f"  sub-Gaussian: S = {s:.6f} <= {bound:.6f}")
small = FiniteSupport([-0.1, 0.1], [0.5, 0.5])
s, bound = entropy_bound_subexponential(small)
print(f"  sub-exponential (psi1 < 1/e): S = {s:.6f} <= {bound:.6f}")
s, bound = entropy_bound_holder(small, 2.0)
print(f"  Holder/moment form (p = 2):  S = {s:.6f} <= {bound:.6f}")

print()
print("subadditivity over a product space (gap must be >= 0):")
rng = np.random.default_rng(0)
supports = [FiniteSupport(rng.uniform(-1, 1, 3), rng.dirichlet(np.ones(3)))
            for _ in range(3)]
f = rng.uniform(-2.0, 2.0, (3, 3, 3))
table = ProductTable(supports, f)
for gamma in (0.1, 1.0, 2.0):
    print(f"  gamma = {gamma:3.1f}: gap = {subadditivity_gap(table, gamma):.6f}")

print()
print("a function with one dominant coordinate nearly saturates it:")
f = np.zeros((3, 3, 3)) + np.array(supports[0].values)[:, None, None]
print(f"  gap = {subadditivity_gap(ProductTable(supports, f), 1.0):.3e}"
      f" (sum-of-coordinates case collapses to equality)")
