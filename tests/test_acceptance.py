"""Acceptance gate: the twelve end-to-end criteria, each against an
independent oracle or an exact enumeration, at the stated tolerances.

Each test prints a single PASS line when it succeeds; pytest's own
PASSED/FAILED line per test is the machine-readable verdict.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import chi, gamma, ncx2

from exact import lemma_grid_min, worst_case_profile
from lighttails import applications as apps
from lighttails import cli
from lighttails import distributions as D
from lighttails import entropy as ent
from lighttails import functions as fn
from lighttails import verify as V
from lighttails.bounds import ProxyProfile, evaluate_tail, invert_tail, optimization_lemma
from lighttails.orlicz import mgf_bound_check, psi_norm, psi_norm_finite

E = math.e
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def config(name):
    return os.path.join(CONFIGS, name)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_orlicz_norm_oracles():
    ps = np.exp(np.linspace(0.0, math.log(256.0), 10 ** 4))

    start = time.perf_counter()
    got1 = psi_norm(D.Exponential(1.0), 1).value
    t1 = time.perf_counter() - start
    # Exp(1): ||X||_p = Gamma(p+1)^(1/p), oracle maximized on a dense grid
    oracle1 = float(np.max(np.exp(gammaln(ps + 1.0) / ps) / ps))
    assert got1 == pytest.approx(1.0, abs=1e-6)
    assert got1 == pytest.approx(oracle1, abs=1e-6)
    assert t1 < 1.0

    start = time.perf_counter()
    got2 = psi_norm(D.Rademacher(), 2).value
    t2 = time.perf_counter() - start
    oracle2 = float(np.max(1.0 / np.sqrt(ps)))
    assert got2 == pytest.approx(1.0, abs=1e-12)
    assert got2 == pytest.approx(oracle2, abs=1e-12)
    assert t2 < 1.0
    ok(1, f"psi1(Exp(1)) = {got1:.8f}, psi2(Rademacher) = {got2:.14f} "
          f"match dense-grid oracles ({t1 + t2:.2f} s)")


def test_criterion_02_mgf_bound():
    start = time.perf_counter()
    specs = [D.Gaussian(0.0, 1.0), D.Rademacher(),
             D.Centered(D.UniformInterval(0.0, 1.0))]
    worst = math.inf
    for spec in specs:
        for beta in np.linspace(-5.0, 5.0, 101):
            m, bound = mgf_bound_check(spec, float(beta))
            worst = min(worst, bound - m)
            assert bound - m >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(2, f"MGF bound holds on 3 laws x 101 betas, worst slack {worst:.3g} "
          f"({elapsed:.2f} s)")


def random_dist(rng, max_support=8, value_range=2.0):
    m = int(rng.integers(2, max_support + 1))
    return D.FiniteSupport(rng.uniform(-value_range, value_range, m),
                           rng.dirichlet(np.ones(m)))


def centered_law(y):
    values, probs = np.array(y.values), np.array(y.probs)
    return D.FiniteSupport(values - math.fsum(probs * values), probs)


def test_criterion_03_entropy_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        y = random_dist(rng)
        for beta in (0.25, 1.0, 3.0):
            direct, integral = ent.log_mgf_via_entropy(y, beta)
            worst = max(worst, abs(direct - integral))
            assert abs(direct - integral) < 1e-8
        gap = abs(ent.fluctuation_entropy(y) - ent.entropy(y))
        worst = max(worst, gap)
        assert gap < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(3, f"log-MGF and fluctuation representations agree to {worst:.3g} "
          f"on 20 random laws ({elapsed:.2f} s)")


def test_criterion_04_subadditivity():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 4))
        supports = [random_dist(rng, max_support=4, value_range=1.5)
                    for _ in range(n)]
        f = rng.uniform(-2.0, 2.0, tuple(len(s.values) for s in supports))
        table = ent.ProductTable(supports, f)
        for gamma_ in (0.1, 1.0, 2.0):
            gap = ent.subadditivity_gap(table, gamma_)
            worst = min(worst, gap)
            assert gap >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(4, f"entropy subadditivity gap >= {worst:.3g} on 100 random product "
          f"tables x 3 tilts ({elapsed:.2f} s)")


def test_criterion_05_entropy_lemmas():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = math.inf

    # sub-Gaussian entropy bound, both the log-MGF and the psi2 form
    for _ in range(100):
        y = random_dist(rng)
        centered = centered_law(y)
        for beta in (0.5, 1.0):
            s, bound = ent.entropy_bound_subgaussian(centered, beta)
            part_i = float(logsumexp(2.0 * beta * np.array(centered.values),
                                     b=centered.probs))
            psi2 = psi_norm_finite(centered.values, centered.probs, 2).value
            part_ii = 16.0 * E * beta ** 2 * psi2 ** 2
            for b in (bound, part_i, part_ii):
                worst = min(worst, b - s)
                assert s <= b + 1e-10

    # sub-exponential and Holder bounds need small psi norms
    def admissible(builder, check):
        done = 0
        while done < 100:
            y = random_dist(rng, value_range=0.08)
            y = centered_law(y)
            try:
                s, bound = check(y)
            except ent.LemmaHypothesisError:
                continue
            nonlocal worst
            worst = min(worst, bound - s)
            assert s <= bound + 1e-10
            done += 1

    admissible(None, ent.entropy_bound_subexponential)
    admissible(None, lambda y: ent.entropy_bound_holder(y, 2.0, variant="psi1"))
    admissible(None, lambda y: ent.entropy_bound_holder(y, 2.0, variant="psi2"))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(5, f"all entropy lemma bounds hold, worst slack {worst:.3g} "
          f"(100 admissible laws each, {elapsed:.2f} s)")


def test_criterion_06_optimization_lemma():
    # the closed-form infimum against a dense grid, and below the lemma's
    # rhs (up to a rounding where the two coincide, t -> 0)
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(300):
        c, b, t = rng.uniform(0.01, 10.0, 3)
        rhs, infimum = optimization_lemma(c, b, t)
        grid = lemma_grid_min(c, b, t)
        worst = max(worst, (grid - infimum) / -infimum)
        assert infimum <= rhs * (1.0 - 1e-15)
        assert infimum * (1.0 + 1e-15) <= grid <= infimum * (1.0 - 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(6, f"closed-form infimum below the lemma's rhs and within {worst:.3g} of a "
          f"2e5-point grid for 300 random triples ({elapsed:.2f} s)")


def test_criterion_07_exact_enumeration_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(113)
    checks = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        supports = [random_dist(rng, max_support=4, value_range=1.5)
                    for _ in range(n)]
        f = rng.uniform(-2.0, 2.0, tuple(len(s.values) for s in supports))
        table = ent.ProductTable(supports, f)
        profile = worst_case_profile(table, 2.0)
        mu = float(np.dot(table.joint_probs().ravel(), f.ravel()))
        tmax = float(np.max(f) - mu)
        if tmax <= 0:
            continue
        t_grid = list(np.linspace(tmax / 20.0, tmax, 20))
        exact = V.exact_tail_enumeration(table, t_grid)
        for kind in ("thm1", "thm2", "thm3"):
            for t, p_exact in zip(t_grid, exact):
                bound = evaluate_tail(kind, profile, t, p=2.0).prob
                assert p_exact <= bound + 1e-12
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ok(7, f"thm1/thm2/thm3 dominate exact tails in all {checks} checks "
          f"over 50 random product instances ({elapsed:.2f} s)")


def test_criterion_08_monte_carlo_soundness():
    n_samples = 10 ** 6

    # harness self-check: Gamma(10,1) exact tail inside every CP interval
    start = time.perf_counter()
    gamma_spec = fn.SumFunction([D.Exponential(1.0)] * 10)
    grid = list(np.linspace(1.0, 10.0, 20))
    est = V.estimate_tail(gamma_spec, grid, n_samples, seed=42)
    for t, (lo, hi) in zip(grid, est.intervals()):
        truth = float(gamma.sf(10.0 + t, 10))
        assert lo <= truth <= hi
    report = V.check_bounds(est, V.bounds_on_grid(gamma_spec, ["thm2"], grid))
    assert report.verdict == "SOUND"
    t_sum = time.perf_counter() - start
    assert t_sum < 120.0

    # the chi draw's self-check: ||sum|| is sqrt(20) chi_5, and the
    # exact chi tail lies inside every CP interval
    start = time.perf_counter()
    vec = D.VectorSpec(5, [D.Gaussian(0.0, 1.0)] * 5)
    norm_spec = fn.VectorNormOfSum(vec, n=20)
    assert norm_spec.sampler_layout == "chi"
    grid = list(np.linspace(1.0, 30.0, 20))
    est = V.estimate_tail(norm_spec, grid, n_samples, seed=42)
    for t, (lo, hi) in zip(grid, est.intervals()):
        truth = float(chi.sf((est.mean_value + t) / math.sqrt(20.0), 5))
        assert lo <= truth <= hi
    report = V.check_bounds(est, V.bounds_on_grid(norm_spec, ["thm1", "thm2"], grid))
    assert report.verdict == "SOUND"
    t_vec = time.perf_counter() - start
    assert t_vec < 120.0

    start = time.perf_counter()
    metric_spec = fn.MetricLipschitz(
        1.0,
        [D.Gaussian(0.0, 1.0), D.UniformInterval(0.0, 1.0), D.Exponential(1.0)],
        ["sin", "abs", "identity"])
    grid = list(np.linspace(0.5, 10.0, 20))
    report = V.check_bounds(
        V.estimate_tail(metric_spec, grid, n_samples, seed=42),
        V.bounds_on_grid(metric_spec, ["thm2"], grid))
    assert report.verdict == "SOUND"
    t_met = time.perf_counter() - start
    assert t_met < 120.0
    ok(8, f"CP 99.9% lower limits stay below the bounds for all three specs "
          f"at N=10^6; Gamma and chi sf inside every interval "
          f"({t_sum:.1f}/{t_vec:.1f}/{t_met:.1f} s)")


def test_criterion_08_summed_gaussian_self_check():
    # the gauss_norm leg above draws the chi law; entries N(mu, sd^2) with
    # mu != 0 keep the summed draw, and ||S||^2 / (n sd^2) of the
    # uncentered sum S is noncentral chi-squared(dim, n dim mu^2 / sd^2)
    start = time.perf_counter()
    dim, n, mu, sd = 4, 16, 0.5, 1.5
    spec = fn.VectorNormOfSum(D.VectorSpec(dim, [D.Gaussian(mu, sd)] * dim), n)
    assert spec.sampler_layout == "summed"
    grid = list(np.linspace(1.0, 25.0, 20))
    est = V.estimate_tail(spec, grid, 10 ** 6, seed=42)
    # the counts are taken above t + mean_value + mean_half_width
    shift = est.mean_value + est.mean_half_width
    for t, (lo, hi) in zip(grid, est.intervals()):
        truth = float(ncx2.sf((shift + t) ** 2 / (n * sd * sd), dim, n * dim * mu * mu / (sd * sd)))
        assert lo <= truth <= hi
    report = V.check_bounds(est, V.bounds_on_grid(spec, ["thm1", "thm2"], grid))
    assert report.verdict == "SOUND"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ok(8, f"summed Gaussian vector norm: noncentral chi-squared sf inside "
          f"every CP interval at N=10^6 ({elapsed:.1f} s)")


def test_criterion_08_per_coordinate_sum_self_check():
    # the iid Gamma(10) leg above draws its sum law; unequal components
    # with the same sum keep the per-coordinate draws of the sum kind, and
    # 0.5 chi-squared(2) is Exp(1), so the exact Gamma(10,1) tail still holds
    start = time.perf_counter()
    assert fn.SumFunction([D.Exponential(1.0)] * 10).sampler_layout == "summed"
    spec = fn.SumFunction([D.Exponential(1.0)] * 9 + [D.Scaled(D.ChiSquared(2), 0.5)])
    assert spec.sampler_layout == "per-coordinate"
    grid = list(np.linspace(1.0, 10.0, 20))
    est = V.estimate_tail(spec, grid, 10 ** 6, seed=42)
    for t, (lo, hi) in zip(grid, est.intervals()):
        truth = float(gamma.sf(10.0 + t, 10))
        assert lo <= truth <= hi
    report = V.check_bounds(est, V.bounds_on_grid(spec, ["thm2"], grid))
    assert report.verdict == "SOUND"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ok(8, f"per-coordinate sum of unequal components: Gamma(10) sf inside "
          f"every CP interval at N=10^6 ({elapsed:.1f} s)")


def test_criterion_09_negative_control(capsys):
    start = time.perf_counter()
    code = cli.main(["verify", "--spec", config("sum_rademacher1.json"),
                     "--bounds", "thm2", "--t-grid", "0.5:0.5:1",
                     "--n", "1000000", "--seed", "1", "--negative-control"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 2
    assert json.loads(out)["verdict"] == "VIOLATION"
    assert elapsed < 60.0
    ok(9, f"halved bound flagged VIOLATION with exit code 2 ({elapsed:.2f} s)")


def test_criterion_10_cross_derivations():
    start = time.perf_counter()
    rng = np.random.default_rng(127)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        psis = rng.uniform(0.01, 3.0, k)
        delta = rng.uniform(1e-8, 0.99)
        lhs = apps.vector_bound_i(psis, delta)
        prof = ProxyProfile(counts=(1,) * k, psi1_per_coord=tuple(2.0 * x for x in psis))
        rhs = invert_tail("thm2", prof, delta).additive
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    for psi2, d, n, delta in [(1.3, 3, 500, 0.05), (0.7, 1, 50, 0.1),
                              (2.0, 10, 10 ** 4, 0.01)]:
        lhs = apps.psa_bound(psi2, d, n, delta)
        part = apps.vector_bound_ii(2.0 * psi2 ** 2, n, delta / 2.0)
        assert abs(lhs - (math.sqrt(d) * part + part)) <= 1e-10 * max(1.0, lhs)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(10, f"vector bound recomposes from tail inversion and PSA from two "
           f"norm bounds, all to 1e-10 ({elapsed:.2f} s)")


def test_criterion_11_monotonicity_and_preconditions():
    start = time.perf_counter()
    deltas = [0.2, 0.05, 0.01, 1e-4]
    ns = [50, 200, 1000]
    forms = [lambda n, d: apps.vector_bound_ii(1.0, n, d),
             lambda n, d: apps.vector_bound_iii(1.0, 1.0, 2.0, n, min(d, 0.5)),
             lambda n, d: apps.psa_bound(1.0, 2, n, d),
             lambda n, d: apps.rademacher_generalization_bound(0.0, 1.0, 1.0, n, d),
             lambda n, d: apps.regression_bound(1.0, 1.0, 1.0, n, d)]
    for f in forms:
        for d in deltas:
            vals = [f(n, d) for n in ns]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for n in ns:
            vals = [f(n, d) for d in deltas]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    with pytest.raises(apps.PreconditionError, match="delta"):
        apps.vector_bound_iii(1.0, 1.0, 2.0, 100, 0.6)
    for bad in (lambda: apps.vector_bound_ii(1.0, 2, 1e-4),
                lambda: apps.rademacher_generalization_bound(0.0, 1.0, 1.0, 2, 1e-4),
                lambda: apps.psa_bound(1.0, 2, 2, 1e-4)):
        with pytest.raises(apps.PreconditionError, match="n >= ln"):
            bad()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(11, f"application bounds monotone in n and ln(1/delta); out-of-domain "
           f"calls raise named errors ({elapsed:.2f} s)")


def test_criterion_12_determinism(tmp_path, capsys):
    start = time.perf_counter()
    # repeats and --threads 1 vs 8; sum_exp10 samples in the summed layout,
    # gauss_norm in the chi layout
    for name, grid, runs in (("sum_exp10", "2:20:10", ("1", "1", "8")),
                             ("gauss_norm", "1:30:20", ("1", "8"))):
        outputs = set()
        for i, threads in enumerate(runs):
            path = str(tmp_path / f"{name}-{i}.csv")
            code = cli.main(["verify", "--spec", config(f"{name}.json"),
                             "--bounds", "thm2", "--t-grid", grid,
                             "--n", "1000000", "--seed", "42",
                             "--threads", threads, "--format", "csv",
                             "--output", path])
            capsys.readouterr()
            assert code == 0
            with open(path, "rb") as fh:
                outputs.add(fh.read())
        assert len(outputs) == 1, name
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    ok(12, f"verify outputs byte-identical across repeats and "
           f"--threads 1 vs 8, summed and chi ({elapsed:.2f} s)")
