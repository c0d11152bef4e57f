import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from lighttails import applications as A
from lighttails import distributions as D
from lighttails.bounds import ProxyProfile, _squares, evaluate_tail, invert_tail
from lighttails.orlicz import OrliczEstimate, psi_norm

E = math.e


class TestVectorBoundI:
    def test_delta_to_one(self):
        assert A.vector_bound_i([1.0, 2.0], 1 - 1e-14) < 1e-5

    def test_matches_inversion_additive(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            psis = rng.uniform(0.01, 3.0, k)
            delta = rng.uniform(1e-8, 0.99)
            lhs = A.vector_bound_i(psis, delta)
            prof = ProxyProfile(counts=(1,) * k, psi1_per_coord=tuple(2.0 * x for x in psis))
            rhs = invert_tail("thm2", prof, delta).additive
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, lhs))

    def test_identical_entries(self):
        n, c, delta = 7, 0.8, 0.05
        big_l = math.log(1 / delta)
        want = 4 * E * c * (math.sqrt(n * big_l) + big_l)
        assert A.vector_bound_i([c] * n, delta) == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_tiny_entries_give_the_bound_at_scale_one(self, scale):
        # sum psi1_k^2 underflowed to 0: 50.07e-170 for 83.07e-170 at 1e-170
        assert A.vector_bound_i([scale, scale], 0.01) / scale == pytest.approx(
            A.vector_bound_i([1.0, 1.0], 0.01), rel=1e-12)


class TestVectorBoundII:
    def test_direct_value(self):
        assert A.vector_bound_ii(1.0, 100, 0.01) == pytest.approx(
            8 * E * math.sqrt(2 * math.log(100) / 100), rel=1e-13)
        assert A.vector_bound_ii(1.0, 100, 0.01) == pytest.approx(6.60, abs=5e-3)

    def test_boundary_admission(self):
        assert A.vector_bound_ii(1.0, 1, 0.5) == pytest.approx(
            8 * E * math.sqrt(2 * math.log(2.0)), rel=1e-13)

    def test_sqrt2_scaling(self):
        assert (A.vector_bound_ii(1.0, 100, 0.01)
                / A.vector_bound_ii(1.0, 200, 0.01)) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_precondition(self):
        with pytest.raises(A.PreconditionError, match="ln 2"):
            A.vector_bound_ii(1.0, 100, 0.6)
        with pytest.raises(A.PreconditionError, match="n >= ln"):
            A.vector_bound_ii(1.0, 2, 1e-4)


class TestVectorBoundIII:
    def test_domain(self):
        assert np.isfinite(A.vector_bound_iii(1.0, 1.0, 2.0, 10, 0.5))
        with pytest.raises(A.PreconditionError):
            A.vector_bound_iii(1.0, 1.0, 2.0, 10, 0.6)

    def test_term_scaling(self):
        f = lambda n: A.vector_bound_iii(1.0, 1.0, 2.0, n, 0.01)
        # at large n the 1/sqrt(n) moment term dominates
        assert f(10 ** 8) / f(4 * 10 ** 8) == pytest.approx(2.0, abs=1e-2)

    def test_beats_ii_when_moments_small(self):
        assert (A.vector_bound_iii(0.1, 1.0, 2.0, 10 ** 4, 0.01)
                < A.vector_bound_ii(1.0, 10 ** 4, 0.01))


class TestPsaBound:
    def test_direct_value(self):
        assert A.psa_bound(1.0, 1, 100, 0.02) == pytest.approx(
            32 * E * math.sqrt(2 * math.log(100) / 100), rel=1e-13)

    def test_sqrt_d_scaling(self):
        vals = [A.psa_bound(1.0, d, 100, 0.02) for d in (1, 4, 9, 16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        ratio = (math.sqrt(16) + 1) / (math.sqrt(4) + 1)
        assert vals[3] / vals[1] == pytest.approx(ratio, rel=1e-12)

    def test_recomposition(self):
        for psi2, d, n, delta in [(1.3, 3, 500, 0.05), (0.7, 1, 50, 0.1)]:
            lhs = A.psa_bound(psi2, d, n, delta)
            part = A.vector_bound_ii(2 * psi2 ** 2, n, delta / 2)
            assert lhs == pytest.approx(math.sqrt(d) * part + part, abs=1e-10)

    def test_preconditions(self):
        with pytest.raises(A.PreconditionError):
            A.psa_bound(1.0, 0, 100, 0.02)
        with pytest.raises(A.PreconditionError):
            A.psa_bound(1.0, 2, 2, 0.01)


class TestGeneralizationBounds:
    def test_rademacher_boundary(self):
        delta = 0.05
        n = math.log(1 / delta)
        val = A.rademacher_generalization_bound(0.0, 1.0, 1.0, n, delta)
        assert val == pytest.approx(16 * E, rel=1e-12)

    def test_rademacher_additivity_and_homogeneity(self):
        a = A.rademacher_generalization_bound(0.0, 1.0, 1.0, 100, 0.1)
        b = A.rademacher_generalization_bound(2.5, 1.0, 1.0, 100, 0.1)
        assert b - a == pytest.approx(2.5, rel=1e-12)
        c = A.rademacher_generalization_bound(0.0, 2.0, 1.0, 100, 0.1)
        assert c == pytest.approx(2 * a, rel=1e-12)

    def test_regression_value(self):
        val = A.regression_bound(1.0, 1.0, 0.0, 100, 1 / E)
        assert val == pytest.approx(0.8 * (1 + 2 * E), rel=1e-13)

    def test_regression_symmetry(self):
        assert A.regression_bound(1.0, 0.3, 0.9, 100, 0.1) == pytest.approx(
            A.regression_bound(1.0, 0.9, 0.3, 100, 0.1), rel=1e-13)

    def test_regression_scaling(self):
        assert (A.regression_bound(1.0, 1.0, 1.0, 100, 0.1)
                / A.regression_bound(1.0, 1.0, 1.0, 400, 0.1)) == pytest.approx(2.0, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(A.PreconditionError):
            A.rademacher_generalization_bound(0.0, 1.0, 1.0, 2, 1e-3)
        with pytest.raises(A.PreconditionError):
            A.regression_bound(1.0, 1.0, 1.0, 2, 1e-3)


class TestMetricTail:
    def test_degenerate(self):
        res = A.metric_tail(1.0, [0.0, 0.0], 1.0)
        assert res.prob == 0.0 and "degenerate" in res.note

    def test_a_diameter_set_by_its_tail_bound_reads_its_upper(self):
        # the atom of mass 1e-200 puts the diameter's p* past 256, where the
        # value read is half the norm or less: the bound reads the upper
        d = A.psi_diameter(D.FiniteSupport((0.0, 1.0), (1.0, 1e-200)), 1)
        assert d.method == "tail-bound" and d.proxy_value == d.upper > 2.0 * d.value
        assert A.metric_tail(1.0, [d, 0.5], 1.0) == A.metric_tail(1.0, [d.upper, 0.5], 1.0)

    def test_identical_diameters(self):
        for n in (1, 4):
            res = A.metric_tail(1.0, [0.5] * n, 1.0)
            want = math.exp(-1.0 / (4 * E * n * 0.25 + 2 * E * 0.5))
            assert res.prob == pytest.approx(want, rel=1e-13)

    def test_quadratic_term_matches_thm2_structure(self):
        # same quadratic-plus-linear shape as the psi1 bound with entries L*D
        diam = [0.3, 0.7]
        res = A.metric_tail(1.0, diam, 2.0)
        prof = ProxyProfile(counts=(1, 1), psi1_per_coord=diam)
        ref = evaluate_tail("thm2", prof, 2.0)
        v, m = _squares(diam, prof.counts), max(diam)
        assert res.log_prob == pytest.approx(
            ref.log_prob * (4 * E ** 2 * v + 2 * E * m * 2.0)
            / (4 * E * v + 2 * E * m * 2.0), rel=1e-12)

    @pytest.mark.parametrize("lip", [0.25, 2.0, 10.0])
    def test_lipschitz_constant_is_a_scale(self, lip):
        # f/L is 1-Lipschitz: the L bound at t is the L = 1 bound at t/L.  The
        # linear term used to leave L out, which gave 0.8804 for 0.9017 at
        # L = 2 and 0.5919 for 0.1609 at L = 0.25 (D = 0.5, 1.0 and t = 3)
        diam = [0.5, 1.0]
        for t in (0.5, 3.0, 40.0):
            res, ref = A.metric_tail(lip, diam, t), A.metric_tail(1.0, diam, t / lip)
            assert res.log_prob == pytest.approx(ref.log_prob, rel=1e-12)
            assert res.prob == pytest.approx(ref.prob, rel=1e-12)

    @pytest.mark.parametrize("lip, c", [(1.0, 1e-300), (1.0, 1e-160), (1e-300, 1.0),
                                        (1e-160, 1e-140)])
    def test_tiny_scales_give_the_bound_at_scale_one(self, lip, c):
        # the squares of L and the diameters underflowed: 0/0 at L D = 1e-300
        # and digits lost at 1e-160; f = L (X1 + X2) for X_k ~ U(0, c), whose
        # exact tail at t = r L c is (1 - r)^2 / 2 for r < 1
        diam = A.psi_diameter(D.Scaled(D.UniformInterval(0.0, 1.0), c), 1)
        unit = A.psi_diameter(D.UniformInterval(0.0, 1.0), 1)
        for ratio in (0.1, 1.0, 3.0):
            res = A.metric_tail(lip, [diam, diam], ratio * lip * c)
            ref = A.metric_tail(1.0, [unit, unit], ratio)
            assert res.note == "" and res.prob >= max(1.0 - ratio, 0.0) ** 2 / 2.0
            assert res.log_prob == pytest.approx(ref.log_prob, rel=1e-12, abs=0.0)

    def test_accepts_psi_diameter_objects(self):
        diam = A.psi_diameter(D.UniformInterval(0.0, 1.0), 1)
        assert isinstance(diam, OrliczEstimate)
        for d in (diam, OrliczEstimate(1, 0.5, 1.0, "closed-form", 0.5)):
            res = A.metric_tail(1.0, [d], 1.0)
            assert 0 < res.prob < 1
            assert res.log_prob == A.metric_tail(1.0, [d.value], 1.0).log_prob


class TestPreconditions:
    @pytest.mark.parametrize("bound, args, message", [
        (A.vector_bound_i, ([1.0], 1.5), "delta must lie in (0,1), got 1.5"),
        (A.vector_bound_i, ([], 0.1), "psi1_per_coord must be nonempty"),
        (A.vector_bound_i, ([1.0, -1.0], 0.1), "psi1 entries must be nonnegative"),
        (A.vector_bound_ii, (-1.0, 10, 0.1), "psi1 must be nonnegative, got -1.0"),
        (A.vector_bound_iii, (-1.0, 1.0, 2.0, 10, 0.1), "norm inputs must be nonnegative"),
        (A.vector_bound_iii, (1.0, 1.0, 1.0, 10, 0.1), "p must exceed 1, got 1.0"),
        (A.vector_bound_iii, (1.0, 1.0, 2.0, 0, 0.1), "n must be positive, got 0"),
        (A.psa_bound, (-1.0, 1, 10, 0.1), "psi2_of_norm must be nonnegative, got -1.0"),
        (A.rademacher_generalization_bound, (0.0, -1.0, 1.0, 10, 0.1),
         "L and psi1 must be nonnegative"),
        (A.regression_bound, (1.0, 1.0, -1.0, 10, 0.1), "norm inputs must be nonnegative"),
        (A.metric_tail, (-1.0, [1.0], 1.0), "L must be nonnegative, got -1.0"),
        (A.metric_tail, (1.0, [], 1.0), "diameters must be nonempty"),
        (A.metric_tail, (1.0, [1.0, -0.5], 1.0), "diameters must be nonnegative"),
    ])
    def test_names_the_failing_input(self, bound, args, message):
        with pytest.raises(A.PreconditionError) as info:
            bound(*args)
        assert str(info.value) == message

    def test_metric_tail_needs_positive_t(self):
        with pytest.raises(ValueError, match="t must be positive, got 0.0"):
            A.metric_tail(1.0, [1.0], 0.0)


class TestMonotonicity:
    def test_in_n_and_delta(self):
        deltas = [0.2, 0.05, 0.01, 1e-4]
        ns = [50, 200, 1000]
        for f in (lambda n, d: A.vector_bound_ii(1.0, n, d),
                  lambda n, d: A.vector_bound_iii(1.0, 1.0, 2.0, n, min(d, 0.5)),
                  lambda n, d: A.psa_bound(1.0, 2, n, d),
                  lambda n, d: A.rademacher_generalization_bound(0.0, 1.0, 1.0, n, d),
                  lambda n, d: A.regression_bound(1.0, 1.0, 1.0, n, d)):
            for d in deltas:
                vals = [f(n, d) for n in ns]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            for n in ns:
                vals = [f(n, d) for d in deltas]
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestPsiDiameter:
    def test_probs_at_the_edge_of_their_tolerance(self):
        # the pair law of probs summing to 1 + 9e-13 would sum to 1 + 1.8e-12
        law = D.FiniteSupport([0.0, 1.0, 3.0], [0.3, 0.3, 0.4 + 9e-13])
        exact = D.FiniteSupport([0.0, 1.0, 3.0], [0.3, 0.3, 0.4])
        for alpha in (1, 2):
            assert A.psi_diameter(law, alpha).value == pytest.approx(
                A.psi_diameter(exact, alpha).value, rel=1e-11)

    def test_point_mass(self):
        assert A.psi_diameter(D.FiniteSupport((3.0,), (1.0,)), 1).value == 0.0

    def test_rademacher_oracle(self):
        got = A.psi_diameter(D.Rademacher(), 1).value
        ps = np.exp(np.linspace(0, math.log(256.0), 10 ** 4))
        oracle = max((2.0 ** p * 0.5) ** (1.0 / p) / p for p in ps)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_scaling(self):
        base = A.psi_diameter(D.UniformInterval(0.0, 1.0), 2).value
        scaled = A.psi_diameter(D.Scaled(D.UniformInterval(0.0, 1.0), -2.5), 2).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)

    def test_shift_invariance(self):
        base = A.psi_diameter(D.Gaussian(0.0, 1.0), 2).value
        shifted = A.psi_diameter(D.Gaussian(7.0, 1.0), 2).value
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_gaussian_closed_form(self):
        got = A.psi_diameter(D.Gaussian(0.0, 2.0), 2).value
        want = math.sqrt(2.0) * 2.0 * psi_norm(D.Gaussian(0.0, 1.0), 2).value
        assert got == pytest.approx(want, rel=1e-9)

    def test_exponential_mc(self):
        got = A.psi_diameter(D.Exponential(2.0), 1).value
        x = D.sample(D.Exponential(2.0), seed=1, count=10 ** 5)
        y = D.sample(D.Exponential(2.0), seed=1, count=10 ** 5, stream=1)
        diff = np.abs(x - y)
        for p in (1.0, 2.0, 4.0):
            emp = (diff ** p).mean() ** (1 / p)
            assert got * p >= emp - 0.02

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 4.5), (2.0, 2.25)])
    def test_uniform_matches_gap_moments(self, lo, hi):
        # E|U - U'|^p = 2 w^p / ((p+1)(p+2)) on the 10^4-point grid of criterion 1
        ps = np.exp(np.linspace(0.0, math.log(256.0), 10 ** 4))
        lp = (2.0 * (hi - lo) ** ps / ((ps + 1.0) * (ps + 2.0))) ** (1.0 / ps)
        for alpha in (1, 2):
            oracle = float(np.max(lp / ps ** (1.0 / alpha)))
            got = A.psi_diameter(D.UniformInterval(lo, hi), alpha)
            assert got.value == pytest.approx(oracle, rel=1e-6)
            assert got.value >= oracle * (1.0 - 1e-12)
            assert got.method == "analytic-grid"

    def test_uniform_second_call_is_a_memo_hit(self):
        spec = D.UniformInterval(0.0, 1.37)
        A.psi_diameter(spec, 2)
        before = dict(D._law_counts)
        A.psi_diameter(spec, 2)
        assert (D._law_counts["hits"], D._law_counts["searches"]) == (
            before["hits"] + 1, before["searches"])

    @pytest.mark.parametrize("spec, alpha", [
        (D.Gaussian(1.0, 2.0), 2), (D.Exponential(0.5), 1), (D.UniformInterval(-1.0, 3.0), 2),
        (D.Rademacher(), 1), (D.FiniteSupport((0.0, 1.0, 5.0), (0.2, 0.5, 0.3)), 2)], ids=repr)
    def test_is_psi_norm_of_the_difference_law(self, spec, alpha):
        # of the standard law s Z of X - E X: s times psi of |Z - Z'|, the
        # upper rounded up, at its p*
        scale, standard = D.standard_form(D.Centered(spec))
        est = psi_norm(D.canonical(standard).abs_difference_law(), alpha)
        got = A.psi_diameter(spec, alpha)
        assert (got.value, got.p_star, got.method) == (scale * est.value, est.p_star, est.method)
        assert got.upper == math.nextafter(scale * est.upper, math.inf)

    def test_exact_methods(self):
        # the method of the psi norm that was read
        assert A.psi_diameter(D.Rademacher(), 1).method == "closed-form"
        assert A.psi_diameter(D.Scaled(D.Exponential(1.0), -2.0), 1).method == "analytic-grid"
        assert A.psi_diameter(D.SquareOf(D.UniformInterval(0.0, 1.0)), 1).method == (
            "centering-bound")

    @pytest.mark.parametrize("spec, alpha, scale, read", [
        (D.Gaussian(1.0, 2.0), 2, 2.0, D.Gaussian(0.0, math.sqrt(2.0))),
        (D.Scaled(D.Exponential(1.0), -2.0), 1, 2.0, D.Exponential(1.0)),
        (D.Scaled(D.UniformInterval(0.0, 1.0), 0.5), 2, 0.25, D.UniformGap(2.0)),
        (D.Rademacher(), 1, 1.0, D.FiniteSupport((0.0, 2.0, 2.0, 0.0), (0.25,) * 4)),
        (D.SquareOf(D.UniformInterval(0.0, 1.0)), 1, 2.0,
         D.Centered(D.SquareOf(D.UniformInterval(0.0, 1.0)))),
        (D.ChiSquared(3), 1, 2.0, D.Centered(D.ChiSquared(3)))], ids=repr)
    def test_upper_is_the_scaled_upper_of_the_law_read(self, spec, alpha, scale, read):
        # the diameter keeps the certified upper and p* of the norm it reads;
        # its upper is the product's next float up, at every scale
        got, est = A.psi_diameter(spec, alpha), psi_norm(read, alpha)
        assert got.upper >= got.value > 0
        assert (got.alpha, got.value, got.p_star, got.upper) == (
            alpha, scale * est.value, est.p_star, math.nextafter(scale * est.upper, math.inf))

    @pytest.mark.parametrize("spec, alpha, scale, read", [
        (D.Scaled(D.Exponential(1.3), 2.5), 1, Fraction(2.5) / Fraction(1.3), D.Exponential(1.0)),
        (D.Centered(D.Scaled(D.Exponential(0.7), -0.3)), 1, Fraction(0.3) / Fraction(0.7),
         D.Exponential(1.0)),
        (D.Scaled(D.ChiSquared(3), 1.1), 1, 2 * Fraction(1.1), D.Centered(D.ChiSquared(3)))],
        ids=repr)
    def test_affine_images_read_one_law_per_shape(self, spec, alpha, scale, read):
        # the standard law's norm times the exact scale, its upper rounded
        # up twice at most: once in the scale, once in the product
        got, est = A.psi_diameter(spec, alpha), psi_norm(read, alpha)
        exact = scale * Fraction(est.upper)
        assert got.p_star == est.p_star
        assert got.value == pytest.approx(float(scale) * est.value, rel=1e-15, abs=0.0)
        assert got.upper >= exact and got.upper >= got.value
        assert got.upper <= math.nextafter(math.nextafter(float(exact), math.inf), math.inf)

    @staticmethod
    def _fresh_memo_counts(laws):
        """(searches, hits) of the psi estimates kept in the law records
        after the psi1 diameters of the laws (expressions in D) in a fresh
        process."""
        src = os.path.dirname(os.path.dirname(A.__file__))
        code = ("from lighttails import applications as A, distributions as D, orlicz as O; "
                f"[A.psi_diameter(law, 1) for law in ({', '.join(laws)},)]; "
                "print(D._law_counts['searches'], D._law_counts['hits'])")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True).stdout
        return out.split()

    def test_exponential_rates_read_one_search(self):
        # |X - X'| of Exp(rate) is Exp(rate), 1/rate |Z - Z'| for Exp(1)
        # copies Z, Z': three rates read the one estimate of Exp(1), a unit
        # law whose record ships with the package (`orlicz._UNIT_RECORDS`),
        # so a fresh process makes no psi search and three hits
        rates = (0.5, 1.3, 7.0)
        assert self._fresh_memo_counts([f"D.Exponential({r})" for r in rates]) == ["0", "3"]
        # sd Chi(3, 1) for three sds has no abs-difference law, and reads
        # Centered(Chi(3, 1)), which ships no record: one search, two hits
        assert self._fresh_memo_counts([f"D.Chi(3, {sd})" for sd in rates]) == ["1", "2"]
        est = psi_norm(D.Exponential(1.0), 1)
        for rate in rates:
            got = A.psi_diameter(D.Exponential(rate), 1)
            assert (got.value, got.p_star) == (D.round_up(1 / Fraction(rate)) * est.value, est.p_star)

    def test_affine_poisson_laws_read_one_search(self):
        # Centered(c Poisson(2)) is |c| Centered(Poisson(2)): in a fresh
        # process, three factors make one psi search and two hits
        laws = [f"D.Scaled(D.Poisson(2.0), {c})" for c in (0.5, 0.7, 0.9)]
        assert self._fresh_memo_counts(laws) == ["1", "2"]
        for c in (0.5, 0.7, 0.9):
            got = A.psi_diameter(D.Scaled(D.Poisson(2.0), c), 1)
            est = psi_norm(D.Centered(D.Poisson(2.0)), 1)
            assert got.method == "centering-bound" and got.p_star == est.p_star
            assert got.value == 2.0 * c * est.value
            assert got.upper >= Fraction(2.0 * c) * Fraction(est.upper)

    def test_pair_difference_beyond_the_largest_double_names_values(self):
        # the pair law used to end in numpy's overflow RuntimeWarning
        spec = D.FiniteSupport([-1e308, 1e308], [0.5, 0.5])
        with pytest.raises(D.SpecError, match=r"^values must differ by a finite amount, "
                                              r"got min=-1e\+308, max=1e\+308$"):
            A.psi_diameter(spec, 2)

    def test_diameter_past_the_largest_float_names_the_law(self):
        # 1.5e308 N(0, 1) reads 1.5e308 times psi of N(0, 2), a float; at
        # 1.7e308 the product is past the largest float, where the value
        # used to be inf
        assert A.psi_diameter(D.Gaussian(0.0, 1.5e308), 1).upper < math.inf
        with pytest.raises(D.SpecError, match=r"^the psi1 diameter of Gaussian\(mean=0\.0, "
                                              r"sd=1\.7e\+308\) is past the largest float$"):
            A.psi_diameter(D.Gaussian(0.0, 1.7e308), 1)

    def test_centering_fallback_sound(self):
        res = A.psi_diameter(D.ChiSquared(3), 1)
        assert res.method == "centering-bound"
        x = D.sample(D.ChiSquared(3), seed=2, count=10 ** 5)
        y = D.sample(D.ChiSquared(3), seed=2, count=10 ** 5, stream=1)
        emp = np.abs(x - y).mean()
        assert res.value >= emp - 0.02
