import math

import numpy as np
import pytest

from lighttails import distributions as D
from lighttails import orlicz as O

E = math.e

SUBGAUSSIAN_SPECS = [
    D.Gaussian(0.0, 1.0),
    D.Rademacher(),
    D.Centered(D.UniformInterval(0.0, 1.0)),
    D.TwoPointEps(0.1),
    D.Scaled(D.Rademacher(), 0.3),
]


def grid_oracle(spec, alpha, num=10 ** 4, p_max=256.0):
    ps = np.exp(np.linspace(0.0, math.log(p_max), num))
    return max(D.lp_norm(spec, p) / p ** (1.0 / alpha) for p in ps)


class TestPsiNorm:
    def test_rademacher_psi2(self):
        est = O.psi_norm(D.Rademacher(), 2)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.p_star == pytest.approx(1.0, abs=1e-9)

    def test_exponential_psi1(self):
        est = O.psi_norm(D.Exponential(1.0), 1)
        assert est.value == pytest.approx(1.0, abs=1e-6)
        assert est.p_star == pytest.approx(1.0, abs=1e-6)

    def test_zero_variable(self):
        for alpha in (1, 2):
            assert O.psi_norm(D.FiniteSupport((0.0,), (1.0,)), alpha).value == 0.0

    def test_psi2_dominates_psi1(self):
        for spec in SUBGAUSSIAN_SPECS:
            v1 = O.psi_norm(spec, 1).value
            v2 = O.psi_norm(spec, 2).value
            assert v2 >= v1 - 1e-12

    def test_supremum_property(self):
        for spec in SUBGAUSSIAN_SPECS + [D.Exponential(1.0), D.Poisson(1.0)]:
            for alpha in ((1, 2) if spec in SUBGAUSSIAN_SPECS else (1,)):
                est = O.psi_norm(spec, alpha)
                for p in np.exp(np.linspace(0, math.log(256.0), 60)):
                    assert est.value * p ** (1.0 / alpha) >= D.lp_norm(spec, p) - 1e-10

    def test_homogeneity(self):
        base = O.psi_norm(D.Exponential(1.0), 1).value
        for c in (0.5, 2.0, -3.0):
            scaled = O.psi_norm(D.Scaled(D.Exponential(1.0), c), 1).value
            assert scaled == pytest.approx(abs(c) * base, rel=1e-8)

    def test_dense_grid_agreement(self):
        for spec, alpha in [(D.Gaussian(0, 1), 2), (D.ChiSquared(3), 1),
                            (D.Centered(D.Poisson(2.0)), 1)]:
            est = O.psi_norm(spec, alpha)
            oracle = grid_oracle(spec, alpha, num=2000)
            assert est.value == pytest.approx(oracle, rel=1e-6)
            assert est.value >= oracle - 1e-10

    def test_p_max_too_small(self):
        # an exponential variable is not sub-Gaussian; the psi2 ratio grows
        with pytest.raises(O.PMaxTooSmallError):
            O.psi_norm(D.Centered(D.Exponential(1.0)), 2)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            O.psi_norm(D.Rademacher(), 3)


def finite_oracle(values, probs, alpha):
    """The 10^4-point dense grid of criterion 1, zoomed once more between
    the neighbours of its maximiser: its spacing of 5.5e-4 in ln p alone
    leaves up to 3e-8 at an interior maximum."""
    def ratios(ps):
        with np.errstate(divide="ignore"):
            moments = np.sum(probs * np.abs(values) ** ps[:, None], axis=1)
        return moments ** (1.0 / ps) / ps ** (1.0 / alpha)
    ps = np.exp(np.linspace(0.0, math.log(256.0), 10 ** 4))
    coarse = ratios(ps)
    i = int(np.argmax(coarse))
    lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
    return max(coarse[i], np.max(ratios(np.exp(np.linspace(math.log(lo), math.log(hi), 10 ** 4)))))


class TestFiniteLaws:
    def test_psi_norm_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(3)
        for i in range(150):
            m = int(rng.integers(1, 9))
            values = rng.uniform(-3.0, 3.0, m)
            if i % 5 == 0:
                values[0] = 0.0
            probs = rng.dirichlet(np.full(m, 0.5))
            for alpha in (1, 2):
                est = O.psi_norm(D.FiniteSupport(values, probs), alpha).value
                oracle = finite_oracle(values, probs, alpha)
                assert est >= oracle - 1e-12
                assert abs(est - oracle) <= 1e-9

    def test_psi_norm_finite_is_psi_norm_of_the_law(self):
        values, probs = [0.3, -1.2, 0.0, 2.5], [0.1, 0.2, 0.3, 0.4]
        for alpha in (1, 2):
            assert O.psi_norm_finite(values, probs, alpha) == O.psi_norm(
                D.FiniteSupport(values, probs), alpha)

    def test_bad_probs_name_the_field(self):
        with pytest.raises(D.SpecError, match="probs"):
            O.psi_norm_finite([0.0, 1.0], [0.7, 0.7], 1)
        with pytest.raises(D.SpecError, match="probs"):
            O.psi_norm_finite([0.0, 1.0], [1.5, -0.5], 2)

    def test_contraction_with_probs_at_the_edge_of_their_tolerance(self):
        law = D.FiniteSupport([0.0, 1.0, 3.0], [0.3, 0.3, 0.4 + 9e-13])
        lhs, rhs = O.conditional_contraction_check(law, np.ones((3, 3)), 1)
        assert lhs == pytest.approx(1.0, abs=1e-12) and lhs <= rhs + 1e-12

    def test_marginal_must_be_a_finite_law(self):
        with pytest.raises(D.SpecError, match="marginal"):
            O.conditional_contraction_check(([-1.0, 1.0], [0.5, 0.5]),
                                            np.zeros((2, 2)), 1)


class TestCertificate:
    @pytest.mark.parametrize("spec, alpha", [(D.Centered(D.Exponential(1.375)), 1),
                                             (D.Gaussian(0.8125, 1.0), 2)])
    def test_perturbed_fixed_rule_raises(self, spec, alpha, monkeypatch):
        real = D.log_abs_moments

        def perturbed(s, ps):
            return real(s, ps) + 1e-6 * ps      # ln ||Z||_p off by 1e-6

        monkeypatch.setattr(O.dist, "log_abs_moments", perturbed)
        with pytest.raises(D.QuadratureError, match=r"p\*="):
            O.psi_norm(spec, alpha)
        monkeypatch.undo()
        assert O.psi_norm(spec, alpha).value > 0     # the failure was not memoised

    def test_value_is_the_adaptive_moment_at_p_star(self):
        for spec, alpha in [(D.Centered(D.ChiSquared(3)), 1), (D.Gaussian(0.8, 1.0), 2),
                            (D.Centered(D.SquareOf(D.UniformInterval(-0.5, 1.0))), 2)]:
            est = O.psi_norm(spec, alpha)
            p = est.p_star
            want = math.exp(D.log_abs_moment(spec, p) / p - math.log(p) / alpha)
            assert est.value == want

    @pytest.mark.parametrize("spec", [D.Centered(D.ChiSquared(1)),
                                      D.Centered(D.SquareOf(D.Gaussian(0.0, 1.0)))],
                             ids=str)
    def test_known_p_max_defect_unchanged(self, spec):
        # the psi_1 ratio of a centered chi-squared_1 still rises at p_max
        for _ in range(2):      # the memoised outcome raises as well
            with pytest.raises(O.PMaxTooSmallError):
                O.psi_norm(spec, 1)

    def test_equal_coordinates_run_the_grid_once(self, monkeypatch):
        spec = D.Centered(D.Exponential(1.625))
        grids = []
        real = D.log_abs_moments

        def counted(s, ps):
            grids.append(len(ps))
            return real(s, ps)

        monkeypatch.setattr(O.dist, "log_abs_moments", counted)
        before = O._psi_norm_cached.cache_info()
        values = {O.psi_norm(spec, 1).value for _ in range(10)}
        after = O._psi_norm_cached.cache_info()
        assert len(values) == 1
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 9)
        assert sum(n > 1 for n in grids) == 1


class TestEmpirical:
    def test_zeros(self):
        with pytest.warns(UserWarning):
            est = O.psi_norm_empirical(np.zeros(1000), 2, p_max=6.0)
        assert est.value == 0.0

    def test_rademacher(self):
        samples = D.sample(D.Rademacher(), seed=5, count=10 ** 6)
        with pytest.warns(UserWarning):
            est = O.psi_norm_empirical(samples, 2)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_exponential(self):
        samples = D.sample(D.Exponential(1.0), seed=6, count=10 ** 6)
        with pytest.warns(UserWarning):
            est = O.psi_norm_empirical(samples, 1, p_max=10.0)
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            O.psi_norm_empirical(np.ones(50), 1)

    def test_p_max_cap(self):
        with pytest.raises(ValueError, match="ln"):
            O.psi_norm_empirical(np.ones(1000), 1, p_max=20.0)


class TestCentering:
    def test_values(self):
        assert O.centering_bound(0.0) == 0.0
        assert O.centering_bound(1.0) == 2.0

    def test_dominates_exact(self):
        lhs = O.psi_norm(D.Centered(D.Exponential(1.0)), 1).value
        rhs = O.centering_bound(O.psi_norm(D.Exponential(1.0), 1).value)
        assert lhs <= rhs + 1e-12


class TestContraction:
    def test_zero_table(self):
        lhs, rhs = O.conditional_contraction_check(
            D.FiniteSupport([-1.0, 1.0], [0.5, 0.5]), np.zeros((2, 2)), 1)
        assert lhs == 0.0 and rhs == 0.0

    def test_difference_table(self):
        values = np.array([-1.0, 1.0])
        phi = values[:, None] - values[None, :]
        lhs, rhs = O.conditional_contraction_check(
            D.FiniteSupport(values, [0.5, 0.5]), phi, 2)
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert lhs <= rhs + 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            values = rng.uniform(-2, 2, m)
            probs = rng.dirichlet(np.ones(m))
            phi = rng.uniform(-3, 3, (m, m))
            for alpha in (1, 2):
                lhs, rhs = O.conditional_contraction_check(
                    D.FiniteSupport(values, probs), phi, alpha)
                assert lhs <= rhs + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            O.conditional_contraction_check(
                D.FiniteSupport([-1.0, 1.0], [0.5, 0.5]), np.zeros((2, 3)), 1)


class TestConcentratedVariable:
    def test_exponent_form(self):
        for d in (1.0, 5.0, 12.0):
            _, psi1 = O.concentrated_variable_bounds(math.exp(-d))
            assert psi1 == pytest.approx(2.0 / (E * d), rel=1e-12)

    def test_one_over_e(self):
        _, psi1 = O.concentrated_variable_bounds(1.0 / E)
        assert psi1 == pytest.approx(2.0 / E, rel=1e-12)

    def test_dominates_two_point(self):
        for eps in (0.5, 0.1, 0.01, math.exp(-5)):
            lp_bound, psi1_bound = O.concentrated_variable_bounds(eps)
            spec = D.TwoPointEps(eps)
            assert O.psi_norm(spec, 1).value <= psi1_bound + 1e-12
            for p in (1.0, 2.0, 8.0, 64.0):
                assert D.lp_norm(spec, p) <= lp_bound(p) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            O.concentrated_variable_bounds(1.0)


class TestSquare:
    def test_values(self):
        assert O.square_psi1_from_psi2(0.0) == 0.0
        assert O.square_psi1_from_psi2(1.0) == 2.0

    def test_dominates_rademacher_square(self):
        lhs = O.psi_norm(D.SquareOf(D.Rademacher()), 1).value
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert lhs <= O.square_psi1_from_psi2(O.psi_norm(D.Rademacher(), 2).value)


class TestMgfBound:
    def test_beta_zero(self):
        mgf, bound = O.mgf_bound_check(D.Rademacher(), 0.0)
        assert mgf == pytest.approx(1.0) and bound == pytest.approx(1.0)

    def test_gaussian(self):
        mgf, bound = O.mgf_bound_check(D.Gaussian(0, 1), 1.0)
        assert mgf == pytest.approx(math.exp(0.5), rel=1e-10)
        assert mgf <= bound * (1 + 1e-9)

    def test_rademacher_beta2(self):
        mgf, bound = O.mgf_bound_check(D.Rademacher(), 2.0)
        assert mgf == pytest.approx(math.cosh(2.0), rel=1e-12)
        assert bound == pytest.approx(math.exp(16 * E), rel=1e-9)

    def test_grid_sweep(self):
        for spec in [D.Gaussian(0, 1), D.Rademacher(),
                     D.Centered(D.UniformInterval(0.0, 1.0))]:
            psi2 = O.psi_norm(spec, 2).value
            for beta in np.linspace(-5, 5, 101):
                mgf, bound = O.mgf_bound_check(spec, beta, psi2_value=psi2)
                assert mgf <= bound * (1 + 1e-9)

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            O.mgf_bound_check(D.Exponential(1.0), 0.5)
