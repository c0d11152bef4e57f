import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy import stats

from adaptive import adaptive_log_moment
from lighttails import applications as A
from lighttails import distributions as D
from lighttails import functions as F
from lighttails import orlicz as O

E = math.e
# the chord search's first call: every 4th point of the 129-point grid on
# [1, 256], and its last but one
COARSE_LEN = len(O._P_GRID[::O._COARSE_STEP]) + 1

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
        with pytest.raises(O.PMaxTooSmallError, match="^moment ratio still rises at p = 256, "
                           "the end of the p-grid, so the norm is not certified$"):
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
        # the rule at t = j/4 reads the even nodes only, so weights off by
        # 1e-3 on the odd nodes show as a gap between the two rules
        weights = D._TS_W.copy()
        weights[1::2] *= 1.0 + 1e-3
        monkeypatch.setattr(D, "_TS_W", weights)
        with pytest.raises(D.QuadratureError, match="t = j/8 and j/4 differ"):
            O.psi_norm(spec, alpha)
        monkeypatch.undo()
        assert O.psi_norm(spec, alpha).value > 0     # the failure was not memoised

    def test_value_is_the_adaptive_moment_at_p_star(self):
        for spec, alpha in [(D.Centered(D.ChiSquared(3)), 1), (D.Gaussian(0.8, 1.0), 2),
                            (D.Centered(D.SquareOf(D.UniformInterval(-0.5, 1.0))), 2)]:
            est = O.psi_norm(spec, alpha)
            p = est.p_star
            want = adaptive_log_moment(spec, p) / p - math.log(p) / alpha
            assert abs(math.log(est.value) - want) <= 1e-9

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
        assert grids.count(COARSE_LEN) == 1

    @staticmethod
    def _count_moment_calls(monkeypatch):
        O._psi_norm_cached.cache_clear()        # every norm below is cold
        sizes = []
        real = D.log_abs_moments

        def counted(s, ps):
            sizes.append(len(ps))
            return real(s, ps)

        monkeypatch.setattr(O.dist, "log_abs_moments", counted)
        return sizes

    def test_end_point_maximum_takes_one_coarse_call(self, monkeypatch):
        sizes = self._count_moment_calls(monkeypatch)
        est = O.psi_norm(D.Centered(D.Exponential(1.625)), 1)
        assert est.p_star == 1.0
        # the chord bound of the first interval peaks at p = 1: no bisection
        assert sizes == [COARSE_LEN]

    def test_maximum_near_the_end_is_found_by_bisection(self, monkeypatch):
        # the maximiser sits 1.9e-4 above p = 1, inside the first coarse
        # interval, whose chord bound beats the value at p = 1
        law = D.FiniteSupport(
            (-1.2266576256154749, -0.00773177677827791, 0.7636571719335548),
            (0.2716776276902979, 0.31930937820229327, 0.40901299410740877))
        sizes = self._count_moment_calls(monkeypatch)
        est = O.psi_norm(law.abs_difference_law(), 2)
        assert sizes[0] == COARSE_LEN and len(sizes) > 1
        assert 1.0 < est.p_star < 1.0003
        assert est.value == pytest.approx(0.8552974043163654, rel=1e-15, abs=0.0)
        assert est.value < est.upper <= est.value * (1.0 + 1e-12)    # the chord gap
        assert A.psi_diameter(law, 2).value == est.value

    def test_known_chi_psi2_defect_unchanged(self):
        # a centered chi law is sub-Gaussian, but its ratio rises at p_max
        with pytest.raises(O.PMaxTooSmallError):
            O.psi_norm(D.Centered(D.Chi(5, 1.7)), 2)


def linear_phi(s, p0, alpha):
    """phi(p) = s p - p0 / alpha: its chord is itself, so the chord bound is
    the ratio, which peaks at p0 with ln ratio s - (1 + ln p0) / alpha."""
    return (lambda ps: s * ps - p0 / alpha), s - (1.0 + math.log(p0)) / alpha


class TestChordSearch:
    """_sup_ratio on synthetic ln E|Z|^p."""

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("p0", [1.0002, math.pi, 100.5])
    def test_sharp_interior_maximum_converges(self, p0, alpha):
        # a linear phi has the sharpest maximum a convex phi allows
        phi, exact = linear_phi(0.7, p0, alpha)
        best, p, upper = O._sup_ratio(phi, alpha)
        assert exact - 1e-12 <= best <= exact + 1e-14
        assert exact - 1e-14 <= upper <= best + 1e-12
        assert p == pytest.approx(p0, rel=1e-5)

    def test_rise_on_the_last_grid_interval_raises(self):
        grid = O._P_GRID
        p_c = math.sqrt(grid[-2] * grid[-1])

        def phi(ps):        # convex: max of two lines crossing at p_c
            return np.maximum(0.0, 1000.0 * (ps / p_c - 1.0))

        ratios = phi(grid) / grid - np.log(grid)
        assert np.all(np.diff(ratios[:-1]) < 0) and ratios[-1] > ratios[-2]
        assert ratios[-1] < ratios[-1 - O._COARSE_STEP]     # the coarse step misses it
        with pytest.raises(O.PMaxTooSmallError):
            O._sup_ratio(phi, 1)

    def test_past_the_round_cap_the_search_raises(self, monkeypatch):
        # this maximum takes all 16 rounds, and no finite phi takes more, so
        # the cap is lowered to show that running out raises
        phi, exact = linear_phi(0.7, 1.0823406003255016, 2)
        monkeypatch.setattr(O, "_MAX_ROUNDS", 16)
        assert O._sup_ratio(phi, 2)[0] == pytest.approx(exact, abs=1e-12)
        monkeypatch.setattr(O, "_MAX_ROUNDS", 15)
        with pytest.raises(D.QuadratureError, match="after 15 bisection rounds"):
            O._sup_ratio(phi, 2)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(1.0, 100.0), st.sampled_from([1, 2]),
           st.lists(st.tuples(st.floats(0.1, 200.0), st.floats(0.0, 6.3),
                              st.floats(-1.0, 1.0), st.integers(-6, 2)), max_size=6))
    def test_non_convex_data_stop_within_the_rounds(self, p0, alpha, waves):
        # a linear phi with waves on it: the chord bound is no bound here,
        # but the bisection still ends, as its excess over the larger end
        # ratio shrinks with the width squared whatever the data
        line, _ = linear_phi(0.7, p0, alpha)

        def phi(ps):
            return line(ps) + sum(a * 10.0 ** e * np.sin(k * ps + t) for k, t, a, e in waves)

        calls = []
        try:
            O._sup_ratio(lambda ps: calls.append(len(ps)) or phi(ps), alpha)
        except O.PMaxTooSmallError:
            pass
        assert len(calls) <= 17

    @pytest.mark.parametrize("hole", [-math.inf, math.nan])
    def test_a_non_finite_moment_has_no_chord_bound(self, hole):
        # -inf at one order and finite elsewhere is not log-convex
        def phi(ps):
            return np.where(ps == 2.0, hole, 0.1 * ps)

        with pytest.raises(D.QuadratureError, match="no chord bound"):
            O._sup_ratio(phi, 1)


def dense_oracle(spec, alpha, num=10 ** 4, p_max=256.0):
    """Criterion 1's dense grid, on the batched moments the search reads."""
    ps = np.exp(np.linspace(0.0, math.log(p_max), num))
    phis = D.log_abs_moments(spec, ps)
    return float(np.max(np.exp(phis / ps - np.log(ps) / alpha)))


_pos = st.floats(0.2, 3.0)
_factor = st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)
_poisson = st.builds(D.Poisson, st.floats(0.05, 5.0))
_uniform = st.builds(lambda lo, width: D.UniformInterval(lo, lo + width),
                     st.floats(-2.0, 1.0), _pos)
_finite = st.integers(1, 5).flatmap(lambda n: st.builds(
    lambda values, weights: D.FiniteSupport(values, np.array(weights) / sum(weights)),
    st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
    st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
_centered_gaussian = st.builds(D.Gaussian, st.just(0.0), _pos)
# catalogue and composed laws whose batched moments are cheap enough for a
# 10^4-point oracle: closed forms, Poisson series and finite laws
SUB_GAUSSIAN = st.one_of(
    _centered_gaussian, st.builds(D.Scaled, _centered_gaussian, _factor),
    _uniform, st.builds(D.Centered, _uniform), st.builds(D.Shifted, _uniform, _factor),
    st.just(D.Rademacher()), st.builds(D.TwoPointEps, st.floats(0.01, 0.99)),
    st.builds(D.UniformGap, _pos), _finite, st.builds(D.Centered, _finite),
    st.builds(D.SquareOf, _finite), _finite.map(lambda law: law.abs_difference_law()))
SUB_EXPONENTIAL = st.one_of(
    st.builds(D.Exponential, _pos), st.builds(D.Scaled, st.builds(D.Exponential, _pos), _factor),
    _poisson, st.builds(D.Centered, _poisson), st.builds(D.Shifted, _poisson, _factor),
    st.builds(D.ChiSquared, st.integers(1, 6)), st.builds(D.Chi, st.integers(1, 6), _pos))


class TestCertifiedUpper:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.tuples(SUB_GAUSSIAN, st.sampled_from([1, 2]))
           | st.tuples(SUB_EXPONENTIAL, st.just(1)))
    @example((D.Centered(D.Exponential(1.0)), 1))       # the numeric moment path
    def test_value_and_upper_bracket_the_dense_grid(self, law_alpha):
        law, alpha = law_alpha
        try:
            est = O.psi_norm(law, alpha)
        except O.PMaxTooSmallError:
            reject()
        oracle = dense_oracle(law, alpha)
        assert est.value >= oracle * (1.0 - 1e-12)
        assert oracle <= est.upper

    def test_triangle_bound_sums_the_uppers(self):
        vec = D.VectorSpec(2, (D.Centered(D.Exponential(1.0)), D.Rademacher()))
        ests = [O.psi_norm(c, 1) for c in vec.components]
        got = F.vector_norm_psi(vec, 1)
        assert got.method == "triangle-bound"
        assert got.upper == math.fsum(e.upper for e in ests) >= got.value


class TestCentering:
    def test_dominates_exact(self):
        # centering at most doubles the norm: ||X - EX|| <= 2 ||X||
        lhs = O.psi_norm(D.Centered(D.Exponential(1.0)), 1)
        assert lhs.upper <= 2.0 * O.psi_norm(D.Exponential(1.0), 1).value


def centered_chi_ratios(dof, sd, ps, alpha):
    """||X - E X||_p / p^(1/alpha) for X = sd chi_dof, from the scipy.stats.chi
    density by Gauss-Legendre on each side of the mean, where |x - m|^p kinks."""
    law = stats.chi(dof, scale=sd)
    m = law.mean()
    nodes, weights = np.polynomial.legendre.leggauss(400)
    total = 0.0
    for a, b in ((0.0, m), (m, sd * (math.sqrt(2.0 * (ps.max() + dof)) + 14.0))):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total = total + 0.5 * (b - a) * np.sum(
            weights * np.abs(x - m) ** ps[:, None] * law.pdf(x), axis=1)
    return total ** (1.0 / ps) / ps ** (1.0 / alpha)


def centered_gap_ratios(width, ps, alpha):
    """The same for the triangular law on [0, width], from its moments about
    the mean m = width / 3: with r = width - m,
    E|D - m|^p = 2 (r m^(p+1) / (p+1) + m^(p+2) / (p+2) + r^(p+2) / ((p+1)(p+2))) / width^2."""
    m = width / 3.0
    r = width - m
    mom = 2.0 / width ** 2 * (r * m ** (ps + 1) / (ps + 1) + m ** (ps + 2) / (ps + 2)
                              + r ** (ps + 2) / ((ps + 1) * (ps + 2)))
    return mom ** (1.0 / ps) / ps ** (1.0 / alpha)


class TestDerivedLaws:
    """Centered chi and uniform-gap laws go through the numeric moment path."""

    CASES = [
        (D.Chi(5, 1.7), 1, lambda ps: centered_chi_ratios(5, 1.7, ps, 1)),
        (D.Chi(1, 0.4), 1, lambda ps: centered_chi_ratios(1, 0.4, ps, 1)),
        (D.UniformGap(2.0), 1, lambda ps: centered_gap_ratios(2.0, ps, 1)),
        (D.UniformGap(2.0), 2, lambda ps: centered_gap_ratios(2.0, ps, 2)),
        (D.UniformGap(0.3), 1, lambda ps: centered_gap_ratios(0.3, ps, 1)),
    ]
    IDS = [f"{law!r}-psi{alpha}" for law, alpha, _ in CASES]

    @pytest.mark.parametrize("law, alpha, ratios", CASES, ids=IDS)
    def test_centered_psi_norm_matches_dense_grid(self, law, alpha, ratios):
        grid = ratios(np.exp(np.linspace(0.0, math.log(64.0), 2000)))
        got = O.psi_norm(D.Centered(law), alpha).value
        assert got >= grid.max() * (1.0 - 1e-12)
        assert got == pytest.approx(grid.max(), rel=1e-6)

    @pytest.mark.parametrize("law, alpha", [c[:2] for c in CASES], ids=IDS)
    def test_psi_diameter_is_the_centering_bound(self, law, alpha):
        got = A.psi_diameter(law, alpha)
        assert got.method == "centering-bound"
        assert got.value == 2.0 * O.psi_norm(D.Centered(law), alpha).value

    def test_densities_match_scipy(self):
        x = np.array([-1.0, 0.0, 0.05, 0.7, 1.9, 2.0, 2.5, 9.0])
        for chi in (D.Chi(5, 1.7), D.Chi(1, 0.4), D.Chi(40, 0.3)):
            assert np.allclose(chi.logpdf(x), stats.chi.logpdf(x, chi.dof, scale=chi.sd),
                               rtol=1e-12, atol=0.0, equal_nan=False)
        gap = D.UniformGap(2.0)
        inside = (x > 0) & (x < 2.0)
        want = stats.triang.logpdf(x, 0.0, scale=2.0)
        assert np.allclose(gap.logpdf(x)[inside], want[inside], rtol=1e-12, atol=0.0)
        assert np.all(gap.logpdf(x)[(x < 0) | (x >= 2.0)] == -np.inf)


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
    def test_dominates_rademacher_square(self):
        # the square of a sub-Gaussian is sub-exponential: ||X^2||_psi1 <= 2 ||X||_psi2^2
        lhs = O.psi_norm(D.SquareOf(D.Rademacher()), 1)
        assert lhs.value == pytest.approx(1.0, abs=1e-10)
        assert lhs.upper <= 2.0 * O.psi_norm(D.Rademacher(), 2).value ** 2


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
            for beta in np.linspace(-5, 5, 101):
                mgf, bound = O.mgf_bound_check(spec, beta)
                assert mgf <= bound * (1 + 1e-9)

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            O.mgf_bound_check(D.Exponential(1.0), 0.5)
