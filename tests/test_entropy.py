import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lighttails import distributions as D
from lighttails import entropy as ent

E = math.e


def random_dist(rng, max_support=8, value_range=2.0):
    m = int(rng.integers(2, max_support + 1))
    values = rng.uniform(-value_range, value_range, m)
    probs = rng.dirichlet(np.ones(m))
    return D.FiniteSupport(values, probs)


def shifted(y, c):
    return D.FiniteSupport(np.add(y.values, c), y.probs)


def centered(y):
    return shifted(y, -math.fsum(np.multiply(y.values, y.probs)))


finite_dists = st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-3, 3), min_size=m, max_size=m),
    st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))


def build(pair):
    values, weights = pair
    probs = np.asarray(weights) / math.fsum(weights)
    return D.FiniteSupport(values, probs)


class TestFiniteLaw:
    def test_validation(self):
        with pytest.raises(D.SpecError, match="probs"):
            D.FiniteSupport([0.0, 1.0], [0.6, 0.6])
        with pytest.raises(D.SpecError, match="probs"):
            D.FiniteSupport([0.0], [-1.0])

    def test_roundtrip(self):
        y = D.FiniteSupport([0.0, 1.0], [0.25, 0.75])
        assert D.spec_from_dict(D.spec_to_dict(y)) == y

    @pytest.mark.parametrize("call", [
        lambda y: ent.entropy(y), lambda y: ent.tilted_expect(y, [1.0, 1.0]),
        lambda y: ent.log_mgf_via_entropy(y, 1.0),
        lambda y: ent.fluctuation_entropy(y),
        lambda y: ent.entropy_bound_subgaussian(y, 1.0),
        lambda y: ent.entropy_bound_subexponential(y),
        lambda y: ent.entropy_bound_holder(y, 2.0)])
    def test_other_laws_rejected(self, call):
        with pytest.raises(D.SpecError, match="y must be a FiniteSupport"):
            call(D.Rademacher())

    def test_order_given_not_sorted(self):
        # g aligns with the values as given; the canonical form would sort
        y = D.FiniteSupport([1.0, -1.0, 0.0], [0.5, 0.25, 0.25])
        assert ent.tilted_expect(y, [1.0, 0.0, 0.0]) == pytest.approx(
            0.5 * E / (0.5 * E + 0.25 / E + 0.25), rel=1e-14)


class TestEntropy:
    def test_point_mass(self):
        assert ent.entropy(D.FiniteSupport([3.7], [1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_closed_form(self):
        y = D.FiniteSupport([0.0, math.log(2.0)], [0.5, 0.5])
        want = (math.log(2.0) / 1.5) - math.log(1.5)
        assert ent.entropy(y) == pytest.approx(want, abs=1e-14)

    def test_shift_invariance(self):
        y = D.FiniteSupport([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
        s = ent.entropy(y)
        assert ent.entropy(shifted(y, 10.0)) == pytest.approx(s, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(finite_dists, st.sampled_from([-3.0, 10.0]))
    def test_shift_and_sign_properties(self, pair, c):
        y = build(pair)
        s = ent.entropy(y)
        assert s >= -1e-12
        assert ent.entropy(shifted(y, c)) == pytest.approx(s, abs=1e-10)

    def test_overflow_guarded(self):
        y = D.FiniteSupport([0.0, 800.0], [0.5, 0.5])
        assert np.isfinite(ent.entropy(y))

    @pytest.mark.parametrize("beta", [1e6, 1e15, 1e100])
    def test_no_cancellation_at_large_beta(self, beta):
        # S(beta Y) of a Rademacher Y is ln 2 once e^(-2 beta) underflows;
        # E_Y[Y] - ln E e^Y read 0.75 at beta = 1e15 and 0.0 at 1e17
        y = D.FiniteSupport([-beta, beta], [0.5, 0.5])
        assert ent.entropy(y) == math.log(2.0)
        table = ent.ProductTable([D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])], [-1.0, 1.0])
        rows = ent.conditional_entropy_table(table, beta)
        assert rows == pytest.approx(np.full((1, 2), math.log(2.0)), rel=1e-15)


class TestTiltedExpect:
    def test_zero_tilt(self):
        y = D.FiniteSupport([0.0, 0.0, 0.0], [0.2, 0.3, 0.5])
        g = [1.0, 2.0, 3.0]
        assert ent.tilted_expect(y, g) == pytest.approx(2.3, abs=1e-14)

    def test_normalization(self):
        y = D.FiniteSupport([-1.0, 2.0], [0.4, 0.6])
        assert ent.tilted_expect(y, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_two_point(self):
        y = D.FiniteSupport([0.0, math.log(2.0)], [0.5, 0.5])
        assert ent.tilted_expect(y, list(y.values)) == pytest.approx(math.log(2.0) / 1.5, abs=1e-14)

    def test_length_mismatch(self):
        y = D.FiniteSupport([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            ent.tilted_expect(y, [1.0])


class TestLogMgfIdentity:
    def test_beta_zero(self):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        direct, integral = ent.log_mgf_via_entropy(y, 0.0)
        assert direct == 0.0 and integral == 0.0

    def test_rademacher(self):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        direct, integral = ent.log_mgf_via_entropy(y, 1.0)
        assert direct == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)
        assert abs(direct - integral) < 1e-8

    def test_bernoulli(self):
        y = D.FiniteSupport([0.0, 1.0], [0.5, 0.5])
        direct, integral = ent.log_mgf_via_entropy(y, 2.0)
        assert direct == pytest.approx(math.log((1 + math.exp(2.0)) / 2) - 1.0, abs=1e-12)
        assert abs(direct - integral) < 1e-8

    def test_random_corpus(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            y = random_dist(rng)
            for beta in (0.25, 1.0, 3.0):
                direct, integral = ent.log_mgf_via_entropy(y, beta)
                assert abs(direct - integral) < 1e-8


class TestLogMgfScales:
    """The log-MGF identity from spreads of 1e-6 to 1e4 and tilts down to
    the smallest float."""

    @pytest.mark.parametrize("beta", [30.0, 1e-4])
    def test_wide_two_point_law(self, beta):
        # the adaptive rule returned -0.69 at beta = 30 and raised at 1e-4
        y = D.FiniteSupport([-1e4, 1e4], [0.5, 0.5])
        direct, integral = ent.log_mgf_via_entropy(y, beta)
        assert integral == pytest.approx(direct, rel=1e-8)

    def test_direct_side_at_small_beta(self):
        # beta^2 Var / 2 + beta^3 kappa_3 / 6; the shifted sum read 5.29e-17
        y = D.FiniteSupport([-1.0, 0.0, 3.0], [0.2, 0.5, 0.3])
        beta = 1e-8
        direct, integral = ent.log_mgf_via_entropy(y, beta)
        want = beta ** 2 * 2.41 / 2 + beta ** 3 * 2.496 / 6
        assert direct == pytest.approx(want, rel=1e-14, abs=0.0)
        assert integral == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [1e-300, 5e-324, -1e-300])
    def test_tiny_beta(self, beta):
        # e^(beta (Y - EY)) - 1 underflows: both sides are 0, with no 0/0
        # at the nodes where gamma^2 underflows
        y = D.FiniteSupport([-1.0, 0.0, 3.0], [0.2, 0.5, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ent.log_mgf_via_entropy(y, beta) == (0.0, 0.0)

    def test_tolerance_gate(self, monkeypatch):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        monkeypatch.setattr(ent, "_TOL", 1e-20)
        with pytest.raises(D.QuadratureError, match="exceeds tolerance 1e-20"):
            ent.log_mgf_via_entropy(y, 1.0)
        with pytest.raises(D.QuadratureError, match="exceeds tolerance 1e-20"):
            ent.fluctuation_entropy(y)
        assert issubclass(D.QuadratureError, RuntimeError)

    def test_seeded_sweep(self):
        # 96 laws of 1-8 values on [-scale, scale], six tilts each; the gate
        # accepts all 576 calls (an absolute one refused a 1.2e-9 error
        # estimate on an integral of size 1e4)
        rng = np.random.default_rng(11)
        worst = 0.0
        for scale in (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
            for _ in range(12):
                m = int(rng.integers(1, 9))
                y = D.FiniteSupport(rng.uniform(-scale, scale, m), rng.dirichlet(np.ones(m)))
                for beta in (-3.0, 1e-4, 0.25, 1.0, 3.0, 30.0):
                    direct, integral = ent.log_mgf_via_entropy(y, beta)
                    assert abs(integral - direct) <= 1e-8 * max(1.0, abs(direct)), (y, beta)
                worst = max(worst, abs(ent.fluctuation_entropy(y) - ent.entropy(y)))
        assert worst <= 1e-12


class TestSmallScales:
    """S and ln E e^(beta (Y - EY)) keep full relative precision as the
    range of Y shrinks."""

    @pytest.mark.parametrize("beta", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_rademacher_series(self, beta):
        # S(beta Y) = beta tanh beta - ln cosh beta; the shifted sum was
        # 1.1e-6 relative off at beta = 1e-5
        want = beta ** 2 / 2 - beta ** 4 / 4 + beta ** 6 / 9 - 17 * beta ** 8 / 360
        y = D.FiniteSupport([-beta, beta], [0.5, 0.5])
        assert ent.entropy(y) == pytest.approx(want, rel=1e-14, abs=0.0)
        table = ent.ProductTable([D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])], [-1.0, 1.0])
        assert ent.conditional_entropy_table(table, beta) == pytest.approx(
            np.full((1, 2), want), rel=1e-14, abs=0.0)

    def test_subgaussian_lemma(self):
        beta, x = 1e-5, 2e-5
        s, bound = ent.entropy_bound_subgaussian(D.FiniteSupport([-1.0, 1.0], [0.5, 0.5]), beta)
        assert s == pytest.approx(beta ** 2 / 2 - beta ** 4 / 4, rel=1e-14, abs=0.0)
        # the bound is its MGF term ln cosh 2 beta
        assert bound == pytest.approx(x ** 2 / 2 - x ** 4 / 12, rel=1e-14, abs=0.0)

    def test_random_laws_match_fluctuation_entropy(self):
        # against 50-digit arithmetic the shifted sum was up to 1.2e-4
        # relative off on these laws, and the series is 7.8e-16 off
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = random_dist(rng, value_range=1e-5)
            want = ent.fluctuation_entropy(y)
            assert ent.entropy(y) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_branches_agree_at_the_switch(self):
        # a range just inside and just outside the series branch
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = random_dist(rng)
            for width in (0.124, 0.126):
                v = np.asarray(y.values) * width / np.ptp(y.values)
                z = D.FiniteSupport(v, y.probs)
                want = ent.fluctuation_entropy(z)
                assert ent.entropy(z) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestFluctuationIdentity:
    def test_point_mass(self):
        assert ent.fluctuation_entropy(D.FiniteSupport([2.0], [1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_two_point(self):
        y = D.FiniteSupport([0.0, math.log(2.0)], [0.5, 0.5])
        assert ent.fluctuation_entropy(y) == pytest.approx(ent.entropy(y), abs=1e-8)

    def test_rademacher(self):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        assert ent.fluctuation_entropy(y) == pytest.approx(ent.entropy(y), abs=1e-8)

    def test_wide_laws(self):
        # the adaptive rule returned 4.8e-16 for the first and raised on the second
        assert ent.fluctuation_entropy(D.FiniteSupport([-1e4, 1e4], [0.5, 0.5])) == \
            pytest.approx(math.log(2.0), abs=1e-8)
        y = D.FiniteSupport([-1e3, 300.0, 2e3], [0.3, 0.4, 0.3])
        assert ent.fluctuation_entropy(y) == pytest.approx(ent.entropy(y), abs=1e-8)

    def test_random_corpus(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            y = random_dist(rng, max_support=6)
            assert ent.fluctuation_entropy(y) == pytest.approx(ent.entropy(y), abs=1e-8)


def uniform01():
    return D.FiniteSupport([0.0, 1.0], [0.5, 0.5])


class TestConditionalEntropy:
    def test_constant(self):
        u = uniform01()
        table = ent.ProductTable([u, u], np.full((2, 2), 3.0))
        out = ent.conditional_entropy_table(table, 1.0)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_sum_independent_of_x(self):
        u = uniform01()
        f = np.add.outer([0.0, 1.0], [0.0, 1.0])
        table = ent.ProductTable([u, u], f)
        out = ent.conditional_entropy_table(table, 1.0)
        centered_marginal = D.FiniteSupport([-0.5, 0.5], [0.5, 0.5])
        want = ent.entropy(centered_marginal)
        assert np.allclose(out, want, atol=1e-12)

    def test_product_hand_enumeration(self):
        u = uniform01()
        f = np.multiply.outer([0.0, 1.0], [0.0, 1.0])
        table = ent.ProductTable([u, u], f)
        out = ent.conditional_entropy_table(table, 1.0)
        # resampling either coordinate: other coordinate 0 -> f constant 0;
        # other coordinate 1 -> f is +-1/2 around its conditional mean 1/2
        s_half = ent.entropy(D.FiniteSupport([-0.5, 0.5], [0.5, 0.5]))
        want = np.array([[[0.0, s_half], [0.0, s_half]],
                         [[0.0, 0.0], [s_half, s_half]]])
        assert np.allclose(out, want, atol=1e-12)


class TestProductTable:
    def test_support_must_be_a_finite_law(self):
        u = uniform01()
        with pytest.raises(D.SpecError, match=r"supports\[1\] must be a FiniteSupport"):
            ent.ProductTable([u, D.Rademacher()], np.zeros((2, 2)))

    def test_axes_follow_the_order_given(self):
        y = D.FiniteSupport([1.0, 0.0], [0.25, 0.75])
        table = ent.ProductTable([y], [10.0, 20.0])
        assert table.joint_probs().tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("m, shape, message", [
        (2, (2, 3), "f_table shape (2, 3) does not match supports (2, 2)"),
        (1001, (1001, 1001), "product cardinality 1002001 exceeds enumeration cap 1000000"),
    ])
    def test_bad_tables_rejected(self, m, shape, message):
        law = D.FiniteSupport(np.arange(m, dtype=float), np.full(m, 1.0 / m))
        with pytest.raises(ValueError) as info:
            ent.ProductTable([law, law], np.zeros(shape))
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a nan cell read as an exact tail of [0, 0], SOUND against any bound
        u = uniform01()
        with pytest.raises(ValueError, match=r"^f_table\[1, 0\] is (nan|-?inf)"):
            ent.ProductTable([u, u], [[0.0, 1.0], [bad, 2.0]])
        with pytest.raises(ValueError, match=r"^f_table\[0, 1\]"):
            ent.ProductTable([u, u], [[0.0, bad], [bad, 2.0]])


class TestSubadditivity:
    def test_constant(self):
        u = uniform01()
        table = ent.ProductTable([u, u], np.zeros((2, 2)))
        assert ent.subadditivity_gap(table, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_coordinate_collapses(self):
        y = D.FiniteSupport([0.0, 1.0, 3.0], [0.3, 0.3, 0.4])
        table = ent.ProductTable([y], np.array([0.0, 1.0, 3.0]))
        assert ent.subadditivity_gap(table, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_weighted_sum(self):
        u = uniform01()
        f = np.add.outer([0.0, 1.0], [0.0, 2.0])
        table = ent.ProductTable([u, u], f)
        assert ent.subadditivity_gap(table, 1.0) >= -1e-12

    def test_random_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            supports = []
            for _ in range(n):
                m = int(rng.integers(2, 5))
                supports.append(D.FiniteSupport(rng.uniform(-1, 1, m),
                                               rng.dirichlet(np.ones(m))))
            f = rng.uniform(-2, 2, tuple(len(s.values) for s in supports))
            table = ent.ProductTable(supports, f)
            for gamma in (0.1, 1.0, 2.0):
                assert ent.subadditivity_gap(table, gamma) >= -1e-12


class TestEntropyBounds:
    def test_subgaussian_beta_zero(self):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        assert ent.entropy_bound_subgaussian(y, 0.0) == (0.0, 0.0)

    def test_subgaussian_rademacher(self):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        s, bound = ent.entropy_bound_subgaussian(y, 1.0)
        assert s == pytest.approx(math.tanh(1.0) - math.log(math.cosh(1.0)), abs=1e-12)
        assert s <= bound + 1e-10
        assert bound <= math.log(math.cosh(2.0)) + 1e-12

    def test_subgaussian_sweep(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            y = centered(random_dist(rng))
            for beta in (0.5, 1.0, 2.0):
                s, bound = ent.entropy_bound_subgaussian(y, beta)
                assert s <= bound + 1e-10

    @pytest.mark.parametrize("beta", [1e160, -1e160])
    def test_subgaussian_huge_beta(self, beta):
        # beta^2 overflows: the psi2 term is inf and the MGF term is the bound
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        assert ent.entropy_bound_subgaussian(y, beta) == (math.log(2.0), 2e160)

    def test_subgaussian_beta_that_overflows(self):
        y = D.FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"beta=1e\+308 overflows"):
            ent.entropy_bound_subgaussian(y, 1e308)

    def test_subexponential_point_mass(self):
        assert ent.entropy_bound_subexponential(D.FiniteSupport([0.0], [1.0])) == (0.0, 0.0)

    def test_subexponential_two_point(self):
        y = D.FiniteSupport([-0.1, 0.1], [0.5, 0.5])
        s, bound = ent.entropy_bound_subexponential(y)
        assert bound == pytest.approx(E ** 2 * 0.01 / (1 - 0.1 * E) ** 2, rel=1e-9)
        assert s <= bound + 1e-10

    def test_subexponential_scaled_sweep(self):
        for c in np.arange(0.05, 0.31, 0.05):
            y = D.FiniteSupport([-c, c], [0.5, 0.5])
            if c < 1 / E:
                s, bound = ent.entropy_bound_subexponential(y)
                assert s <= bound + 1e-10

    def test_subexponential_hypothesis_errors(self):
        with pytest.raises(ent.LemmaHypothesisError, match="hypothesis"):
            ent.entropy_bound_subexponential(D.FiniteSupport([-1.0, 1.0], [0.5, 0.5]))
        with pytest.raises(ent.LemmaHypothesisError):
            ent.entropy_bound_subexponential(D.FiniteSupport([0.0, 0.2], [0.5, 0.5]))

    def test_holder_two_point(self):
        y = D.FiniteSupport([-0.05, 0.05], [0.5, 0.5])
        s, bound = ent.entropy_bound_holder(y, 2.0)
        assert bound == pytest.approx(0.05 ** 2 / (2 * (1 - 2 * E * 0.05) ** 2), rel=1e-9)
        assert s <= bound + 1e-10
        s2, bound2 = ent.entropy_bound_holder(y, 2.0, variant="psi2")
        assert s2 <= bound2 + 1e-10

    def test_holder_sweep(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 100:
            y = centered(random_dist(rng, value_range=0.08))
            for variant in ("psi1", "psi2"):
                try:
                    s, bound = ent.entropy_bound_holder(y, 2.0, variant=variant)
                except ent.LemmaHypothesisError:
                    continue
                assert s <= bound + 1e-10
                done += 1

    def test_holder_hypothesis_error(self):
        with pytest.raises(ent.LemmaHypothesisError):
            ent.entropy_bound_holder(D.FiniteSupport([-1.0, 1.0], [0.5, 0.5]), 2.0)

    @pytest.mark.parametrize("p, variant, message", [
        (1.0, "psi1", "p must exceed 1, got 1.0"),
        (2.0, "psi3", "variant must be 'psi1' or 'psi2', got 'psi3'"),
    ])
    def test_holder_bad_arguments(self, p, variant, message):
        with pytest.raises(ValueError) as info:
            ent.entropy_bound_holder(D.FiniteSupport([-0.05, 0.05], [0.5, 0.5]), p, variant)
        assert str(info.value) == message
