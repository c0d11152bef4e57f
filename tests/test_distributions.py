import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from lighttails import distributions as D
from lighttails import functions as F
from lighttails.orlicz import _p_grid, psi_norm

CATALOGUE = [
    D.Gaussian(0.0, 1.0),
    D.Gaussian(2.0, 0.5),
    D.Exponential(1.0),
    D.Exponential(3.0),
    D.Rademacher(),
    D.UniformInterval(0.0, 1.0),
    D.UniformInterval(-2.0, 3.0),
    D.Poisson(2.0),
    D.ChiSquared(3),
    D.TwoPointEps(0.1),
    D.FiniteSupport((-1.0, 0.0, 2.0), (0.25, 0.5, 0.25)),
    D.Shifted(D.Exponential(1.0), -1.0),
    D.Scaled(D.Rademacher(), 2.0),
    D.SquareOf(D.Gaussian(0.0, 1.0)),
    D.Centered(D.Exponential(1.0)),
]


def mc_sd(samples):
    return samples.std(ddof=1) / math.sqrt(len(samples))


class TestSampling:
    def test_rademacher_support(self):
        vals = D.sample(D.Rademacher(), seed=7, count=4)
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    def test_point_mass(self):
        vals = D.sample(D.FiniteSupport((0.0,), (1.0,)), seed=3, count=10)
        assert np.all(vals == 0.0)

    def test_exponential_mean(self):
        vals = D.sample(D.Exponential(1.0), seed=1, count=10 ** 6)
        assert abs(vals.mean() - 1.0) < 0.01

    def test_bit_identical(self):
        for spec in CATALOGUE:
            a = D.sample(spec, seed=11, count=500)
            b = D.sample(spec, seed=11, count=500)
            assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = D.sample(D.Gaussian(0, 1), seed=11, count=100, stream=0)
        b = D.sample(D.Gaussian(0, 1), seed=11, count=100, stream=1)
        assert not np.array_equal(a, b)

    def test_vector_shape(self):
        vec = D.VectorSpec(3, (D.Gaussian(0, 1), D.Exponential(1.0), D.Rademacher()))
        out = D.sample(vec, seed=2, count=50)
        assert out.shape == (50, 3)


class TestValidation:
    def test_bad_sd(self):
        with pytest.raises(D.SpecError, match="sd"):
            D.validate(D.Gaussian(0.0, -1.0))

    def test_bad_rate(self):
        with pytest.raises(D.SpecError, match="rate"):
            D.validate(D.Exponential(0.0))

    def test_bad_probs(self):
        with pytest.raises(D.SpecError, match="probs"):
            D.validate(D.FiniteSupport((0.0, 1.0), (0.6, 0.6)))

    def test_bad_eps(self):
        with pytest.raises(D.SpecError, match="eps"):
            D.validate(D.TwoPointEps(1.5))

    @pytest.mark.parametrize("build", [
        lambda: D.Gaussian(mean=math.nan),
        lambda: D.Exponential(rate=math.inf),
        lambda: D.Gaussian(0.0, True),
        lambda: D.Poisson("2"),
        lambda: D.ChiSquared(2.0),
        lambda: D.UniformInterval(1.0, 1.0),
        lambda: D.FiniteSupport((1.0, "x"), (0.5, 0.5)),
        lambda: D.Shifted(3.0, 1.0),
        lambda: D.Scaled(D.Rademacher(), 10 ** 400),
        lambda: D.VectorSpec(2, (D.Rademacher(),)),
        lambda: D.VectorSpec(1, (D.VectorSpec(1, (D.Rademacher(),)),)),
    ])
    def test_invalid_spec_raises(self, build):
        with pytest.raises(D.SpecError):
            build()

    def test_validate_is_a_type_check(self):
        D.validate(D.Centered(D.Exponential(1.0)))
        with pytest.raises(D.SpecError):
            D.validate({"kind": "rademacher"})


class TestMoments:
    def test_rademacher_cube(self):
        assert D.lp_norm(D.Rademacher(), 3) == pytest.approx(1.0, abs=1e-14)

    def test_exponential_l2(self):
        assert D.lp_norm(D.Exponential(1.0), 2) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_finite_l1(self):
        spec = D.FiniteSupport((0.0, 2.0), (0.5, 0.5))
        assert D.lp_norm(spec, 1) == pytest.approx(1.0, abs=1e-14)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            D.lp_norm(D.Rademacher(), 0.5)

    def test_two_point_eps_exact(self):
        eps = 0.03
        spec = D.TwoPointEps(eps)
        for p in (1.0, 2.0, 5.0, 32.0):
            assert D.lp_norm(spec, p) == pytest.approx(eps ** (1.0 / p), rel=1e-12)

    def test_lyapunov_monotone(self):
        ps = [1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]
        for spec in CATALOGUE:
            norms = [D.lp_norm(spec, p) for p in ps]
            for a, b in zip(norms, norms[1:]):
                assert a <= b + 1e-12 * max(1.0, b)

    def test_gaussian_closed_form(self):
        # E|N(0,1)|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
        for p in (1.0, 2.0, 3.0, 7.5):
            want = math.exp((0.5 * p * math.log(2.0)
                             + float(gammaln((p + 1) / 2)) - 0.5 * math.log(math.pi)) / p)
            assert D.lp_norm(D.Gaussian(0, 1), p) == pytest.approx(want, rel=1e-10)

    def test_mc_agreement(self):
        count = 2 * 10 ** 5
        for spec in CATALOGUE:
            vals = np.abs(D.sample(spec, seed=19, count=count))
            for p in (1.0, 2.0, 4.0):
                emp = vals ** p
                tol = 5 * mc_sd(emp)
                assert abs(emp.mean() - D.abs_moment(spec, p)) <= tol + 1e-12

    def test_high_p_no_overflow(self):
        for spec in CATALOGUE:
            assert np.isfinite(D.log_abs_moment(spec, 256.0))


# laws whose moments take the numeric paths: the fixed tanh-sinh rule, or
# the Poisson series (last two)
NUMERIC_LAWS = [
    D.Centered(D.Exponential(1.0)),
    D.Centered(D.ChiSquared(1)),
    D.Centered(D.ChiSquared(3)),
    D.Shifted(D.Exponential(2.0), -3.0),
    D.Gaussian(3.0, 1.0),
    D.Gaussian(0.8, 1.0),
    D.SquareOf(D.Gaussian(0.5, 1.0)),
    D.Centered(D.SquareOf(D.Gaussian(0.0, 1.0))),
    D.Centered(D.SquareOf(D.UniformInterval(-0.5, 1.0))),
    D.Centered(D.Scaled(D.ChiSquared(2), 1.1)),
    D.SquareOf(D.Shifted(D.Exponential(1.0), -1.0)),
    D.Scaled(D.Centered(D.Exponential(0.8)), -2.0),
    D.Shifted(D.SquareOf(D.Gaussian(0.5, 1.2)), -0.3),
    D.Centered(D.Poisson(1.5)),
    D.Centered(D.SquareOf(D.Poisson(1.3))),
]
ORDERS = np.exp(np.linspace(0.0, math.log(256.0), 17))


class TestBatchedMoments:
    @pytest.mark.parametrize("spec", NUMERIC_LAWS, ids=str)
    def test_agrees_with_adaptive_path(self, spec):
        # the per-p adaptive path is the reference: 1e-9 in ln ||X||_p
        batched = D.log_abs_moments(spec, ORDERS)
        reference = np.array([D.log_abs_moment(spec, p) for p in ORDERS])
        assert np.max(np.abs(batched - reference) / ORDERS) <= 1e-9

    def test_closed_forms_are_bit_identical(self):
        for spec in CATALOGUE:
            form = D.canonical(spec)
            if isinstance(form, D.Mapped) or type(form) is D.Poisson:
                continue
            if isinstance(form, D.Gaussian) and form.mean != 0.0:
                continue
            batched = D.log_abs_moments(spec, ORDERS)
            assert batched.tolist() == [D.log_abs_moment(spec, p) for p in ORDERS]

    def test_orders_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(D.SpecError, match="positive"):
                D.log_abs_moments(D.Centered(D.Exponential(1.0)), np.array([1.0, bad]))

    def test_kink_inside_the_bulk(self):
        # E|N(m, 1)| = sqrt(2/pi) exp(-m^2/2) + m (1 - 2 Phi(-m)); the kink of
        # |x| at 0 sits in the bulk, so both paths cut the window there
        m = 0.8
        want = (math.sqrt(2.0 / math.pi) * math.exp(-m * m / 2)
                + m * math.erf(m / math.sqrt(2.0)))
        spec = D.Gaussian(m, 1.0)
        assert D.log_abs_moment(spec, 1.0) == pytest.approx(math.log(want), abs=1e-13)
        assert D.log_abs_moments(spec, np.array([1.0]))[0] == pytest.approx(
            math.log(want), abs=1e-13)


# finite laws with zero values, zero probabilities and the all-zero law
_FINITE_LAWS = st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.lists(st.sampled_from([0.0, -0.5, 2.0]) | st.floats(-40.0, 40.0),
             min_size=m, max_size=m),
    st.lists(st.sampled_from([0.0, 1.0]) | st.floats(1e-9, 1.0),
             min_size=m, max_size=m))).filter(lambda law: sum(law[1]) > 0)


class TestFiniteSupportMoments:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_FINITE_LAWS)
    def test_batched_rows_equal_log_abs_moment_bitwise(self, law):
        values, weights = law
        spec = D.FiniteSupport(values, np.asarray(weights) / math.fsum(weights))
        grid = _p_grid(256.0)
        batched = spec.log_abs_moments(grid)
        per_p = np.array([spec.log_abs_moment(p) for p in grid])
        assert batched.view(np.int64).tolist() == per_p.view(np.int64).tolist()

    def test_all_zero_law(self):
        spec = D.FiniteSupport([0.0, 0.0], [0.25, 0.75])
        assert spec.log_abs_moments(ORDERS).tolist() == [-math.inf] * len(ORDERS)
        assert spec.log_abs_moments(np.array([])).tolist() == []


class TestMeans:
    def test_examples(self):
        assert D.mean(D.Rademacher()) == 0.0
        assert D.mean(D.Exponential(2.0)) == pytest.approx(0.5)
        assert D.mean(D.Centered(D.Exponential(1.0))) == pytest.approx(0.0, abs=1e-14)

    def test_transform_consistency(self):
        spec = D.Shifted(D.Scaled(D.Poisson(2.0), 3.0), -1.0)
        assert D.mean(spec) == pytest.approx(5.0, rel=1e-12)
        vals = D.sample(spec, seed=4, count=10 ** 5)
        assert abs(vals.mean() - 5.0) < 5 * mc_sd(vals)


SUMMABLE = [
    D.Gaussian(0.0, 1.0),
    D.Gaussian(0.7, 1.3),
    D.Exponential(2.0),
    D.ChiSquared(3),
    D.Poisson(2.5),
    D.Rademacher(),
    D.Scaled(D.Exponential(1.5), -0.5),
    D.Shifted(D.Poisson(1.2), 3.0),
    D.Centered(D.ChiSquared(2)),
    D.Centered(D.Scaled(D.Shifted(D.Rademacher(), -1.0), 3.0)),
]


class TestSumLaw:
    @pytest.mark.parametrize("n", [1, 2, 20])
    @pytest.mark.parametrize("spec", SUMMABLE, ids=repr)
    def test_mean_and_variance_of_the_sum(self, spec, n):
        law = spec.sum_law(n)
        assert isinstance(law, D.Distribution)
        scale = n * D.lp_norm(spec, 2)
        assert math.isclose(D.mean(law), n * D.mean(spec),
                            rel_tol=1e-12, abs_tol=1e-12 * scale)
        var = D.abs_moment(D.Centered(spec), 2)
        assert math.isclose(D.abs_moment(D.Centered(law), 2), n * var, rel_tol=1e-12)

    def test_closed_forms(self):
        assert D.Gaussian(0.5, 2.0).sum_law(4) == D.Gaussian(2.0, 4.0)
        assert D.Exponential(2.0).sum_law(3) == D.Scaled(D.ChiSquared(6), 0.25)
        assert D.ChiSquared(3).sum_law(5) == D.ChiSquared(15)
        assert D.Poisson(1.5).sum_law(4) == D.Poisson(6.0)
        assert D.Rademacher().sum_law(3) == D.FiniteSupport(
            (-3.0, -1.0, 1.0, 3.0), (0.125, 0.375, 0.375, 0.125))
        assert D.Shifted(D.Poisson(1.0), 2.0).sum_law(3) == D.Shifted(D.Poisson(3.0), 6.0)

    def test_rademacher_weights_are_exact_binomials(self):
        law = D.Rademacher().sum_law(60)
        assert law.probs == tuple(math.comb(60, k) / 2 ** 60 for k in range(61))

    @pytest.mark.parametrize("spec", [
        D.UniformInterval(0.0, 1.0), D.FiniteSupport((-1.0, 2.0), (0.5, 0.5)),
        D.TwoPointEps(0.1), D.SquareOf(D.Gaussian(0.0, 1.0)),
        D.Centered(D.UniformInterval(-1.0, 3.0)), D.Scaled(D.TwoPointEps(0.2), 2.0),
        D.Shifted(D.FiniteSupport((0.0,), (1.0,)), 1.0)], ids=repr)
    def test_families_not_closed_under_convolution(self, spec):
        assert spec.sum_law(3) is None


class TestAbsDifferenceLaw:
    def test_closed_forms(self):
        assert D.Gaussian(1.0, 2.0).abs_difference_law() == D.Gaussian(0.0, 2.0 * math.sqrt(2.0))
        assert D.Exponential(2.0).abs_difference_law() == D.Exponential(2.0)
        assert D.UniformInterval(1.0, 4.0).abs_difference_law() == D.UniformGap(3.0)
        assert D.FiniteSupport((0.0, 2.0), (0.25, 0.75)).abs_difference_law() == D.FiniteSupport(
            (0.0, 2.0, 2.0, 0.0), (0.0625, 0.1875, 0.1875, 0.5625))

    @pytest.mark.parametrize("spec", [D.ChiSquared(3), D.Poisson(2.0)], ids=repr)
    def test_none_without_a_closed_form(self, spec):
        assert spec.abs_difference_law() is None

    @pytest.mark.parametrize("spec", [
        D.Gaussian(1.0, 2.0), D.Exponential(2.0), D.UniformInterval(-1.0, 3.0)], ids=repr)
    def test_moments_of_sampled_differences(self, spec):
        diff = np.abs(D.sample(spec, seed=4, count=10 ** 5)
                      - D.sample(spec, seed=4, count=10 ** 5, stream=1))
        law = spec.abs_difference_law()
        for p in (1.0, 2.0, 3.0):
            assert D.lp_norm(law, p) == pytest.approx(np.mean(diff ** p) ** (1 / p), rel=0.02)

    def test_gap_law(self):
        gap = D.UniformGap(1.5)
        assert D.support_interval(gap) == (0.0, 1.5)
        assert D.mean(gap) == pytest.approx(D.abs_moment(gap, 1), rel=1e-15)
        assert D.abs_moment(gap, 2) == pytest.approx(1.5 ** 2 / 6, rel=1e-15)

    def test_chi_law(self):
        chi = D.Chi(3, 2.0)
        assert D.support_interval(chi) == (0.0, math.inf)
        # E chi_3 = 2 sqrt(2 / pi)
        assert D.mean(chi) == pytest.approx(2.0 * 2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)
        assert D.abs_moment(chi, 2) == pytest.approx(3 * 4.0, rel=1e-14)
        assert "chi" not in D._KINDS and "uniform_gap" not in D._KINDS


class TestMgf:
    def test_exponential_divergence(self):
        with pytest.raises(D.MomentDivergenceError):
            D.mgf(D.Exponential(1.0), 1.0)

    def test_gaussian(self):
        assert D.mgf(D.Gaussian(0, 1), 1.3) == pytest.approx(math.exp(1.3 ** 2 / 2), rel=1e-10)

    def test_rademacher(self):
        assert D.mgf(D.Rademacher(), 2.0) == pytest.approx(math.cosh(2.0), rel=1e-12)

    def test_square_poisson_matches_series(self):
        want = math.fsum(math.exp(-0.1 * k * k - 1.0 - math.lgamma(k + 1))
                         for k in range(81))
        assert D.mgf(D.SquareOf(D.Poisson(1.0)), -0.1) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec,mu,sd,beta", [
        (D.SquareOf(D.Gaussian(1.0, 1.0)), 1.0, 1.0, 0.1),
        (D.SquareOf(D.Gaussian(0.0, 1.0)), 0.0, 1.0, 0.3),
        (D.SquareOf(D.Shifted(D.Scaled(D.Gaussian(0.0, 1.0), 2.0), 0.5)), 0.5, 2.0, -0.7),
    ])
    def test_noncentral_chi_squared(self, spec, mu, sd, beta):
        s = 1.0 - 2.0 * beta * sd ** 2
        want = s ** -0.5 * math.exp(beta * mu ** 2 / s)
        assert D.mgf(spec, beta) == pytest.approx(want, rel=1e-14)

    def test_noncentral_divergence_edge(self):
        with pytest.raises(D.MomentDivergenceError):
            D.mgf(D.SquareOf(D.Gaussian(1.0, 2.0)), 0.125)   # beta = 1/(2 sd^2)
        assert math.isfinite(D.mgf(D.SquareOf(D.Gaussian(1.0, 2.0)), 0.124))

    def test_square_uniform_numeric(self):
        want = math.sqrt(math.pi / 2) * math.erf(1 / math.sqrt(2))
        got = D.mgf(D.SquareOf(D.UniformInterval(0.0, 1.0)), -0.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_square_unbounded_diverges_for_positive_beta(self):
        with pytest.raises(D.MomentDivergenceError):
            D.mgf(D.SquareOf(D.Exponential(1.0)), 0.1)


class TestSupportInterval:
    def test_bounded(self):
        assert D.support_interval(D.UniformInterval(-1.0, 2.0)) == (-1.0, 2.0)
        assert D.support_interval(D.Rademacher()) == (-1.0, 1.0)

    def test_unbounded(self):
        lo, hi = D.support_interval(D.Gaussian(0, 1))
        assert lo == -math.inf and hi == math.inf
        assert D.support_interval(D.Exponential(1.0)) == (0.0, math.inf)

    def test_square_transform(self):
        assert D.support_interval(D.SquareOf(D.UniformInterval(-1.0, 2.0))) == (0.0, 4.0)


class TestSerialization:
    def test_roundtrip(self):
        for spec in CATALOGUE:
            assert D.spec_from_dict(D.spec_to_dict(spec)) == spec

    def test_unknown_kind(self):
        with pytest.raises(D.SpecError, match="kind"):
            D.spec_from_dict({"kind": "cauchy"})

    def test_encoding_keeps_field_values(self):
        d = {"kind": "shifted", "base": {"kind": "gaussian", "mean": 0, "sd": 1},
             "offset": 2}
        assert D.spec_to_dict(D.spec_from_dict(d)) == d
        assert json.dumps(D.spec_to_dict(D.spec_from_dict(d))) == json.dumps(d)

    @pytest.mark.parametrize("payload,where,what", [
        ({"kind": "shifted", "offset": 1.0,
          "base": {"kind": "centered", "base": {"kind": "exponential"}}},
         "$.base.base", "missing field 'rate'"),
        ({"kind": "gaussian", "sd": "x"}, "$", "sd must be a number"),
        ({"kind": "gaussian", "mean": math.nan}, "$", "mean must be finite"),
        ({"kind": "exponential", "rate": True}, "$", "rate must be a number"),
        ({"kind": "rademacher", "p": 0.5}, "$.p", "unknown field"),
        ({"kind": "vector", "dim": 1, "components": {"kind": "rademacher"}},
         "$.components", "expected a list"),
        ({"kind": "vector", "dim": 1, "components": [3]}, "$.components[0]",
         "expected a spec object"),
        ([], "$", "expected a spec object"),
    ])
    def test_errors_name_the_json_path(self, payload, where, what):
        with pytest.raises(D.SpecError) as info:
            D.spec_from_dict(payload)
        assert str(info.value).startswith(f'"{where}": ') and what in str(info.value)

    def test_depth_cap(self):
        d = {"kind": "rademacher"}
        for _ in range(200):
            d = {"kind": "centered", "base": d}
        with pytest.raises(D.SpecError, match="deeper"):
            D.spec_from_dict(d)

    def test_function_kind_is_not_a_distribution(self):
        with pytest.raises(D.SpecError, match="not a distribution"):
            D.spec_from_dict({"kind": "sum", "components": [{"kind": "rademacher"}]})


class TestCanonical:
    def test_affine_chains_reparameterise(self):
        assert D.canonical(D.Centered(D.Gaussian(2.0, 0.5))) == D.Gaussian(0.0, 0.5)
        assert (D.canonical(D.Scaled(D.Shifted(D.UniformInterval(0.0, 1.0), 1.0), -2.0))
                == D.UniformInterval(-4.0, -2.0))

    def test_finite_chains_merge(self):
        spec = D.SquareOf(D.Scaled(D.Rademacher(), 3.0))
        assert D.canonical(spec) == D.FiniteSupport((9.0,), (1.0,))

    def test_other_chains_map_a_primitive(self):
        form = D.canonical(D.Centered(D.Scaled(D.Exponential(2.0), 3.0)))
        assert form == D.Mapped(D.Exponential(2.0), (("scale", 3.0), ("shift", -1.5)))
        assert form.linear_factor() == 3.0
        assert D.canonical(D.SquareOf(D.Gaussian(1.0, 1.0))).linear_factor() is None

    def test_centered_gaussian_is_closed_form(self):
        for p in (1.0, 3.0, 40.0):
            want = D.log_abs_moment(D.Gaussian(0.0, 0.5), p)
            got = D.log_abs_moment(D.Centered(D.Shifted(D.Gaussian(2.0, 0.5), 1.0)), p)
            assert got == want

    def test_centered_mean_is_exactly_zero(self):
        for spec in CATALOGUE:
            assert D.mean(D.Centered(spec)) == 0.0

    def test_runs_once_per_spec(self):
        spec = D.Centered(D.Scaled(D.Exponential(1.2345), 0.75))
        before = D.canonical.cache_info()
        psi_norm(spec, 1)
        cold = D.canonical.cache_info()
        assert cold.misses - before.misses == 3   # Centered, Scaled, Exponential
        psi_norm(spec, 1)
        warm = D.canonical.cache_info()
        # the warm moments hit their cache; only finite_support asks again
        assert warm.misses == cold.misses and warm.hits - cold.hits <= 1


_FIELD_NAMES = sorted({f.name for cls in D._KINDS.values() for f in dataclasses.fields(cls)}
                      | {"kind", "net_size", "net_seed"})
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
                | st.text(max_size=3) | st.sampled_from(sorted(D._KINDS)))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=2),
                                    kids, max_size=5)
                  | st.builds(lambda kind, rest: {**rest, "kind": kind},
                              st.sampled_from(sorted(D._KINDS)),
                              st.dictionaries(st.sampled_from(_FIELD_NAMES), kids,
                                              max_size=5))),
    max_leaves=25)


_VALID_DOCS = [D.spec_to_dict(s) for s in CATALOGUE] + [
    D.spec_to_dict(D.VectorSpec(2, (D.Gaussian(), D.Centered(D.Poisson(1.0))))),
    D.spec_to_dict(F.SumFunction([D.Exponential(1.0), D.Shifted(D.Rademacher(), 1.0)])),
    D.spec_to_dict(F.MetricLipschitz(1.0, [D.UniformInterval(0.0, 1.0)], ["sin"])),
    D.spec_to_dict(F.VectorNormOfSum(D.VectorSpec(1, (D.Gaussian(),)), 3)),
    D.spec_to_dict(F.SupLinearLoss([(1.0,)], "huber", D.VectorSpec(1, (D.Gaussian(),)),
                                   D.Exponential(1.0), 4, 0.5)),
    {"kind": "psa_reconstruction", "ambient_dim": 2, "subspace_dim": 1, "net_size": 2,
     "net_seed": 5, "input": D.spec_to_dict(D.VectorSpec(2, (D.Gaussian(),) * 2)), "n": 3},
]


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    node = dict(node) if isinstance(node, dict) else list(node)
    node[path[0]] = _replaced(node[path[0]], path[1:], value)
    return node


def _mutant(doc, index, value):
    paths = list(_paths(doc))
    return _replaced(doc, paths[index % len(paths)], value)


class TestCodecFuzz:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(st.one_of(_JSON_TREES, st.builds(_mutant, st.sampled_from(_VALID_DOCS),
                                            st.integers(0, 10 ** 6),
                                            _JSON_LEAVES | _JSON_TREES)))
    def test_any_json_gives_a_spec_or_spec_error(self, tree):
        for decode in (D.spec_from_dict, F.fspec_from_dict):
            try:
                spec = decode(tree)
            except D.SpecError:
                continue
            assert decode(json.loads(json.dumps(D.spec_to_dict(spec)))) == spec
