import collections
import functools
import hashlib
import math
import os
import pathlib
import re
import runpy
import subprocess
import sys
from fractions import Fraction

import numpy as np
from numpy.lib.introspect import opt_func_info
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy import stats

import unit_records
from adaptive import adaptive_log_moment
from test_distributions import CATALOGUE, NUMERIC_LAWS, ORDERS
from lighttails import applications as A
from lighttails import bounds as B
from lighttails import distributions as D
from lighttails import functions as F
from lighttails import orlicz as O

E = math.e
# the chord search's first call: the octaves 1, 2, 4, ..., 256, the quarter
# octaves of the last one and the grid's last point but one
START_LEN = 13
# the first call of a search (`orlicz._sup_ratio`): the octaves up to 8 at
# alpha = 1, up to 16 at alpha = 2
HEAD_LEN = {1: 4, 2: 5}
# the splitting rounds that certify any data (TestChordSearch)
ROUNDS = 18

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
        # an upper of 0 is exact: no rounding moves it to the next float up
        for alpha in (1, 2):
            est = O.psi_norm(D.FiniteSupport((0.0,), (1.0,)), alpha)
            assert (est.value, est.upper) == (0.0, 0.0)
            assert A.psi_diameter(D.Scaled(D.Exponential(1.0), 0.0), alpha).upper == 0.0

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

    def test_an_infinite_norm_is_a_proof(self, monkeypatch):
        # an exponential variable is not sub-Gaussian: the family fact
        # decides it before any moment is read, and no error is kept
        monkeypatch.setattr(O, "_sup_ratio", None)
        for _ in range(2):
            with pytest.raises(O.NotSubGaussianError, match=r"^the psi2 norm of Centered\(base="
                               r"Exponential\(rate=1\.0\)\) is infinite: Exponential laws have "
                               r"finite psi norms only up to alpha = 1$"):
                O.psi_norm(D.Centered(D.Exponential(1.0)), 2)
        assert 2 not in D._law(D.Centered(D.Exponential(1.0))).psi
        assert F.NotSubGaussianError is O.NotSubGaussianError

    def test_norm_past_the_largest_float_names_the_law(self):
        # its standard law's norm times 1e307 used to read inf
        law = D.Scaled(D.Centered(D.Poisson(1e4)), 1e307)
        with pytest.raises(D.SpecError, match=rf"^the psi1 norm of {re.escape(repr(law))} "
                                              r"is past the largest float$"):
            O.psi_norm(law, 1)
        # E chi_1000 sd used to raise OverflowError in math.exp
        with pytest.raises(D.SpecError, match=r"^the mean of Chi\(dof=1000, sd=1e\+307\) is "
                                              r"past the largest float"):
            O.psi_norm(D.Chi(1000, 1e307), 1)

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
        # the search runs on the standard law, which another test may have
        # memoised: without the law memo the perturbed rule is read
        D._laws.clear()
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
    def test_a_centered_chi_squared_1_is_certified_past_p_max(self, spec):
        # its psi1 ratio peaks at p* = 1, at E|Z^2 - 1| = 4 phi(1), and rises
        # again past p = 128 toward 2/e: T(256) from the closed-form MGF
        # bounds that rise below the value, where the last-octave test
        # refused the norm
        est = O.psi_norm(spec, 1)
        assert (est.p_star, est.method) == (1.0, "analytic-grid")
        assert est.value == pytest.approx(4.0 / math.sqrt(2.0 * math.pi * E), rel=1e-12, abs=0.0)
        ps = np.geomspace(128.0, 4096.0, 6)
        ratios = np.exp(D.log_abs_moments(spec, ps) / ps - np.log(ps))
        assert (np.diff(ratios) > 0).all() and ratios[-1] < 2.0 / E
        assert dense_oracle(spec, 1, p_max=4096.0, refine=True) <= est.upper
        t256 = O._tail_bound(D._law(D.standard_form(spec)[1]), 1)(math.log(est.value), 256.0)
        assert t256 <= math.log(est.value)
        assert O.psi_norm(spec, 1) == est      # kept in the record

    def test_equal_coordinates_run_the_grid_once(self, monkeypatch):
        spec = D.Centered(D.Exponential(1.625))
        grids = self._count_moment_calls(monkeypatch)
        before = dict(D._law_counts)
        values = {O.psi_norm(spec, 1).value for _ in range(10)}
        assert len(values) == 1
        assert psi_counts(before) == (1, 9)
        assert grids == [HEAD_LEN[1]]

    @pytest.mark.parametrize("unit, laws", [
        (D.Centered(D.Exponential(1.0)),
         [D.Centered(D.Scaled(D.Exponential(r), c))
          for r, c in zip((0.8, 1.1, 1.625, 3.0, 0.31), (1.0, -2.5, 0.7, 1e3, 1.0))]),
        (D.Centered(D.ChiSquared(3)),
         [D.Scaled(D.Centered(D.ChiSquared(3)), c) for c in (0.2, 1.1, -4.0, 17.0, 1.0)]),
    ], ids=["exponential", "chi-squared"])
    def test_one_shape_runs_the_grid_once(self, unit, laws, monkeypatch):
        # every rate and factor of one shape reads the standard law's search,
        # and its upper is not below s times the standard law's chord bound
        grids = self._count_moment_calls(monkeypatch)
        before = dict(D._law_counts)
        want = O.psi_norm(unit, 1)
        top = D._law(unit).psi[1].upper      # the kept estimate
        assert want.upper > top >= want.value
        for law in laws:
            scale, standard = D.standard_form(law)
            assert standard == unit
            got = O.psi_norm(law, 1)
            assert (got.value, got.p_star) == (scale * want.value, want.p_star)
            assert got.upper > Fraction(scale) * Fraction(top) and got.upper > got.value
        assert psi_counts(before) == (1, len(laws))
        assert grids == [HEAD_LEN[1]]

    @staticmethod
    def _count_moment_calls(monkeypatch):
        D._laws.clear()        # every norm below is cold
        sizes = []
        monkeypatch.setattr(O, "_sup_ratio", counted_search(O._sup_ratio, sizes))
        return sizes

    def test_end_point_maximum_takes_one_coarse_call(self, monkeypatch):
        sizes = self._count_moment_calls(monkeypatch)
        est = O.psi_norm(D.Centered(D.Exponential(1.625)), 1)
        assert est.p_star == 1.0
        # the chord bound of the first interval peaks at p = 1: no split, and
        # the MGF bounds the ratio past 8 below it
        assert sizes == [HEAD_LEN[1]]

    def test_maximum_near_the_end_is_found_by_bisection(self, monkeypatch):
        # the maximiser sits 1.9e-4 above p = 1, inside the first start
        # interval, whose chord bound beats the value at p = 1
        law = D.FiniteSupport(
            (-1.2266576256154749, -0.00773177677827791, 0.7636571719335548),
            (0.2716776276902979, 0.31930937820229327, 0.40901299410740877))
        sizes = self._count_moment_calls(monkeypatch)
        est = O.psi_norm(law.abs_difference_law(), 2)
        assert sizes == [HEAD_LEN[2]] + [2] * 9
        assert 1.0 < est.p_star < 1.0003
        assert est.value == pytest.approx(0.8552974043163638, rel=1e-15, abs=0.0)
        assert est.value < est.upper <= est.value * (1.0 + 1e-12)    # the chord gap
        # the largest ratio on 400001 equal steps of [1, 1.0004]
        assert est.value <= 0.8552974043163654 <= est.upper
        assert A.psi_diameter(law, 2).value == est.value

    def test_a_centered_chi_psi2_norm_is_set_by_its_tail_bound(self):
        # a centered chi law is sub-Gaussian, and its psi2 ratio still rises
        # past p = 256 toward 1.7 / sqrt(e): the squared MGF of chi_5 and the
        # shift by its mean bound it there, and so set the upper
        law = D.Centered(D.Chi(5, 1.7))
        est = O.psi_norm(law, 2)
        assert (est.p_star, est.method) == (256.0, "tail-bound")
        assert est.proxy_value == est.upper > est.value
        assert dense_oracle(law, 2, p_max=4096.0, refine=True) <= est.upper


_BENCH_WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bound_cold_laws(seeds=(1, 2, 3), cycles=5):
    """Every coordinate law of the bound-cold templates, and its centered
    law, as the benchmark draws them in the first cycles of these seeds."""
    workloads = runpy.run_path(str(_BENCH_WORKLOADS))
    laws = []
    for seed in seeds:
        workload = workloads["BoundCold"](seed, "unused")
        for index in range(cycles):
            for j, (_, build) in enumerate(workloads["COLD_TEMPLATES"]):
                spec = build(workload._rng(index, j))
                for c in spec.get("components") or spec["coordinate_dists"]:
                    law = D.spec_from_dict(c)
                    laws += [law, D.Centered(law)]
    return list(dict.fromkeys(laws))


def psi_counts(before):
    """(searches, hits) of the psi estimates kept in the law records since
    the counts `before`."""
    return tuple(D._law_counts[k] - before[k] for k in ("searches", "hits"))


def assert_matches_direct_search(law, alpha):
    """psi_norm against the chord search run on the law itself, with the
    standard form bypassed: the same outcome, value and upper equal to
    1e-12 relative, the upper not below the value."""
    try:
        direct = O._search(D._law(law), alpha)
    except (O.NotSubGaussianError, O.NotSubExponentialError) as exc:
        with pytest.raises(type(exc)):
            O.psi_norm(law, alpha)
        return
    got = O.psi_norm(law, alpha)
    assert got.upper >= got.value
    assert got.value == pytest.approx(direct.value, rel=1e-12, abs=0.0)
    assert got.upper == pytest.approx(direct.upper, rel=1e-12, abs=0.0)


def simd_pin(pins):
    """The pin of pins for the SIMD path numpy runs: pins maps the target
    that numpy dispatches float64 exp to, X86_V4 (AVX-512) or X86_V3 (AVX2,
    as under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), to a
    hash taken on numpy 2.4.6 and scipy 1.17.1.  A path with no pin fails."""
    path = opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
    if path not in pins:
        pytest.fail(f"no pin recorded for numpy's {path} path of float64 exp")
    return pins[path]


def fraction_standard_form(spec):
    """`distributions.standard_form` with a uniform's half-width and center
    always read as Fractions and every map step walked in Fractions."""
    base, steps = D._chain(D.canonical(spec))
    unit = base.unit_law()
    if unit is None:
        return 1.0, spec
    a, c, law = unit
    a, c = Fraction(*a), Fraction(*c)
    if isinstance(base, D.UniformInterval):
        lo, hi = Fraction(base.lo), Fraction(base.hi)
        a, c = (hi - lo) / 2, (hi + lo) / 2
    for step in steps:
        if isinstance(step, D.Shifted):
            c += Fraction(step.offset)
        elif isinstance(step, D.Scaled):
            a, c = a * Fraction(step.factor), c * Fraction(step.factor)
        elif c or max(a.numerator.bit_length(), a.denominator.bit_length()) > D._SCALE_BITS:
            return 1.0, spec
        else:
            a, law = a * a, D.ChiSquared(1) if law == D.Gaussian(0.0, 1.0) else D.SquareOf(law)
    scale = D.round_up(abs(a))
    if spec.expectation() == 0.0:
        law = law if law.expectation() == 0.0 else D.Centered(law)
    elif c or scale != abs(a):
        return 1.0, spec
    if scale == math.inf or scale < sys.float_info.min and scale != abs(a):
        return 1.0, spec
    return scale, law


class TestStandardForm:
    """psi norms scaled out from one search per shape equal the search on
    each law itself."""

    @pytest.mark.parametrize("law", NUMERIC_LAWS, ids=str)
    def test_numeric_laws_match_the_direct_search(self, law):
        for alpha in (1, 2):
            assert_matches_direct_search(law, alpha)

    def test_bound_cold_laws_match_the_direct_search(self):
        scaled = 0
        for law in bound_cold_laws():
            if D.standard_form(law)[1] != law:
                scaled += 1
                for alpha in (1, 2):
                    assert_matches_direct_search(law, alpha)
        assert scaled >= 50     # the centered exponential and chi-squared laws

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from([D.Exponential, D.ChiSquared]), st.floats(0.05, 20.0),
           st.integers(1, 6), st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
           st.floats(-3.0, 3.0), st.booleans())
    def test_random_rates_and_factors_match_the_direct_search(self, family, rate, dof,
                                                              factor, offset, outer):
        base = family(rate) if family is D.Exponential else family(dof)
        if outer:
            law = D.Centered(D.Scaled(D.Shifted(base, offset), factor))
        else:
            law = D.Scaled(D.Centered(base), factor)
        scale, standard = D.standard_form(law)
        unit, _, shape = base.unit_law()        # chi-squared(2) is 2 Exponential(1)
        assert standard == D.Centered(shape)
        exact = abs(Fraction(factor)) * Fraction(*unit)
        assert scale >= exact > Fraction(math.nextafter(scale, 0.0))
        for alpha in (1, 2):
            assert_matches_direct_search(law, alpha)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(["gaussian", "uniform", "chi", "gap", "poisson", "square"]),
           st.floats(0.05, 20.0), st.floats(-3.0, 3.0), st.integers(1, 6),
           st.floats(0.01, 100.0) | st.floats(-100.0, -0.01))
    def test_scale_families_match_the_direct_search(self, family, size, offset, dof, factor):
        # sd N(0, 1), half-width U(-1, 1), Chi and UniformGap by their scale,
        # a centered affine Poisson and a centered (sd Z)^2
        law = {"gaussian": D.Centered(D.Gaussian(offset, size)),
               "uniform": D.Centered(D.UniformInterval(offset, offset + size)),
               "chi": D.Chi(dof, size), "gap": D.UniformGap(size),
               "poisson": D.Centered(D.Shifted(D.Poisson(size), offset)),
               "square": D.Centered(D.SquareOf(D.Gaussian(0.0, size)))}[family]
        for law in (law, D.Scaled(law, factor)):
            for alpha in (1, 2):
                assert_matches_direct_search(law, alpha)

    # sha256 of the little-endian float64 rows of log_abs_moments at ORDERS,
    # law after law, over the 555 laws of NUMERIC_LAWS and bound_cold_laws()
    # whose standard form is what it was before Gaussians, uniforms, Chi,
    # UniformGap, Poisson and squares scaled out; taken from that version,
    # per SIMD path (`simd_pin`)
    UNCHANGED_ROWS_SHA256 = {
        "X86_V4": "5a3c31380dc99a27261e8b348a3cacdf9ca4223d75777a03d8d10ccc4bb933da",
        "X86_V3": "787fe5bb870b4f6f9ef796f1f980a435fba7d40ed66c34a891a29ea22ca1db69",
    }

    def test_unchanged_standard_forms_keep_their_moment_bits(self):
        def base(law):
            return D._chain(D.canonical(law))[0]

        def unchanged(law):
            # the standard forms of the earlier rule: (1.0, law), or a centered
            # affine exponential or chi-squared law's
            scale, standard = D.standard_form(law)
            shape = {D.Exponential: D.Exponential(1.0), D.ChiSquared: base(law)}.get(type(base(law)))
            return (scale, standard) == (1.0, law) or (
                shape is not None and standard == D.Centered(shape))

        laws = [law for law in dict.fromkeys(NUMERIC_LAWS + bound_cold_laws()) if unchanged(law)]
        rows = np.concatenate([D.log_abs_moments(law, ORDERS) for law in laws])
        assert len(laws) == 555
        assert hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest() == simd_pin(
            self.UNCHANGED_ROWS_SHA256)

    def test_the_integer_walk_is_the_fraction_walk(self):
        # chains of several shifts and scales, whose offsets and factors
        # cancel exactly or not, and squares near the walk's size limit
        laws = []
        for base in (D.Exponential(1.0), D.Exponential(3.0), D.ChiSquared(3), D.Poisson(1.5)):
            for b, f in ((0.5, 2.0), (0.1, 3.0), (1e-150, 1e150), (0.75, -1.0 / 3.0)):
                chain = D.Shifted(D.Scaled(D.Shifted(base, b), f), -b * f)
                laws += [chain, D.SquareOf(chain), D.Centered(D.SquareOf(chain)),
                         D.SquareOf(D.Shifted(D.Shifted(base, b), -b)),
                         D.SquareOf(D.SquareOf(D.Scaled(chain, 1e-200)))]
        laws += [D.Scaled(D.Exponential(1.0), 5e-324), D.Scaled(D.Poisson(1.0), 1e-320),
                 D.Centered(D.Scaled(D.Exponential(3.0), 5e-324))]     # 1/3 of 5e-324 rounds up
        for law in laws:
            scale, standard = D._standard_form(law, *D._chain(D.canonical(law)))   # no memo
            want = fraction_standard_form(law)
            assert (scale, standard) == want and type(scale) is type(want[0]), law
        assert sum(D.standard_form(law) != (1.0, law) for law in laws) >= 20

    def test_uniforms_keep_the_fraction_walk(self):
        # a uniform's half-width and center are floats where they are exact:
        # every standard form is the one of the walk in Fractions
        laws = list(dict.fromkeys(NUMERIC_LAWS + bound_cold_laws()))
        laws += [wrap(law) for law in laws for wrap in (D.SquareOf, D.Centered)]
        laws += [D.Centered(D.SquareOf(D.UniformInterval(lo, hi)))
                 for lo, hi in [(-0.5, 0.5), (-0.1, 0.7), (0.1, 0.7), (-3.0, 1e-300), (-1e150, 1e150)]]
        uniforms = 0
        for law in laws:
            uniforms += isinstance(D._chain(D.canonical(law))[0], D.UniformInterval)
            scale, standard = D._standard_form(law, *D._chain(D.canonical(law)))   # no memo
            want = fraction_standard_form(law)
            assert (scale, standard) == want and type(scale) is type(want[0]), law
        assert uniforms >= 100

    @pytest.mark.parametrize("law", [
        D.Shifted(D.ChiSquared(2), 1.0), D.Centered(D.SquareOf(D.Exponential(1.0))),
        D.Centered(D.Poisson(2.0)), D.Exponential(1.0),
        D.Exponential(1.3),                                 # 1 / 1.3 is not a float
        D.Scaled(D.Chi(3, 1.3), 1.1),                       # nor is 1.3 * 1.1
        D.UniformInterval(-2.0, 3.0), D.Gaussian(0.8, 1.0),   # shifted and uncentered
        D.SquareOf(D.Shifted(D.Exponential(1.0), -1.0)),    # a shift under the square
        D.Centered(D.SquareOf(D.UniformInterval(-0.5, 1.0))),
        D.Shifted(D.Poisson(5.0), -20.0), D.FiniteSupport((-1.0, 2.0), (0.5, 0.5))], ids=str)
    def test_other_laws_keep_scale_one(self, law):
        assert D.standard_form(law) == (1.0, law)

    @pytest.mark.parametrize("law, scale, standard", [
        (D.Gaussian(0.0, 1.3), 1.3, D.Gaussian(0.0, 1.0)),
        (D.Centered(D.Gaussian(1.0, 2.0)), 2.0, D.Gaussian(0.0, 1.0)),
        (D.Scaled(D.Gaussian(0.0, 1.5), -2.0), 3.0, D.Gaussian(0.0, 1.0)),
        (D.Centered(D.UniformInterval(0.0, 0.5)), 0.25, D.UniformInterval(-1.0, 1.0)),
        (D.UniformInterval(-1.5, 1.5), 1.5, D.UniformInterval(-1.0, 1.0)),
        (D.UniformGap(2.0), 2.0, D.UniformGap(1.0)),
        (D.Chi(5, 1.7), 1.7, D.Chi(5, 1.0)),
        (D.Centered(D.Chi(5, 1.7)), 1.7, D.Centered(D.Chi(5, 1.0))),
        (D.Scaled(D.Exponential(2.0), 3.0), 1.5, D.Exponential(1.0)),
        (D.Scaled(D.Poisson(2.0), 0.5), 0.5, D.Poisson(2.0)),
        (D.Centered(D.Scaled(D.Poisson(2.0), -0.5)), 0.5, D.Centered(D.Poisson(2.0))),
        (D.Centered(D.Shifted(D.Poisson(2.0), 3.0)), 1.0, D.Centered(D.Poisson(2.0))),
        (D.ChiSquared(2), 2.0, D.Exponential(1.0)),
        (D.Centered(D.ChiSquared(2)), 2.0, D.Centered(D.Exponential(1.0))),
        (D.SquareOf(D.Gaussian(0.0, 2.0)), 4.0, D.ChiSquared(1)),
        (D.Centered(D.SquareOf(D.Gaussian(0.0, 1.5))), 2.25, D.Centered(D.ChiSquared(1))),
        (D.Centered(D.SquareOf(D.Scaled(D.UniformInterval(-1.0, 1.0), 3.0))), 9.0,
         D.Centered(D.SquareOf(D.UniformInterval(-1.0, 1.0)))),
        (D.Centered(D.SquareOf(D.Scaled(D.Exponential(2.0), 3.0))), 2.25,
         D.Centered(D.SquareOf(D.Exponential(1.0))))], ids=str)
    def test_shapes_scale_out(self, law, scale, standard):
        assert D.standard_form(law) == (scale, standard)

    def test_inexact_scales_round_up(self):
        # 1.3^2 and 1.1 * 2 / 0.7 are not floats: the scale is the next float up
        for law, exact in [(D.Centered(D.SquareOf(D.Gaussian(0.0, 1.3))), Fraction(1.3) ** 2),
                           (D.Centered(D.Scaled(D.Exponential(0.7), 1.1)),
                            Fraction(1.1) / Fraction(0.7))]:
            scale = D.standard_form(law)[0]
            assert scale >= exact > Fraction(math.nextafter(scale, 0.0))

    @pytest.mark.parametrize("law, scale, standard", [
        (D.Scaled(D.Exponential(1.0), 5e-324), 5e-324, D.Exponential(1.0)),
        (D.Scaled(D.Poisson(1.0), 1e-320), 1e-320, D.Poisson(1.0))], ids=str)
    def test_exact_subnormal_scales_move_out(self, law, scale, standard):
        # a search on the law itself has no tail bound: its MGF tail needs a
        # lambda near 1 / scale, past the largest float
        assert D.standard_form(law) == (scale, standard)
        est = O.psi_norm(law, 1)
        assert (est.value, est.p_star) == (scale, 1.0) and est.upper >= est.value
        assert est.upper <= 3 * scale

    def test_a_subnormal_scale_keeps_a_positive_norm(self):
        # 5e-324 times the standard law's value rounds to 0; read as 0, a
        # bound on a sum of these laws called f a.s. constant
        law = D.UniformInterval(-5e-324, 5e-324)
        for alpha in (1, 2):
            est = O.psi_norm(law, alpha)
            assert est.upper >= est.value == 5e-324
        profile = F.proxy_profile(F.SumFunction([law] * 3))
        for kind in ("thm1", "thm2"):
            res = B.evaluate_tail(kind, profile, 1e-323)
            assert res.note == "" and 0.0 < res.prob < 1.0

    def test_an_inexact_subnormal_product_rounds_up(self):
        # at a scale of 1.5e-323 the value read 1e-323, 16.5% below its exact
        # product, and the diameter 1.5e-323, 11.4% below; proxies read both
        law = D.Scaled(D.Gaussian(0.0, 1.0), 1.5e-323)
        value = Fraction(1.5e-323) * Fraction(O.psi_norm(D.Gaussian(0.0, 1.0), 1).value)
        scale, centered = D.standard_form(D.Centered(law))
        diff = D.canonical(centered).abs_difference_law()
        diameter = Fraction(scale) * Fraction(O.psi_norm(diff, 1).value)
        assert O.psi_norm(law, 1).value >= value
        assert A.psi_diameter(law, 1).value >= diameter
        for fspec, exact in ((F.SumFunction([law] * 2), value),
                             (F.MetricLipschitz(1.0, [law], ["abs"]), diameter)):
            assert all(x >= exact for x in F.proxy_profile(fspec).psi1_per_coord)

    def test_deep_squares_keep_scale_one(self):
        # the exact scale 0.1^256 has an integer of 14080 bits, and every
        # further square doubles it: the walk stops before it grows
        law = D.Gaussian(0.0, 0.1)
        for _ in range(8):
            law = D.SquareOf(law)
        assert D.standard_form(D.Centered(law)) == (1.0, D.Centered(law))

    def test_moments_scale_out(self):
        law = D.Centered(D.Scaled(D.Exponential(1.3), 2.5))
        scale, standard = D.standard_form(law)
        ps = np.array([1.0, 2.5, 40.0])
        want = ps * math.log(scale) + D.log_abs_moments(standard, ps)
        assert D.log_abs_moments(law, ps).tolist() == want.tolist()
        assert [D.log_abs_moment(law, p) for p in ps] == want.tolist()
        # a centered (sd Z)^2 is sd^2 Centered(chi-squared(1))
        square, unit = D.Centered(D.SquareOf(D.Gaussian(0.0, 1.7))), D.Centered(D.ChiSquared(1))
        for p in (1.0, 4.0, 37.5):
            assert abs(D.lp_norm(square, p) - 1.7 ** 2 * D.lp_norm(unit, p)) <= 1e-12 * D.lp_norm(square, p)


def linear_phi(s, p0, alpha):
    """phi(p) = s p - p0 / alpha, of Z = e^s with probability e^(-p0 /
    alpha), else 0: its chord is itself, so the chord bound is the ratio,
    which peaks at p0 with ln ratio s - (1 + ln p0) / alpha."""
    return (lambda ps: s * ps - p0 / alpha), s - (1.0 + math.log(p0)) / alpha


def no_tail(best, p0):
    """A tail bound that ends no search early and bounds nothing past p =
    256: the search reads all of the start, as on data that are no law."""
    return math.inf


class TestChordSearch:
    """_sup_ratio on synthetic ln E|Z|^p."""

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("p0", [1.0002, math.pi, 100.5])
    def test_sharp_interior_maximum_converges(self, p0, alpha):
        # a linear phi has the sharpest maximum a convex phi allows
        phi, exact = linear_phi(0.7, p0, alpha)
        best, p, top, t = O._sup_ratio(phi, alpha, O._support_tail(math.exp(0.7), alpha))
        assert exact - 1e-12 <= best <= exact + 1e-14
        assert exact - 1e-14 <= top <= best + 1e-12
        assert p == pytest.approx(p0, rel=1e-5)
        # |Z| <= e^0.7 bounds the ratio past q by 0.7 - ln(q) / alpha: the
        # search ends at the first q of the head where that is not above the
        # peak, else at 256, where it is below the peak unless p0 > 256 / e
        end = next((q for q in O._P0[alpha] if 0.7 - math.log(q) / alpha <= best), 256.0)
        assert t == pytest.approx(0.7 - math.log(end) / alpha, abs=1e-8)
        assert (t > top) == (p0 > 256.0 / E)

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("p0", [1.0002, 6.9, 13.8, 100.5])
    def test_an_order_past_the_head_is_read_only_where_its_tail_fails(self, p0, alpha):
        # where the head's tail bound ends the search, no order past the
        # head is read, so a moment that fails there fails no search
        phi, _ = linear_phi(0.7, p0, alpha)
        tail = O._support_tail(math.exp(0.7), alpha)
        sizes = []
        want = O._sup_ratio(lambda ps: sizes.append(len(ps)) or phi(ps), alpha, tail)
        assert sizes[0] == HEAD_LEN[alpha]

        def failing(ps):
            if ps.max() > O._HEAD[alpha][-1]:
                raise D.QuadratureError("past the head")
            return phi(ps)
        if sizes[1:2] == [START_LEN - HEAD_LEN[alpha]]:     # the head's tail bound fails
            with pytest.raises(D.QuadratureError, match="past the head"):
                O._sup_ratio(failing, alpha, tail)
        else:
            assert O._sup_ratio(failing, alpha, tail) == want

    def test_the_p_grid_is_correctly_rounded(self):
        # entry i is the float nearest 2^(i/16): the midpoints to both its
        # float neighbours, raised to the 16th power, bracket 2^i exactly
        grid = O._P_GRID
        assert grid.dtype == np.float64 and len(grid) == 16 * 8 + 1 == len(set(grid))
        for i, x in enumerate(grid.tolist()):
            lo = (Fraction(x) + Fraction(math.nextafter(x, 0.0))) / 2
            hi = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
            assert lo ** 16 < 2 ** i < hi ** 16, i
        assert grid[0] == 1.0 and grid[-1] == O._P_MAX

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_a_rise_on_the_last_grid_interval_stays_under_the_tail(self, alpha):
        # the ratio rises on the last grid interval; phi(p) / p < 1000 / p_c,
        # so the support bound of M = e^(1000 / p_c) holds for this phi
        grid = O._P_GRID
        p_c = math.sqrt(grid[-2] * grid[-1])

        def phi(ps):        # convex: max of two lines crossing at p_c
            return np.maximum(0.0, 1000.0 * (ps / p_c - 1.0))

        ratios = phi(grid) / grid - np.log(grid) / alpha
        assert np.all(np.diff(ratios[:-1]) < 0) and ratios[-1] > ratios[-2]
        assert ratios[-1] < ratios[-5]      # the quarter octaves of the start miss it
        tail = O._support_tail(math.exp(1000.0 / p_c), alpha)
        best, p, top, t = O._sup_ratio(phi, alpha, tail)
        assert (best, p) == (0.0, 1.0) and ratios[-1] <= t == tail(best, 256.0)
        # past p = 256 the ratio falls: the bound holds to 4096
        ps = np.geomspace(256.0, 4096.0, 100)
        assert (phi(ps) / ps - np.log(ps) / alpha <= t).all()

    def test_the_rounds_certify_any_data(self):
        # a split at least halves an interval in ln p, and a start interval
        # is at most an octave wide: after k rounds (b - a) / a is at most
        # 2^(2^-k) - 1, and an excess of (b-a)^2 / (8 alpha a^2) is within
        # the tolerance from k = ROUNDS on, at alpha = 1 and 2
        assert np.all(np.diff(np.log2(O._START)) <= 1.0)
        for alpha in (1, 2):
            excess = [(2.0 ** (2.0 ** -k) - 1.0) ** 2 / (8 * alpha) for k in (ROUNDS - 1, ROUNDS)]
            assert excess[0] > O._CHORD_TOL >= excess[1]
        assert ROUNDS <= O._MAX_ROUNDS

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_past_the_round_cap_the_search_raises(self, alpha, monkeypatch):
        # the ratio is 0.01 times the linear phi's, and the chords of the
        # p ln p part lie above it by nearly the excess the rounds allow, so
        # this maximum takes all ROUNDS rounds, which no phi exceeds; the cap
        # is lowered to show that running out raises
        line, exact = linear_phi(0.7, 1.5, alpha)

        def phi(ps):
            return 0.99 * ps * np.log(ps) / alpha + 0.01 * line(ps)

        calls = []
        monkeypatch.setattr(O, "_MAX_ROUNDS", ROUNDS)
        best = O._sup_ratio(lambda ps: calls.append(len(ps)) or phi(ps), alpha, no_tail)[0]
        assert best == pytest.approx(0.01 * exact, abs=1e-12) and len(calls) == 2 + ROUNDS
        monkeypatch.setattr(O, "_MAX_ROUNDS", ROUNDS - 1)
        with pytest.raises(D.QuadratureError, match=f"after {ROUNDS - 1} bisection rounds"):
            O._sup_ratio(phi, alpha, no_tail)

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
        O._sup_ratio(lambda ps: calls.append(len(ps)) or phi(ps), alpha, no_tail)
        assert len(calls) <= 2 + ROUNDS

    @pytest.mark.parametrize("hole", [-math.inf, math.nan])
    def test_a_non_finite_moment_has_no_chord_bound(self, hole):
        # -inf at one order and finite elsewhere is not log-convex
        def phi(ps):
            return np.where(ps == 2.0, hole, 0.1 * ps)

        with pytest.raises(D.QuadratureError, match="no chord bound"):
            O._sup_ratio(phi, 1, no_tail)


def dense_oracle(spec, alpha, num=10 ** 4, p_max=256.0, refine=False):
    """Criterion 1's dense grid, on the batched moments the search reads;
    with refine, also num more orders across the two cells beside its
    maximum."""
    def ratios(ps):
        return np.exp(D.log_abs_moments(spec, ps) / ps - np.log(ps) / alpha)

    ps = np.exp(np.linspace(0.0, math.log(p_max), num))
    coarse = ratios(ps)
    i = int(np.argmax(coarse))
    if not refine:
        return float(coarse[i])
    lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
    return float(max(coarse[i], np.max(ratios(np.exp(np.linspace(math.log(lo), math.log(hi), num))))))


def counted_search(search, sizes):
    """The chord search `search`, appending to sizes the number of orders
    of each moment read it makes."""
    def counted(log_moments, *args):
        return search(lambda ps: sizes.append(len(ps)) or log_moments(ps), *args)
    return counted


def cold_search(law, alpha):
    """psi_norm(law, alpha) with the law memo cleared: the estimate, or the
    NotSubGaussianError, NotSubExponentialError or QuadratureError it
    raised, and the number of orders of each moment read of the search."""
    D._laws.clear()
    sizes, real = [], O._sup_ratio
    O._sup_ratio = counted_search(real, sizes)
    try:
        return O.psi_norm(law, alpha), sizes
    except (O.NotSubGaussianError, O.NotSubExponentialError, D.QuadratureError) as exc:
        return exc, sizes
    finally:
        O._sup_ratio = real


@functools.lru_cache(maxsize=None)
def cold_corpus():
    """(law, alpha, outcome, call sizes) of the cold search of every law of
    bound_cold_laws(), NUMERIC_LAWS and CATALOGUE at alpha = 1 and 2."""
    laws = dict.fromkeys(bound_cold_laws() + NUMERIC_LAWS + CATALOGUE)
    return tuple((law, alpha, *cold_search(law, alpha)) for law in laws for alpha in (1, 2))


_LAST_OCTAVE = O._START[O._START >= 128.0]


def rises_at_p_max(law, alpha):
    """The ratio rises somewhere over the orders of the start's last octave:
    the laws whose norm the last-octave test of earlier searches refused."""
    ratios = D.log_abs_moments(law, _LAST_OCTAVE) / _LAST_OCTAVE - np.log(_LAST_OCTAVE) / alpha
    return bool(np.any(np.diff(ratios) > 1e-9))


class TestColdCorpus:
    """The start on the octaves, the chord-peak splits and the tail bounds
    keep every outcome of the cold searches that earlier searches
    certified, and the bits of every maximum at p = 1: the pins are taken
    from the search that started on every 4th point of the p-grid and split
    at midpoints only.  Every norm they refused is now decided: a proof
    that it is infinite, or a tail bound past p = 256."""

    # sha256 of the lines "law alpha PMaxTooSmallError", in corpus order, of
    # the searches that the last-octave test refused, and of the lines "law
    # alpha error" of the searches that raise now
    REFUSED_SHA256 = "35bcc0b3637434ef495f9d89aa6dbdf9bd88c84d6f8f5adc7ac057f897bdf7d2"
    PROOFS_SHA256 = "dda8f6d3e72c6d28d1251c5fa50e4c48e1b5218d81b70441fcd559d721fc9cbc"
    # sha256 of the little-endian float64 (value, upper) pairs, in corpus
    # order, of the searches whose maximum is at p = 1, and of their values
    # alone, which the one rounding rule of every upper left as they were;
    # per SIMD path (`simd_pin`)
    AT_ONE_SHA256 = {
        "X86_V4": "282cfcdec301de2d5f8726771b0685880f3cf9f43fbdca7f951a9b51bbb63d83",
        "X86_V3": "8a75fc2f3a217c1c6ad9be99f62a58df49764999f263615c78c2b8c49533deb7",
    }
    AT_ONE_VALUES_SHA256 = {
        "X86_V4": "6ed999569ad0c89eea47c8117984060d9bac5dc516a10d4d7bd855ac0014d52d",
        "X86_V3": "5c1c7837cfb801175ccf21724ef39977f05cb68337240351e24592c53f00619d",
    }

    def test_every_refusal_is_decided(self):
        # the refused laws are the proofs and the laws that rise at p_max
        errors = [f"{law!r} {alpha} {type(out).__name__}\n"
                  for law, alpha, out, _ in cold_corpus() if isinstance(out, Exception)]
        refused = [f"{law!r} {alpha} PMaxTooSmallError\n" for law, alpha, out, _ in cold_corpus()
                   if isinstance(out, Exception) or rises_at_p_max(law, alpha)]
        assert len(cold_corpus()) == 1560 and len(errors) == 380 and len(refused) == 413
        assert hashlib.sha256("".join(refused).encode()).hexdigest() == self.REFUSED_SHA256
        assert hashlib.sha256("".join(errors).encode()).hexdigest() == self.PROOFS_SHA256
        # each proof read no moment
        assert all(sizes == [] for _, _, out, sizes in cold_corpus() if isinstance(out, Exception))

    def test_laws_that_rise_at_p_max_are_certified(self):
        # 32 centered chi-squared_1 shapes and Shifted(Exponential(2), -3) at
        # alpha = 1: each has its maximum at p = 1, and its ratio rises past
        # p = 128; the oracles run on each standard law, to p = 4096
        rising = [(law, alpha, out) for law, alpha, out, _ in cold_corpus()
                  if isinstance(out, O.OrliczEstimate) and rises_at_p_max(law, alpha)]
        assert len(rising) == 33 and {(alpha, est.p_star) for _, alpha, est in rising} == {(1, 1.0)}
        standards = {}
        for law, alpha, est in rising:
            scale, standard = D.standard_form(law)
            if standard not in standards:
                ref = O.psi_norm(standard, alpha)
                assert dense_oracle(standard, alpha, p_max=4096.0, refine=True) <= ref.upper
                assert grid_oracle(standard, alpha, num=2000) <= ref.upper
                want = adaptive_log_moment(standard, 1.0)
                assert abs(math.log(ref.value) - want) <= 1e-9
                standards[standard] = ref
            ref = D._law(standard).psi[alpha]       # the kept estimate
            assert (est.value, est.p_star) == (scale * ref.value, ref.p_star)
            assert est.upper >= Fraction(scale) * Fraction(ref.upper)
        assert set(standards) == {D.Centered(D.ChiSquared(1)), D.Shifted(D.Exponential(2.0), -3.0)}

    def test_maxima_at_one_keep_their_bits(self):
        pairs = [(out.value, out.upper) for law, alpha, out, _ in cold_corpus()
                 if isinstance(out, O.OrliczEstimate) and out.p_star == 1.0
                 and not rises_at_p_max(law, alpha)]
        assert len(pairs) == 1071
        assert hashlib.sha256(np.array(pairs).astype("<f8").tobytes()).hexdigest() == simd_pin(
            self.AT_ONE_SHA256)
        values = np.array([v for v, _ in pairs]).astype("<f8")
        assert hashlib.sha256(values.tobytes()).hexdigest() == simd_pin(self.AT_ONE_VALUES_SHA256)

    def test_interior_maxima_match_the_dense_grid(self):
        inside = [(law, alpha, out) for law, alpha, out, _ in cold_corpus()
                  if isinstance(out, O.OrliczEstimate) and out.p_star != 1.0]
        assert len(inside) == 76
        for law, alpha, est in inside:
            oracle = dense_oracle(law, alpha, refine=True)
            assert abs(est.value - oracle) <= 1e-12 * oracle and est.value <= est.upper, law
            assert oracle <= est.upper, law

    def test_a_two_point_upper_covers_ratios_read_elsewhere(self):
        # phi is linear, so the chord bound is the ratio itself; a ratio read
        # next to p* from the batched moments rounds an ulp above it
        law = D.TwoPointEps(0.249981556393863)
        est, _ = cold_search(law, 2)
        assert dense_oracle(law, 2, refine=True) == 0.36424909114823834
        assert est.value == 0.3642490911482382
        assert est.upper >= 0.36424909114823834

    def test_the_first_call_reads_the_head(self):
        # every search that reads a moment reads the head of the start
        # first, and most end there at a tail bound; the 65 and 35 whose
        # head does not end them read the rest of the start in a second
        # call.  The 380 proofs read nothing
        first = collections.Counter((alpha, s[0]) for _, alpha, _, s in cold_corpus() if s)
        assert first == {(1, HEAD_LEN[1]): 778, (2, HEAD_LEN[2]): 402}
        rest = collections.Counter(alpha for _, alpha, _, s in cold_corpus()
                                   if s[1:2] == [START_LEN - HEAD_LEN[alpha]])
        assert rest == {1: 65, 2: 35}
        # 1607 batched calls and 7025 orders; 1507 and 7249 when the squares
        # of Gaussians at alpha = 1 and the shifted Gaussians at alpha = 2
        # read the whole start in their first call, 1935 and 12677 when only
        # bounded laws and closed-form MGFs at alpha = 1 had a tail bound,
        # 1887 and 21318 when every search read the whole start, 2717 and
        # 54443 from every 4th grid point
        sizes = [s for _, _, _, s in cold_corpus()]
        assert sum(map(len, sizes)) == 1607 and sum(map(sum, sizes)) == 7025

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("eps", [0.25, 0.2446228941573947, 0.1, 1e-3])
    def test_a_two_point_law_takes_two_calls(self, eps, alpha):
        # phi(p) = ln eps is linear: the ratio peaks at p* = -alpha ln eps,
        # at (1 / (e p*))^(1/alpha), the chord peak of the first round.  The
        # support bounds the ratio past p0 by -ln(p0) / alpha, below the peak
        # for p0 = 8 or 16 unless p* = 6.9 or 13.8 (eps = 1e-3), where the
        # search reads the rest of the start in one more call
        for law in (D.TwoPointEps(eps), D.Centered(D.TwoPointEps(eps))):
            est, sizes = cold_search(law, alpha)
            p_star = -alpha * math.log(eps)
            head = HEAD_LEN[alpha]
            assert sizes == ([head, START_LEN - head, 2] if eps == 1e-3 else [head, 2])
            assert est.p_star == pytest.approx(p_star, rel=1e-12, abs=0.0)
            assert est.value == pytest.approx((1.0 / (E * p_star)) ** (1.0 / alpha), rel=1e-15, abs=0.0)
            assert est.value <= est.upper


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


def walked_support(law):
    """The interval `orlicz._tail_bound` walks out of the canonical form of
    law: its primitive's support through each map step."""
    base, steps = D._chain(D.canonical(law))
    lo, hi = base.support()
    for step in steps:
        lo, hi = O._outward(step, lo, hi)
    return lo, hi


def exact_image(lo, hi, steps):
    """The image of [lo, hi] under the map steps, in exact rationals."""
    lo, hi = Fraction(lo), Fraction(hi)
    for step in steps:
        if isinstance(step, D.Shifted):
            lo, hi = lo + Fraction(step.offset), hi + Fraction(step.offset)
        elif isinstance(step, D.Scaled):
            lo, hi = sorted((Fraction(step.factor) * lo, Fraction(step.factor) * hi))
        else:
            lo, hi = (0 if lo < 0 < hi else min(lo * lo, hi * hi)), max(lo * lo, hi * hi)
    return lo, hi


# a map step, as the function that wraps a law in it
_step = st.one_of(st.floats(-3.0, 3.0).map(lambda c: lambda law: D.Shifted(law, c)),
                  _factor.map(lambda c: lambda law: D.Scaled(law, c)), st.just(D.SquareOf))
# laws whose canonical form keeps map steps: uniforms under a square, and
# UniformGap, which no step folds into
_chained = st.builds(
    lambda base, steps: functools.reduce(lambda law, step: step(law), steps, base),
    st.one_of(_uniform.map(D.SquareOf), st.builds(D.UniformGap, _pos)),
    st.lists(_step, max_size=4))
_chi = st.builds(D.Chi, st.integers(1, 6), _pos)
# laws with a tail bound: bounded ones (squares of squares too), Chi laws,
# shifted ones and their squares, and at alpha = 1 those with a closed-form
# MGF (at alpha = 2 a proof that the norm is infinite)
CERTIFIED = st.one_of(
    SUB_GAUSSIAN, _chained, st.builds(D.Centered, _chained), SUB_EXPONENTIAL,
    st.builds(D.Shifted, st.builds(D.Exponential, _pos), st.floats(-3.0, 3.0)),
    st.builds(D.Centered, st.builds(D.Exponential, _pos)),
    st.builds(D.Centered, st.builds(D.ChiSquared, st.integers(2, 6))),
    st.builds(D.Shifted, _chi, _pos), st.builds(D.SquareOf, st.builds(D.Centered, _chi)),
    st.builds(lambda chi, b: D.SquareOf(D.Shifted(chi, b)), _chi, st.floats(-3.0, 3.0)),
    st.builds(lambda law, b: D.SquareOf(D.SquareOf(D.Shifted(law, b))), _uniform | _finite,
              st.floats(-1.0, 1.0)))


def _bits(values):
    """values with each float as its hex text: equal texts are equal bits."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestUnitRecords:
    """The unit laws' records that `orlicz._UNIT_RECORDS` ships, proved
    against live searches from an empty memo on the SIMD path this process
    runs: tier-1 runs on both paths, so every entry is proved on both."""

    def test_the_table_ships_the_listed_unit_laws(self):
        laws = [unit_records.law_of(text) for text in unit_records.LAWS]
        assert list(O._UNIT_RECORDS) == laws
        assert all(D.standard_form(law) == (1.0, law) for law in laws)

    @pytest.mark.parametrize("text", unit_records.LAWS)
    def test_every_shipped_field_is_a_live_search(self, text):
        law = unit_records.law_of(text)
        psi, rows = O._UNIT_RECORDS[law]
        live_psi, live_rows = unit_records.live_record(law)
        assert psi and set(psi) <= set(live_psi) and set(rows) <= set(live_rows)
        for alpha, est in psi.items():
            assert _bits(est) == _bits(live_psi[alpha]), (text, alpha)
        for p, lm in rows.items():
            assert lm.hex() == live_rows[p].hex(), (text, p)

    def test_a_fresh_process_searches_none_of_them(self):
        # after the import, no moment pass and no search has run; each
        # shipped estimate is then a hit, read with no pass, and so is a
        # scaled one's.  A bound on sum_exp10 reads them with no search, and
        # prints the same bytes after the memos are cleared, when it searches
        spec = pathlib.Path(O.__file__).parents[2] / "configs" / "sum_exp10.json"
        code = (
            "import contextlib, io; from lighttails import cli, distributions as D, functions as F, orlicz as O\n"
            "first = dict(D._law_counts)\n"
            "[O.psi_norm(law, a) for law, (psi, _) in O._UNIT_RECORDS.items() for a in psi]\n"
            "O.psi_norm(D.Scaled(D.Exponential(1.0), 2.5), 1)\n"
            "print(*first.values(), *D._law_counts.values())\n"
            "def bound():\n"
            "    searches = D._law_counts['searches']\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"        cli.main(['bound', '--spec', {str(spec)!r}, '--bounds', 'thm2,thm3', '--p', '2', '--t-grid', '1:10:5'])\n"
            "    return out.getvalue(), D._law_counts['searches'] - searches\n"
            "warm, none = bound()\n"
            "D._laws.clear(); F._kind_profile.cache_clear(); cli._decode_spec_text.cache_clear()\n"
            "cold, some = bound()\n"
            "print(none, some > 0, warm == cold, '\"prob\"' in warm)")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(O.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        shipped = sum(len(psi) for psi, _ in O._UNIT_RECORDS.values())
        assert shipped == 14 and out.split() == ["0"] * 5 + [str(shipped + 1), "0"] + ["True"] * 3


class TestTailBounds:
    """The tail bounds that end a cold search at p0 = 8, 16 or 256: T(p0)
    bounds every ratio past p0, and a search that ends at 8 or 16 reads
    what the search to 256 reads."""

    def test_the_gamma_ratios_are_nonincreasing(self):
        # Gamma(p+1)^(1/p) / p (the psi1 MGF bound) and Gamma(p/2+1)^(1/p) /
        # sqrt(p) (its psi2 twin), in ln, on 200001 points of [1, 1e5]
        from scipy.special import gammaln
        ps = np.linspace(1.0, 1e5, 200001)
        for ratio in (gammaln(ps + 1.0) / ps - np.log(ps),
                      gammaln(ps / 2.0 + 1.0) / ps - 0.5 * np.log(ps)):
            assert (np.diff(ratio) < 0.0).all()

    def test_a_squared_gaussian_reads_its_own_mgf_at_alpha_1(self):
        # the square step halves the Gaussian's largest alpha to 1, so the
        # square's closed-form MGF ends the search at the head; the
        # Gaussian's squared MGF folded over the square reads the same value
        # and upper only after a second call of 9 orders
        est, sizes = cold_search(D.SquareOf(D.Gaussian(0.8376776400682916, 1.0)), 1)
        assert sizes == [HEAD_LEN[1]]
        assert est.p_star == 1.0 and est.value == pytest.approx(1.7017038286703, rel=1e-12)
        assert est.value <= est.upper

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_chained)
    def test_the_walked_support_holds_the_image(self, law):
        # in exact arithmetic, and at the floats the numeric moments read
        base, steps = D._chain(D.canonical(law))
        lo, hi = walked_support(law)
        exact_lo, exact_hi = exact_image(*base.support(), steps)
        assert Fraction(lo) <= exact_lo and exact_hi <= Fraction(hi)
        values = D._apply(steps, np.linspace(*base.support(), 1001))
        assert lo <= values.min() and values.max() <= hi

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(_finite, _chained, _uniform), st.sampled_from([1, 2]))
    def test_a_support_bound_rounds_outward(self, law, alpha):
        # T(p0) >= ln M - ln(p0) / alpha to 50 digits, M the walked support's end
        from decimal import Decimal, localcontext
        lo, hi = walked_support(law)
        m = max(-lo, hi)
        if m == 0.0:
            reject()    # Z = 0 has no tail bound
        tail = O._tail_bound(D._law(law), alpha)
        with localcontext() as ctx:
            ctx.prec = 50
            for p0 in (8, 16, 256):
                assert Decimal(tail(0.0, float(p0))) >= Decimal(m).ln() - Decimal(p0).ln() / alpha

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(CERTIFIED, st.sampled_from([1, 2]))
    @example(D.Shifted(D.Chi(1, 1.0), 3.0), 2)      # its Minkowski term sets T
    @example(D.SquareOf(D.Shifted(D.Chi(3, 1.0), -1.0)), 1)
    def test_a_tail_bound_covers_every_ratio_past_p0(self, law, alpha):
        # on 60 orders from p0 to 4096, at the lambda of the best head ratio
        try:
            tail = O._tail_bound(D._law(law), alpha)
        except O.NotSubGaussianError:
            reject()
        head = O._START[:5]
        best = float(np.max(D.log_abs_moments(law, head) / head - np.log(head) / alpha))
        if best == -math.inf:
            reject()    # Z = 0 reads no tail bound
        for p0 in (8.0, 16.0, 256.0):
            t = tail(best, p0)
            assert t < math.inf
            ps = np.geomspace(p0, 4096.0, 60)
            assert (D.log_abs_moments(law, ps) / ps - np.log(ps) / alpha <= t).all()

    def test_a_shift_adds_its_minkowski_term(self):
        # X + 3 for X ~ Chi(1): a best just below the largest ratio past p0
        # keeps the search to its last round, where T is still above each
        # ratio; the squared MGF of X alone would read T below them
        law = D.Shifted(D.Chi(1, 1.0), 3.0)
        tail = O._tail_bound(D._law(law), 2)
        ps = np.geomspace(8.0, 4096.0, 60)
        ratios = D.log_abs_moments(law, ps) / ps - np.log(ps) / 2
        for p0 in (8.0, 16.0, 256.0):
            past = ratios[ps >= p0]
            assert (past <= tail(float(past.max()) - 0.01, p0)).all()

    def test_a_square_of_a_shifted_chi_reads_its_base_at_2p0(self):
        # ||Y^2||_p = ||Y||_2p^2: T(p0) of the square is twice its base's T
        # at 2 p0 and alpha = 2, plus ln 2, the base asked at (best - ln 2) / 2.
        # Its psi1 ratio rises toward 2/e, which the upper covers
        law, base = D.SquareOf(D.Centered(D.Chi(3, 1.0))), D.Centered(D.Chi(3, 1.0))
        tail, base_tail = O._tail_bound(D._law(law), 1), O._tail_bound(D._law(base), 2)
        for best, p0 in [(-0.4, 8.0), (math.log(0.7), 256.0)]:
            t = base_tail((best - math.log(2.0)) / 2.0, 2.0 * p0)
            assert tail(best, p0) == D._tail_sum((2.0 * t, math.log(2.0)), 0.0, 0.0, -math.log(p0))
        est = O.psi_norm(law, 1)
        assert (est.p_star, est.method) == (256.0, "tail-bound")
        assert 2.0 / E <= est.upper <= 1.0
        assert dense_oracle(law, 1, p_max=4096.0, refine=True) <= est.upper

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(CERTIFIED, st.sampled_from([1, 2]))
    @example(D.Shifted(D.Exponential(2.0), -3.0), 1)
    def test_a_search_that_ends_early_reads_the_full_search(self, law, alpha):
        # the same value, p* and upper, to the bit, as the search that reads
        # the whole start and takes T(256), or the same proof
        try:
            tail = O._tail_bound(D._law(law), alpha)
        except O.NotSubGaussianError:
            reject()

        def outcome(tail):
            best, p, top, t = O._sup_ratio(lambda ps: D.log_abs_moments(law, ps), alpha, tail)
            return best, p, max(top, t)
        got = outcome(tail)
        assert got == outcome(lambda best, p0: tail(best, p0) if p0 == 256.0 else math.inf)

    # 20 draws: the two dense grids take up to 1 s on a numeric law
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(CERTIFIED, st.sampled_from([1, 2]))
    @example(D.Shifted(D.Exponential(2.0), -3.0), 1)
    def test_every_certified_upper_covers_the_oracles(self, law, alpha):
        # the dense grids on the batched moments and on lp_norm, and the
        # adaptive quadrature at p* of a law with a density or a Poisson
        # series, never read a ratio above the upper
        try:
            est = O.psi_norm(law, alpha)
        except O.NotSubGaussianError:
            reject()
        assert dense_oracle(law, alpha, refine=True) <= est.upper
        assert grid_oracle(law, alpha, num=2000) <= est.upper * (1.0 + 1e-12)
        if est.value > 0.0 and not isinstance(D._chain(D.canonical(law))[0], D.FiniteSupport):
            p = est.p_star
            assert adaptive_log_moment(law, p) / p - math.log(p) / alpha <= math.log(est.upper) + 1e-9


class TestDivergence:
    """Each family fact and each square halving proves a norm infinite
    before the search reads a moment, and the ratio it proves unbounded
    does grow: past p = 4096, in log arithmetic, by at least 0.2 per
    octave."""

    CASES = [
        # the family facts: exponential, chi-squared and Poisson laws are
        # sub-exponential and no more
        (D.Exponential(1.0), 2, "Exponential laws have finite psi norms only up to alpha = 1"),
        (D.Centered(D.Exponential(1.0)), 2, "Exponential laws have finite psi norms only up to alpha = 1"),
        (D.ChiSquared(3), 2, "ChiSquared laws have finite psi norms only up to alpha = 1"),
        (D.Poisson(2.0), 2, "Poisson laws have finite psi norms only up to alpha = 1"),
        (D.Centered(D.Poisson(2.0)), 2, "Poisson laws have finite psi norms only up to alpha = 1"),
        # one square halves the Gaussian and chi facts, 2, to 1
        (D.SquareOf(D.Chi(3, 1.0)), 2, "Chi laws have finite psi norms only up to alpha = 2, "
         "and 1 square step(s) halve that to 1"),
        (D.Centered(D.SquareOf(D.Gaussian(0.5, 1.0))), 2, "Gaussian laws have finite psi norms "
         "only up to alpha = 2, and 1 square step(s) halve that to 1"),
        # and the facts 1 to 0.5; two squares halve 2 to 0.5
        (D.SquareOf(D.Exponential(1.0)), 1, "Exponential laws have finite psi norms only up to "
         "alpha = 1, and 1 square step(s) halve that to 0.5"),
        (D.SquareOf(D.Poisson(2.0)), 1, "Poisson laws have finite psi norms only up to alpha = 1, "
         "and 1 square step(s) halve that to 0.5"),
        (D.SquareOf(D.ChiSquared(2)), 1, "Exponential laws have finite psi norms only up to "
         "alpha = 1, and 1 square step(s) halve that to 0.5"),
        (D.SquareOf(D.SquareOf(D.Gaussian(0.0, 1.0))), 1, "ChiSquared laws have finite psi norms "
         "only up to alpha = 1, and 1 square step(s) halve that to 0.5"),
        (D.SquareOf(D.SquareOf(D.Gaussian(0.5, 1.0))), 1, "Gaussian laws have finite psi norms "
         "only up to alpha = 2, and 2 square step(s) halve that to 0.5"),
    ]

    @pytest.mark.parametrize("law, alpha, reason", CASES, ids=[f"{c[0]!r}-psi{c[1]}" for c in CASES])
    def test_the_proof_names_the_law_and_the_ratio_grows(self, law, alpha, reason, monkeypatch):
        error = {1: O.NotSubExponentialError, 2: O.NotSubGaussianError}[alpha]
        with monkeypatch.context() as patch:
            patch.setattr(O, "_sup_ratio", None)     # the search reads no moment
            with pytest.raises(error) as info:
                O.psi_norm(law, alpha)
        assert str(info.value) == f"the psi{alpha} norm of {law!r} is infinite: {reason}"
        ps = np.array([256.0, 4096.0, 8192.0, 16384.0])
        ratios = D.log_abs_moments(law, ps) / ps - np.log(ps) / alpha
        assert (np.diff(ratios) >= 0.2).all()


class TestCertifiedUpper:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.tuples(SUB_GAUSSIAN, st.sampled_from([1, 2]))
           | st.tuples(SUB_EXPONENTIAL, st.just(1)))
    @example((D.Centered(D.Exponential(1.0)), 1))       # the numeric moment path
    @example((D.Centered(D.UniformInterval(0.0, 0.5)), 1))     # 0.25 U(-1, 1)
    # scales far from 1, where p ln s + ln E|Z|^p rounds by up to 24 ulps of
    # the norm: the upper covers the ratios read from those moments
    @example((D.Chi(4, 3.4277174670261936e-15), 1))
    @example((D.Chi(2, 78686163968253.83), 2))
    @example((D.UniformGap(1.6023827309971294e-21), 1))
    @example((D.Scaled(D.Gaussian(0.0, 1.0), -1e-300), 2))
    def test_value_and_upper_bracket_the_dense_grid(self, law_alpha):
        law, alpha = law_alpha
        est = O.psi_norm(law, alpha)
        oracle = dense_oracle(law, alpha)
        assert est.value >= oracle * (1.0 - 1e-12)
        assert oracle <= est.upper

    def test_triangle_bound_sums_the_uppers(self):
        vec = D.VectorSpec(2, (D.Centered(D.Exponential(1.0)), D.Rademacher()))
        ests = [O.psi_norm(c, 1) for c in vec.components]
        got = F.vector_norm_psi(vec, 1)
        exact = sum(Fraction(e.upper) for e in ests)
        assert got.method == "triangle-bound"
        # the smallest float not below the exact sum of the uppers
        assert math.nextafter(got.upper, 0.0) < exact <= got.upper and got.upper >= got.value


    def test_triangle_bound_rounds_the_summed_uppers_up(self, monkeypatch):
        # 0.1 + 0.7 rounds to nearest below its exact value
        uppers = iter([0.1, 0.7])
        monkeypatch.setattr(F, "psi_norm", lambda law, alpha: O.OrliczEstimate(
            alpha, 0.05, 1.0, "analytic-grid", next(uppers)))
        vec = D.VectorSpec(2, (D.Exponential(1.0), D.Exponential(2.0)))
        got = F.vector_norm_psi(vec, 1)
        exact = Fraction(0.1) + Fraction(0.7)
        assert math.fsum([0.1, 0.7]) < exact <= got.upper
        assert got.upper == math.nextafter(math.fsum([0.1, 0.7]), math.inf)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.floats(0.0, exclude_min=True, allow_infinity=False),
           st.floats(0.0, allow_infinity=False))
    @example(0.5, 5e-324)                   # the product underflows to 0
    @example(2.0 ** -1000, 2.0 ** -74)      # an exact subnormal product
    @example(1e308, 10.0)                   # the product overflows
    @example(3.0, 0.3)                      # rounds to nearest below the product
    def test_scaled_upper_is_not_below_the_exact_product(self, scale, upper):
        # the product's next float up is at most 2 floats above the exact
        # product, which Fraction holds without rounding
        got = O.scaled_estimate(O.OrliczEstimate(1, 0.0, 1.0, "closed-form", upper), scale).upper
        exact = Fraction(scale) * Fraction(upper)
        assert got >= exact
        if got < math.inf:
            assert got <= math.nextafter(math.nextafter(D.round_up(exact), math.inf), math.inf)

    def test_scaled_upper_rounds_up(self):
        # 3.0 * 0.3 rounds to nearest below its exact value
        est = O.scaled_estimate(O.OrliczEstimate(1, 2.0, 1.5, "closed-form", 3.0), 0.3)
        assert (est.value, est.p_star, est.method) == (2.0 * 0.3, 1.5, "closed-form")
        assert 3.0 * 0.3 < Fraction(3.0) * Fraction(0.3) <= est.upper
        assert est.upper == math.nextafter(3.0 * 0.3, math.inf)


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

    def test_bounds_built_on_a_tail_bound_read_its_upper(self):
        # the centering bound of a diameter and the triangle bound of a
        # vector's length scale and sum the uppers of the norms that a tail
        # bound set, not their values
        law = D.Chi(5, 1.7)
        scale, standard = D.standard_form(D.Centered(law))
        norm = O.psi_norm(standard, 2)
        assert norm.method == "tail-bound"
        got = A.psi_diameter(law, 2)
        assert got.method == "centering-bound" and got.value == 2.0 * scale * norm.upper
        vec = D.VectorSpec(2, (D.Centered(law), D.Rademacher()))
        parts = [O.psi_norm(c, 2) for c in vec.components]
        total = F.vector_norm_psi(vec, 2)
        assert total.value == math.fsum([parts[0].upper, parts[1].value]) <= total.upper

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

    @pytest.mark.parametrize("beta", [1e-6, 1e-7, 1e-8, -1e-7])
    def test_uniform_at_small_beta(self, beta):
        # the difference quotient (e^(beta hi) - e^(beta lo)) / (beta w)
        # cancelled: 2.9e-11 above the bound at 1e-6, below 1 at 1e-7
        mgf, bound = O.mgf_bound_check(D.Centered(D.UniformInterval(0.0, 1.0)), beta)
        assert 1.0 <= mgf <= bound

    def test_bound_past_the_largest_float_names_the_law(self):
        # exp(4 e beta^2 psi2^2) ended in a bare OverflowError
        with pytest.raises(D.SpecError) as info:
            O.mgf_bound_check(D.Rademacher(), 100.0)
        assert str(info.value) == ("the sub-Gaussian MGF bound of Rademacher() at "
                                   "beta=100.0 overflows a float")

    def test_uncentered_rejected(self):
        # the check reads Exp(1) - 1, which is not sub-Gaussian: it fails on
        # that law's psi2 norm, where it used to refuse the mean 1
        with pytest.raises(O.NotSubGaussianError) as info:
            O.mgf_bound_check(D.Exponential(1.0), 0.5)
        assert str(info.value) == (
            "the psi2 norm of Centered(base=Exponential(rate=1.0)) is infinite: "
            "Exponential laws have finite psi norms only up to alpha = 1")

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    def test_a_small_uncentered_law_is_read_centered(self, beta):
        # mean 5e-11 passed an absolute |mean| <= 1e-9 test as centered, and
        # the MGF of the uncentered law, 1.00000000000005 at 1e-3, exceeded
        # the bound
        spec = D.Scaled(D.UniformInterval(0.0, 1.0), 1e-10)
        mgf, bound = O.mgf_bound_check(spec, beta)
        assert mgf <= bound
        assert (mgf, bound) == O.mgf_bound_check(D.Centered(spec), beta)

    def test_a_centered_law_is_read_as_given(self):
        # criterion 2's laws: every pair is the one read on the law itself
        for spec in [D.Gaussian(0, 1), D.Rademacher(),
                     D.Centered(D.UniformInterval(0.0, 1.0))]:
            psi2 = O.psi_norm(spec, 2).value
            for beta in np.linspace(-5, 5, 101):
                assert O.mgf_bound_check(spec, beta) == (
                    D.mgf(spec, beta), math.exp(4.0 * E * beta ** 2 * psi2 ** 2))
