import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import erf, erfc, erfi, gammaln

from adaptive import adaptive_log_moment, base_and_steps
from lighttails import distributions as D
from lighttails import functions as F
from lighttails import orlicz as O
from lighttails.orlicz import _P_GRID, psi_norm

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


def two_point_eps_03(u):
    """TwoPointEps(0.3) of uniform draws u: 1 below 0.15, -1 below 0.3, else 0."""
    return np.select([u < 0.15, u < 0.3], [1.0, -1.0], 0.0)


class TestSampling:
    def test_rademacher_support(self):
        vals = D.sample(D.Rademacher(), seed=7, count=4)
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("count", [1, 8191, 8193, 3 * 8192 + 5])
    def test_rademacher_runs_draw_the_stream_of_one_call(self, count):
        # the fill draws runs of 2^13; the bits and the generator state
        # after it are those of one integers call
        rng, ref = D._rng(5, 2), D._rng(5, 2)
        vals = D.Rademacher().draw(rng, count)
        assert np.array_equal(vals, ref.integers(0, 2, count) * 2.0 - 1.0)
        assert rng.integers(0, 2, 7).tolist() == ref.integers(0, 2, 7).tolist()

    @pytest.mark.parametrize("law, one_call", [
        (D.Poisson(2.5), lambda rng, n: rng.poisson(2.5, n).astype(float)),
        (D.Poisson(30.0), lambda rng, n: rng.poisson(30.0, n).astype(float)),
        (D.TwoPointEps(0.3), lambda rng, n: two_point_eps_03(rng.random(n))),
        (D.FiniteSupport((-2.0, 0.5, 7.0), (0.2, 0.5, 0.3)),
         lambda rng, n: np.array([-2.0, 0.5, 7.0])[rng.choice(3, size=n, p=[0.2, 0.5, 0.3])]),
    ], ids=repr)
    @pytest.mark.parametrize("count", [8191, 3 * 8192 + 5])
    def test_discrete_runs_draw_the_stream_of_one_call(self, law, one_call, count):
        # the Poisson, two-point and finite fills draw runs of 2^13, as the
        # Rademacher fill does; the stream goes on as after one call
        rng, ref = D._rng(5, 2), D._rng(5, 2)
        assert np.array_equal(law.draw(rng, count), one_call(ref, count))
        assert rng.random(7).tolist() == ref.random(7).tolist()

    def test_point_mass(self):
        vals = D.sample(D.FiniteSupport((0.0,), (1.0,)), seed=3, count=10)
        assert np.all(vals == 0.0)

    def test_no_draws_is_an_error(self):
        with pytest.raises(D.SpecError, match=r"^count must be >= 1, got 0$"):
            D.sample(D.Gaussian(), seed=1, count=0)

    def test_exponential_mean(self):
        vals = D.sample(D.Exponential(1.0), seed=1, count=10 ** 6)
        assert abs(vals.mean() - 1.0) < 0.01

    def test_bit_identical(self):
        for spec in CATALOGUE:
            a = D.sample(spec, seed=11, count=500, stream=3)
            b = D.sample(spec, seed=11, count=500, stream=3)
            assert np.array_equal(a, b)

    def test_streams_differ(self):
        draws = [D.sample(D.Gaussian(0, 1), seed=11, count=1000, stream=k) for k in range(10)]
        assert all(not np.array_equal(draws[i], draws[j])
                   for i in range(10) for j in range(i + 1, 10))

    def test_seed_and_stream_do_not_alias(self):
        # as one entropy list, [2^32, 0] and [0, 1] are the same 32-bit words
        assert not np.array_equal(D._rng(2 ** 32, 0).random(100), D._rng(0, 1).random(100))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(D.SpecError, match=rf"^seed must be a 64-bit unsigned integer, got {seed}$"):
            D._rng(seed)

    def test_projection_net_keeps_its_generator(self):
        # a psa_reconstruction net_seed defines its net, so the net's draws
        # do not follow the sampling generator
        mats = np.stack(F.random_projections(4, 2, 8, 3))
        assert hashlib.sha256(mats.tobytes()).hexdigest() == (
            "e6edaf4bc5c6695ada283e08db120e79d4d373bee0cefcf46fcb11bfae34005a")

    @pytest.mark.parametrize("dof, sd", [(1, 1.0), (5, 1.7), (9, 0.3)])
    def test_chi_draw_matches_scipy_chi(self, dof, sd):
        vals = D.Chi(dof, sd).draw(D._rng(12, 0), 20000)
        assert stats.kstest(vals, stats.chi(dof, scale=sd).cdf).pvalue > 1e-3

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

    def test_a_probability_sum_is_checked_in_no_order(self):
        # the exact sum of these probs is 1 + 1.00008e-12; summed in order it
        # read 1 + 9.999e-13 as built, so the law was accepted, and 1 + 1e-12
        # reversed.  With 10 ulps off one prob, 1 + 9.995e-13: accepted
        values = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        probs = (0.12674626242573492, 0.3815878093626404, 0.28132891801042115,
                 0.048649731321136085, 0.15106422406973102, 0.01062305481133649)
        inside = list(probs)
        inside[1] = 0.38158780936263986
        for order in itertools.permutations(range(len(values))):
            with pytest.raises(D.SpecError, match=(
                    r"^probs must sum to 1 within 1e-12, got sum 1\.000000000001$")):
                D.FiniteSupport([values[i] for i in order], [probs[i] for i in order])
            D.FiniteSupport([values[i] for i in order], [inside[i] for i in order])

    @pytest.mark.parametrize("build", [
        lambda: D.Gaussian(mean=math.nan),
        lambda: D.Exponential(rate=math.inf),
        lambda: D.Gaussian(0.0, True),
        lambda: D.Poisson("2"),
        lambda: D.ChiSquared(2.0),
        lambda: D.UniformInterval(1.0, 1.0),
        lambda: D.UniformInterval(-1e308, 1e308),
        lambda: D.FiniteSupport((1.0, "x"), (0.5, 0.5)),
        lambda: D.FiniteSupport((0.0, 1.0), (1.0,)),
        lambda: D.Shifted(3.0, 1.0),
        lambda: D.Scaled(D.Rademacher(), 10 ** 400),
        lambda: D.VectorSpec(2, (D.Rademacher(),)),
        lambda: D.VectorSpec(1, ()),
        lambda: D.VectorSpec(1, (D.Rademacher(),), "max"),
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

    @pytest.mark.parametrize("spec", [D.Gaussian(), D.Centered(D.Poisson(1.5)),
                                      D.FiniteSupport((0.0,), (1.0,))], ids=str)
    def test_order_zero_is_ln_one(self, spec):
        # E|X|^0 = 1, the a.s. zero variable too, with no moment work
        assert D.log_abs_moment(spec, 0) == 0.0

    def test_poisson_series_beyond_its_cap_is_refused_before_it_is_built(self):
        # its first pass of 200064 terms for 34 orders peaked at 157 MiB
        tracemalloc.start()
        try:
            with pytest.raises(D.QuadratureError, match=r"Poisson series of rate 200000\.0 needs over 100000 terms"):
                psi_norm(D.Poisson(2e5), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_poisson_series_runs_past_its_right_hand_mode(self):
        # |X - 50|^100 P(X) has a left-hand mode at 0 and a larger one near
        # 144; the series used to stop 64 terms past the mean, e^40 below
        # the left one, and read 382.4815
        spec = D.Centered(D.Poisson(50.0))
        assert D.log_abs_moment(spec, 100) == pytest.approx(
            adaptive_log_moment(spec, 100), rel=1e-12)

    def test_poisson_series_runs_past_the_maps_zero(self):
        # |X - 20|^256 P(X) falls from k = 0 to its zero at k = 20 and rises
        # again past it; the series used to stop before the zero and read
        # 873.58 against 916.87
        spec = D.Shifted(D.Poisson(5.0), -20.0)
        for p in (2.0, 64.0, 256.0):
            assert D.log_abs_moment(spec, p) == pytest.approx(
                adaptive_log_moment(spec, p), rel=1e-12)

    def test_poisson_series_stops_short_of_a_far_zero(self):
        # the zero at 2e5 lies past the terms a series is built with; the
        # series ends where the rest of it, the far zero included, is
        # certified below e^-40 of its sum.  E|X - 2e5|^2 = (2e5 - 5)^2 + 5
        spec = D.Shifted(D.Poisson(5.0), -2e5)
        assert D.log_abs_moment(spec, 2.0) == pytest.approx(
            math.log(199995.0 ** 2 + 5.0), rel=1e-15, abs=0.0)
        for p in (1.0, 64.0, 256.0):
            assert D.log_abs_moment(spec, p) == pytest.approx(
                adaptive_log_moment(spec, p), rel=1e-12)
        # E|X - 2e5| = 2e5 - 5, and the ratio falls past p = 1
        est = psi_norm(spec, 1)
        assert est.p_star == 1.0 and est.value == pytest.approx(199995.0, rel=1e-12)

    @pytest.mark.parametrize("law", [
        D.Shifted(D.Poisson(5.0), -2e5), D.Shifted(D.Scaled(D.Poisson(1.5), 3.0), -7e5),
        D.Shifted(D.SquareOf(D.Shifted(D.Poisson(2.0), -3.0)), -1e5),
        D.Shifted(D.Scaled(D.Poisson(40.0), -0.5), 1.5e5)], ids=str)
    def test_the_rest_of_a_poisson_series_is_bounded(self, law):
        # the bound on ln of the terms past n against their sum out to n +
        # 4e4, and against the sum of the terms M^q (1 + k)^(q d) P(k) that
        # bound them, M and d walked through the steps here
        base, steps = D._chain(law)
        lam, qs = base.rate, np.array([1.0, 8.0, 64.0, 256.0])
        m_, d = 1.0, 1
        for step in steps:
            if isinstance(step, D.Shifted):
                m_ += abs(step.offset)
            elif isinstance(step, D.Scaled):
                m_ *= abs(step.factor)
            else:
                m_, d = m_ * m_, 2 * d

        def log_sum(terms):
            m = terms.max(axis=1)
            return m + np.log(np.exp(terms - m[:, None]).sum(axis=1))

        for n in (69, 138, 276, 552, 1104):
            k = np.arange(n, n + 40000, dtype=float)
            tail = k * math.log(lam) - lam - gammaln(k + 1)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                rest = log_sum(qs[:, None] * np.log(np.abs(D._apply(steps, k))) + tail)
                dominating = log_sum(qs[:, None] * (math.log(m_) + d * np.log1p(k)) + tail)
                bound = D._poisson_rest(lam, steps, qs, n)
            finite = bound < math.inf
            assert (bound >= rest).all(), (n, bound - rest)
            assert (bound[finite] >= dominating[finite] - 1e-9 * np.abs(dominating[finite])).all(), n

    def test_a_shift_that_cancels_in_floats_reads_the_standard_law(self):
        # 1 + 1e300 rounds to 1e300: the map x + 1e300 - 1e300 is 0 in
        # floats, and the moments are 0.5 U(-1, 1)'s, E|U|^p = 1 / (p + 1)
        law = D.Centered(D.Shifted(D.UniformInterval(0.0, 1.0), 1e300))
        assert D.standard_form(law) == (0.5, D.UniformInterval(-1.0, 1.0))
        assert D.lp_norm(law, 4.0) == 0.33437015248821106 == pytest.approx(0.5 * 5.0 ** -0.25, rel=1e-15)
        ps = np.array([1.0, 2.5, 64.0])
        want = ps * math.log(0.5) + D.log_abs_moments(D.UniformInterval(-1.0, 1.0), ps)
        assert D.log_abs_moments(law, ps).tolist() == want.tolist()

    def test_poisson_series_short_of_a_far_zero_stays_small(self):
        # 64 orders up to 256 read 552 terms: 0.86 MiB at its peak, where
        # walking out to the zero would build 141312 terms (72 MiB per array)
        spec = D.Shifted(D.Poisson(5.0), -2e5)
        D._laws.pop(spec, None)     # no rows stored
        tracemalloc.start()
        try:
            D.log_abs_moments(spec, np.geomspace(1.0, 256.0, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 21

    def test_nan_moment_is_an_error(self, monkeypatch):
        # a NaN moment used to give the norm 0.0; the error is not memoised
        spec = D.Exponential(0.37)
        monkeypatch.setattr(D.Exponential, "log_abs_moments",
                            lambda self, ps: np.full(ps.shape, math.nan))
        with pytest.raises(D.QuadratureError, match="ln E\\|X\\|\\^p is nan at p=3.0"):
            D.lp_norm(spec, 3.0)
        monkeypatch.undo()
        assert D.lp_norm(spec, 3.0) == pytest.approx(6.0 ** (1 / 3) / 0.37, rel=1e-12)

    @pytest.mark.parametrize("law", [D.Chi(5, 1.0), D.Centered(D.Exponential(1.0))],
                             ids=["chi", "centered-exponential"])
    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_order_is_refused(self, law, p):
        # at p = inf these warned from numpy (an error under
        # -W error::RuntimeWarning) before any error named the order
        with pytest.raises(D.SpecError, match=f"moment order must be finite and nonnegative, got p={p}"):
            D.log_abs_moment(law, p)
        with pytest.raises(D.SpecError, match=f"moment orders must be finite and positive, got p={p}"):
            D.log_abs_moments(law, np.array([2.0, p]))
        if p == math.inf:
            with pytest.raises(D.SpecError, match="got p=inf"):
                D.lp_norm(law, p)

    def test_failed_rule_names_the_first_failing_order(self):
        # it used to print the whole array of values
        with pytest.raises(D.QuadratureError) as info:
            D.log_abs_moments(D.Centered(D.Exponential(1.0)), np.array([2.0, 1e18, 2e18]))
        assert str(info.value) == "fixed-rule quadrature failed (value inf) at p=1e+18"

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
# np.exp(np.linspace(0, ln 256, 17)) as numpy 2.4 rounds it with its AVX-512
# kernels, written out bit for bit: other SIMD paths of np.exp move some
# entries by an ulp, which would move the pins read at these orders
ORDERS = np.array([float.fromhex(h) for h in (
    "0x1.0000000000000p+0", "0x1.6a09e667f3bccp+0", "0x1.0000000000000p+1", "0x1.6a09e667f3bccp+1",
    "0x1.0000000000000p+2", "0x1.6a09e667f3bccp+2", "0x1.ffffffffffffep+2", "0x1.6a09e667f3bccp+3",
    "0x1.fffffffffffffp+3", "0x1.6a09e667f3bccp+4", "0x1.0000000000000p+5", "0x1.6a09e667f3bcdp+5",
    "0x1.ffffffffffffdp+5", "0x1.6a09e667f3bcap+6", "0x1.ffffffffffffdp+6", "0x1.6a09e667f3bcbp+7",
    "0x1.ffffffffffffep+7",
)])


class TestBatchedMoments:
    @pytest.mark.parametrize("spec", NUMERIC_LAWS, ids=str)
    def test_agrees_with_adaptive_path(self, spec):
        # adaptive quadrature is the reference: 1e-9 in ln ||X||_p
        batched = D.log_abs_moments(spec, ORDERS)
        reference = np.array([adaptive_log_moment(spec, p) for p in ORDERS])
        assert np.max(np.abs(batched - reference) / ORDERS) <= 1e-9

    @pytest.mark.parametrize("spec", NUMERIC_LAWS, ids=str)
    def test_rows_do_not_depend_on_the_batch(self, spec):
        # one pass over all orders gives each order the bits it gets alone
        whole = D.log_abs_moments(spec, ORDERS)
        alone = np.concatenate([D.log_abs_moments(spec, ORDERS[i:i + 1])
                                for i in range(len(ORDERS))])
        assert whole.view(np.int64).tolist() == alone.view(np.int64).tolist()
        assert D.log_abs_moments(spec, ORDERS[:0]).tolist() == []

    def test_closed_forms_are_bit_identical(self):
        # numeric laws too: one order alone is row 0 of its batch
        for spec in CATALOGUE + NUMERIC_LAWS + [D.Chi(5, 1.7), D.UniformGap(2.0)]:
            batched = D.log_abs_moments(spec, ORDERS)
            single = np.array([D.log_abs_moment(spec, p) for p in ORDERS])
            assert batched.view(np.int64).tolist() == single.view(np.int64).tolist(), spec

    def test_a_large_batch_goes_in_blocks(self, monkeypatch):
        # memory does not grow with the number of orders: no logpdf call
        # reads more than one block's quadrature nodes
        spec = D.Centered(D.Exponential(1.3))
        ps = np.exp(np.linspace(0.0, math.log(256.0), 10 ** 4))
        seen = []
        real = D.Exponential.logpdf
        monkeypatch.setattr(D.Exponential, "logpdf",
                            lambda self, x: seen.append(np.size(x)) or real(self, x))
        D.log_abs_moments(spec, ps)
        # the zero of x - 1/1.3 cuts each window into two quadrature pieces
        nodes = 2 * D._PANELS * len(D._TS_T)
        assert len(ps) >= 100 * D._BLOCK and sum(seen) > len(ps) * nodes
        assert max(seen) <= D._BLOCK * nodes

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


# float.hex of log_abs_moments at ORDERS, read from the per-order closed
# forms that the batched ones replaced
CLOSED_FORM_PINS = {
    D.Gaussian(0.0, 1.3): [
        '0x1.2b9af48658290p-5', '0x1.9c7b3a6020900p-3', '0x1.0ca937be1b9ddp-1',
        '0x1.1db9fa5a4996ep+0', '0x1.12f3efb475e74p+1', '0x1.f1c9a0e94e661p+1',
        '0x1.b02f186241790p+2', '0x1.6bfa36e830b0cp+3', '0x1.2b84be3da9ef8p+4',
        '0x1.e414e6919f018p+4', '0x1.8187fd35293c1p+5', '0x1.2f69c314c9f09p+6',
        '0x1.d8e224b6908eep+6', '0x1.6d7647a07d21bp+7', '0x1.18755f4aebae9p+8',
        '0x1.abda75bd1d1d3p+8', '0x1.44a5a8c2bcd98p+9'],
    D.Exponential(1.3): [
        '-0x1.0ca937be1b9dcp-2', '-0x1.28a5f88b96ac3p-3', '0x1.58ebe0c62004cp-3',
        '0x1.ad4458ecfc098p-1', '0x1.1075dbea1500bp+1', '0x1.1d8bd4291a55ep+2',
        '0x1.102e9a4044893p+3', '0x1.e9be9993917d6p+3', '0x1.a795a2726ac0ep+4',
        '0x1.63f955f91db0fp+5', '0x1.24a632c17e948p+6', '0x1.d8e5aa5cc29a0p+6',
        '0x1.78c0f74656d7fp+7', '0x1.28b42c8d241fbp+8', '0x1.ced2a6786660cp+8',
        '0x1.6606ef4ad586fp+9', '0x1.1305e3c49fa82p+10'],
    D.UniformInterval(-2.0, 3.0): [
        '0x1.0ca937be1b9e0p-2', '0x1.ebfd77551edc0p-2', '0x1.b1d10670aae9cp-1',
        '0x1.723641b462434p+0', '0x1.32ee3b77f374dp+1', '0x1.efc8cfe5c642cp+1',
        '0x1.86d15a235328ep+2', '0x1.2d447027365a2p+3', '0x1.c78340c4f44c9p+3',
        '0x1.52f8317b416c2p+4', '0x1.f25f478d7e915p+4', '0x1.6afaee78034d6p+5',
        '0x1.0680ff37ebf45p+6', '0x1.79a18cb053463p+6', '0x1.0e80e3664d43ep+7',
        '0x1.824f6cff131e7p+7', '0x1.132f51f2e8840p+8'],
    D.UniformInterval(0.5, 2.0): [      # the log1p branch
        '0x1.c8ff7c79a9a28p-3', '0x1.67274e467458cp-2', '0x1.1e85f5e7040ccp-1',
        '0x1.cd329f41ebb42p-1', '0x1.7329c0a3ec43ap+0', '0x1.280f6185ae4cep+1',
        '0x1.d15c5c56dcc42p+1', '0x1.679e40e60e41bp+2', '0x1.116f31f04c0edp+3',
        '0x1.99e6a47606a25p+3', '0x1.2f8cd68a45643p+4', '0x1.bd25ff4f77d5ep+4',
        '0x1.43cc370aa1e75p+5', '0x1.d40fe3c13cf39p+5', '0x1.509a53670135bp+6',
        '0x1.e239f85e5933ap+6', '0x1.585e5a8005fdbp+7'],
    D.ChiSquared(3): [
        '0x1.193ea7aad030bp+0', '0x1.b76c3592bbd67p+0', '0x1.5aa16394d481fp+1',
        '0x1.133aad443a71ep+2', '0x1.b679d0589bc2ap+2', '0x1.5d558ee028a31p+3',
        '0x1.15af47d218070p+4', '0x1.b7b1b45204830p+4', '0x1.5a56883a780d7p+5',
        '0x1.0f41bd1d8d16bp+6', '0x1.a66a695a9dd11p+6', '0x1.47007d7c4559ep+7',
        '0x1.f778a9fb2b511p+7', '0x1.819080e95971ap+8', '0x1.25d6c9eb0337bp+9',
        '0x1.bddf0634ae9bcp+9', '0x1.50e64233dccbep+10'],
    D.Chi(5, 1.7): [
        '0x1.49216ab9f6642p+0', '0x1.d92f7664e3f5ap+0', '0x1.55d9508811b62p+1',
        '0x1.f0d41c6f5264fp+1', '0x1.6b62136124eacp+2', '0x1.0b9489dc44538p+3',
        '0x1.8ca7e2dd9604ep+3', '0x1.27b90733d9aeap+4', '0x1.bb0f0a2c19b6ep+4',
        '0x1.4d0fbb98ce829p+5', '0x1.f5d52e18d6cc2p+5', '0x1.7a6c1be223598p+6',
        '0x1.1d57253adff6ep+7', '0x1.adef4ea0873e4p+7', '0x1.436ec3a8c630cp+8',
        '0x1.e5bc20641038bp+8', '0x1.6bfd111fd5b54p+9'],
    D.UniformGap(2.0): [
        '-0x1.9f323ecbf984cp-2', '-0x1.be609dff7a4a0p-2', '-0x1.9f323ecbf9850p-2',
        '-0x1.0da17d5826a38p-2', '0x1.08598b59e3a00p-4', '0x1.5da9323875b84p-1',
        '0x1.bd0f50ea15470p+0', '0x1.b7c52e13f3d04p+1', '0x1.83d5adfa0b29ap+2',
        '0x1.405a3050ba164p+3', '0x1.fb3b4d04065cap+3', '0x1.85f26de60af14p+4',
        '0x1.258631d3a5932p+5', '0x1.b3165848d5df7p+5', '0x1.3ec12ab259be9p+6',
        '0x1.cf028b60fb49ep+6', '0x1.4e12d61aa17b7p+7'],
}


class TestOneMomentMethod:
    def test_no_family_defines_a_scalar_moment(self):
        # log_abs_moment is row 0 of log_abs_moments for every law, so no
        # family carries a second moment method that could drift from it
        classes = [obj for obj in vars(D).values() if isinstance(obj, type)]
        assert D.Gaussian in classes and D.Shifted in classes
        assert [c.__name__ for c in classes if "log_abs_moment" in vars(c)] == []

    @pytest.mark.parametrize("spec", list(CLOSED_FORM_PINS), ids=repr)
    def test_closed_forms_keep_their_bits(self, spec):
        got = D.log_abs_moments(spec, ORDERS)
        assert [float(x).hex() for x in got] == CLOSED_FORM_PINS[spec]
        assert [D.log_abs_moment(spec, p).hex() for p in ORDERS] == CLOSED_FORM_PINS[spec]


def full_scan(base, log_h_vec, ps):
    """The live window of every point of a _SCAN-point scan of window(p): the
    oracle of the coarse-to-fine scan of _Continuous._live."""
    lo, hi = np.array([base.window(p) for p in ps]).T
    xs = np.linspace(lo, hi, D._SCAN, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.asarray(log_h_vec(xs) + base.logpdf(xs))
    h[~np.isfinite(h)] = -np.inf
    k = h.max(axis=1)
    live = h > k[:, None] - 80.0
    first = np.argmax(live, axis=1)
    last = D._SCAN - 1 - np.argmax(live[:, ::-1], axis=1)
    rows = np.arange(len(ps))
    return (k, xs[rows, np.maximum(first - 1, 0)],
            xs[rows, np.minimum(last + 1, D._SCAN - 1)])


def assert_live_is_full_scan(base, log_h_vec, ps):
    ps = np.asarray(ps, dtype=float)
    got, want = base._live(log_h_vec, ps), full_scan(base, log_h_vec, ps)
    for name, g, w in zip("kab", got, want):
        assert g.view(np.int64).tolist() == w.view(np.int64).tolist(), name


def assert_moment_window_is_full_scan(spec, ps):
    base, steps = base_and_steps(spec)
    ps = np.asarray(ps, dtype=float)

    def log_h_vec(xs):      # as _log_moments builds it
        with np.errstate(divide="ignore"):
            return ps[:, None] * np.log(np.abs(D._apply(steps, xs)))
    assert_live_is_full_scan(base, log_h_vec, ps)


_pos = st.floats(0.2, 3.0)
_CONTINUOUS = st.one_of(
    st.builds(D.Gaussian, st.floats(-2.0, 2.0), _pos), st.builds(D.Exponential, _pos),
    st.builds(lambda lo, width: D.UniformInterval(lo, lo + width), st.floats(-2.0, 1.0), _pos),
    st.builds(D.ChiSquared, st.integers(1, 6)), st.builds(D.Chi, st.integers(1, 6), _pos),
    st.builds(D.UniformGap, _pos))
_MAPPED = st.recursive(_CONTINUOUS, lambda inner: st.one_of(
    st.builds(D.Centered, inner), st.builds(D.Shifted, inner, st.floats(-3.0, 3.0)),
    st.builds(D.Scaled, inner, st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)),
    st.builds(D.SquareOf, inner)), max_leaves=4)
# chi-squared(1) has a density singularity at 0, in the window's first cell;
# |x^2 - s^2|^p times a Gaussian density has three modes
SCAN_LAWS = [*(D.Centered(D.Scaled(D.ChiSquared(1), c)) for c in (0.3, 1.0, 2.5, -1.7)),
             *(D.Centered(D.SquareOf(D.Gaussian(0.0, s))) for s in (0.3, 1.0, 2.0)),
             *(s for s in CATALOGUE + NUMERIC_LAWS
               if isinstance(base_and_steps(s)[0], D._Continuous))]


# every family, under up to three wrapper steps
_FAMILIES = st.one_of(
    _CONTINUOUS, st.builds(D.Poisson, st.floats(0.2, 6.0)), st.just(D.Rademacher()),
    st.builds(D.TwoPointEps, st.floats(0.01, 0.99)),
    st.builds(D.FiniteSupport, st.just((-1.0, 0.5, 2.0)), st.just((0.25, 0.5, 0.25))))
_ANY_LAW = st.recursive(_FAMILIES, lambda inner: st.one_of(
    st.builds(D.Centered, inner), st.builds(D.Shifted, inner, st.floats(-3.0, 3.0)),
    st.builds(D.Scaled, inner, st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)),
    st.builds(D.SquareOf, inner)), max_leaves=3)


def _codec(spec):
    """spec read back from its JSON form, or None where a part of it has no
    JSON kind (Chi, UniformGap)."""
    try:
        return D.spec_from_dict(json.loads(json.dumps(D.spec_to_dict(spec))))
    except AttributeError:
        return None


def _cold_psi(spec, alpha):
    """psi_norm(spec, alpha) with the law memo cleared: the bits of its
    value, upper and p*, or the type of the error it raised."""
    D._laws.clear()
    try:
        est = psi_norm(spec, alpha)
    except (O.NotSubGaussianError, O.NotSubExponentialError, D.QuadratureError, D.SpecError) as exc:
        return type(exc)
    return tuple(np.array([est.value, est.upper, est.p_star]).view(np.int64).tolist())


class TestFoldedLaws:
    """The laws the package derives itself (canonical forms, finite laws
    after a map step or a merge, the wrappers of folds and standard forms)
    are built without checking their fields again; each is the law the
    codec builds, and every check such a law can fail is kept."""

    def test_a_shift_that_rounds_two_values_to_one_merges_them(self):
        # 0 + M and 1 + M are both M, the largest float: one value, as before
        spec = D.Shifted(D.FiniteSupport((0.0, 1.0), (0.5, 0.5)), 1.7976931348623157e308)
        assert D.canonical(spec) == D.FiniteSupport((1.7976931348623157e308,), (1.0,))

    def test_a_merge_whose_probs_leave_one_is_refused(self):
        # the law's probs sum to 1 + 9.9987e-13; squared, 1 and -1 merge and
        # the merged probs sum to 1 + 1.00009e-12, past the 1e-12 allowed
        law = D.FiniteSupport((-2.0, -1.0, 1.0),
                              (0.3225360967782188, 0.3491606779558808, 0.3283032252669003))
        assert D.canonical(law) is law
        with pytest.raises(D.SpecError, match=(
                rf"^{re.escape(repr(law))} after the map step SquareOf\(\): "
                r"probs must sum to 1 within 1e-12, got sum 1\.000000000001$")):
            D.canonical(D.SquareOf(law))

    def test_a_far_shifted_poisson_keeps_its_norm(self):
        # its zero at 5e4 is within the terms a series is built with: the
        # series still runs past it, with the bits it had
        est = psi_norm(D.Shifted(D.Poisson(5.0), -5e4), 1)
        assert (est.value, est.upper, est.p_star) == (49994.99999999996, 49995.000000000364, 1.0)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_ANY_LAW)
    def test_folded_laws_are_the_codec_laws(self, law):
        try:
            form = D.canonical(law)
            standard = D.standard_form(law)[1]
        except D.SpecError:
            return
        parts = [form, standard, D.canonical(standard)]
        while isinstance(parts[-1], (D.Shifted, D.Scaled, D.SquareOf, D.Centered)):
            parts.append(parts[-1].base)
        for part in parts:
            decoded = _codec(part)
            if decoded is not None:
                assert decoded == part and hash(decoded) == hash(part), part
                assert spec_fields(decoded) == spec_fields(part), part

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_ANY_LAW, st.sampled_from([1, 2]))
    def test_a_folded_law_reads_the_codec_laws_norm(self, law, alpha):
        # a cold search on each law the package derives, and on its codec
        # copy: the same bits of value, upper and p*, or the same error
        try:
            parts = [law, D.canonical(law), D.standard_form(law)[1]]
        except D.SpecError:
            return
        for part in parts:
            decoded = _codec(part)
            if decoded is not None:
                assert _cold_psi(part, alpha) == _cold_psi(decoded, alpha), part


def spec_fields(spec):
    """Every field of spec and its nested specs, with the type of each value."""
    return [(name, type(value), spec_fields(value) if isinstance(value, D.Spec) else
             [type(v) for v in value] if isinstance(value, tuple) else value)
            for name, value in vars(spec).items() if not name.startswith("_")]


class TestMomentRows:
    """The moment memo stores each row of a batch: sound because a row does
    not depend on the batch it ran in."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_ANY_LAW, st.lists(st.floats(1.0, 256.0) | st.sampled_from(list(_P_GRID[::16])),
                              min_size=2, max_size=5, unique=True))
    def test_batched_rows_equal_the_single_order_reads(self, law, ps):
        # the family pass itself, on the law and on its standard law, with
        # no memo between them
        ps = np.array(ps)
        for form in {D.canonical(law), D.canonical(D.standard_form(law)[1])}:
            try:
                whole = form.log_abs_moments(ps)
            except D.QuadratureError:
                continue
            alone = np.concatenate([form.log_abs_moments(ps[i:i + 1]) for i in range(len(ps))])
            assert whole.view(np.int64).tolist() == alone.view(np.int64).tolist(), form

    def test_the_thm3_order_is_a_row_of_the_search(self, monkeypatch):
        # the psi search reads p = 4 on its first call, so the 2p-norm of
        # thm3 at p = 2 reads that row; any law of the shape shares it
        D._laws.clear()
        psi_norm(D.Centered(D.Exponential(1.7)), 1)
        monkeypatch.setattr(D.Shifted, "log_abs_moments", lambda self, ps: 1 / 0)
        got = D.lp_norm(D.Centered(D.Scaled(D.Exponential(0.4), 3.0)), 4.0)
        monkeypatch.undo()
        D._laws.clear()
        assert got == D.lp_norm(D.Centered(D.Scaled(D.Exponential(0.4), 3.0)), 4.0)

    def test_a_nan_row_is_not_stored(self, monkeypatch):
        spec = D.Shifted(D.Exponential(0.61), -7.0)
        D._laws.pop(spec, None)     # no rows stored
        monkeypatch.setattr(D.Shifted, "log_abs_moments", lambda self, ps: np.full(ps.shape, math.nan))
        assert math.isnan(D.log_abs_moments(spec, np.array([2.5]))[0])
        assert D._law(spec).rows == {}       # the law reads its own rows
        monkeypatch.undo()
        assert D.log_abs_moments(spec, np.array([2.5]))[0] == pytest.approx(
            adaptive_log_moment(spec, 2.5), rel=1e-12)

    def test_threads_share_the_memo_while_it_evicts(self, monkeypatch):
        # 6 threads on 2 cores read 60 laws through a memo of 4 laws, so
        # laws are evicted and inserted concurrently; every read is right
        monkeypatch.setattr(D, "_LAWS", 4)
        monkeypatch.setattr(D, "_laws", {})
        laws = [D.Exponential(1.0 + k / 64) for k in range(60)]
        ps = np.array([1.0, 2.5, 7.0])
        want = [D.canonical(law).log_abs_moments(ps).tolist() for law in laws]
        errors, interval = [], sys.getswitchinterval()

        def work(shift):
            try:
                for i in range(len(laws)):
                    k = (i + shift) % len(laws)
                    if D.log_abs_moments(laws[k], ps).tolist() != want[k]:
                        errors.append(k)
            except Exception as exc:        # any failure in a thread fails the test
                errors.append(exc)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(D._laws) <= 4


class TestLawMemo:
    """The memo of law records is the only memo of a scalar law, and it
    bounds the records, so the moment rows, it keeps alive."""

    LAW = D.Centered(D.Scaled(D.Exponential(0.9), 1.5))

    # each query, and the family method it runs on a law no record holds:
    # the moment pass of the standard law's form Shifted(Exponential(1),
    # -1), the unit law of the walk, the fold of the canonical form
    @pytest.mark.parametrize("query, family, method", [
        (lambda law: psi_norm(law, 1), D.Shifted, "log_abs_moments"),
        (lambda law: D.log_abs_moment(law, 3.0), D.Shifted, "log_abs_moments"),
        (D.standard_form, D.Exponential, "unit_law"),
        (lambda law: D.mgf(law, 0.1), D.Centered, "_fold"),
    ], ids=["psi_norm", "log_abs_moment", "standard_form", "mgf"])
    def test_clearing_it_runs_the_family_pass_again(self, query, family, method, monkeypatch):
        want = query(self.LAW)      # the law has been read
        calls, real = [], getattr(family, method)
        monkeypatch.setattr(family, method, lambda *args: calls.append(args) or real(*args))
        assert query(self.LAW) == want and calls == []
        D._laws.clear()
        assert query(self.LAW) == want and calls != []

    def test_an_insert_past_the_bound_keeps_the_newest_records(self, monkeypatch):
        # the ninth record into a memo of 8 drops the older half, in
        # insertion order: the newest records stay, with their rows
        monkeypatch.setattr(D, "_LAWS", 8)
        monkeypatch.setattr(D, "_laws", {})
        laws = [D.Exponential(1.0 + k / 8) for k in range(9)]
        records = []
        for law in laws[:8]:
            D.log_abs_moment(law, 2.0)
            records.append(D._laws[law])
        assert list(D._laws) == laws[:8]
        D.canonical(laws[8])
        assert list(D._laws) == laws[4:]
        assert [D._laws[law] for law in laws[4:8]] == records[4:]
        assert all(D._laws[law].rows for law in laws[4:8])

    def test_a_record_keeps_at_most_the_bound_of_rows(self, monkeypatch):
        # a batch runs whole where it lacks an order, and stores the orders
        # the record lacked unless they take it past _MOMENT_ROWS
        monkeypatch.setattr(D, "_MOMENT_ROWS", 4)
        spec = D.Shifted(D.Exponential(0.73), -2.0)
        D._laws.pop(spec, None)
        law = D._law(spec)
        want = dict(zip([1.0, 2.0, 3.0, 4.0, 5.0],
                        D.canonical(spec).log_abs_moments(np.arange(1.0, 6.0)).tolist()))
        for ps, stored in (([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                           ([3.0, 4.0, 5.0], [1.0, 2.0, 3.0]),     # 5 rows: none stored
                           ([4.0, 2.0], [1.0, 2.0, 3.0, 4.0])):
            assert law._rows(np.array(ps)).tolist() == [want[p] for p in ps]
            assert sorted(law.rows) == stored

    def test_live_rows_stay_within_twice_the_bound(self, monkeypatch):
        # c Centered(Poisson(rate)) reads the rows of the record of
        # Centered(Poisson(rate)), whose psi search reads them itself.
        # Through a memo of 8 records, every live record with rows is one
        # the memo keeps or one a kept record reads, so at most 16 dicts of
        # rows are live.  Records hold no cycles: with the collector off,
        # none lingers
        live, built = weakref.WeakSet(), []

        class Tracked(D._Record):
            def __init__(self, spec):
                super().__init__(spec)
                live.add(self)
                built.append(spec)

        monkeypatch.setattr(D, "_Record", Tracked)
        monkeypatch.setattr(D, "_LAWS", 8)
        monkeypatch.setattr(D, "_laws", {})
        counts = []
        gc.disable()
        try:
            for k in range(40):
                law, unit = D.Scaled(D.Centered(D.Poisson(1.0 + k / 8)), 0.5 + k), D.Poisson(1.0 + k / 8)
                for p in (2.0, 3.5):
                    want = p * math.log(0.5 + k) + D.canonical(D.Centered(unit)).log_abs_moments(np.array([p]))[0]
                    assert D.log_abs_moment(law, p) == pytest.approx(want, rel=1e-12)
                    assert psi_norm(law, 1).value > 0
                    kept = set(map(id, D._laws.values()))
                    kept |= {id(r._read[0]) for r in D._laws.values() if r._read is not None}
                    counts.append(sum(r.rows is not None for r in live))
                    assert all(id(r) in kept for r in live if r.rows is not None)
        finally:
            gc.enable()
        # records were dropped, and the newer half kept: none was built twice
        assert len(D._laws) <= 8 and len(built) == 40 * 3
        assert 1 <= max(counts) <= 2 * D._LAWS


# a chain of one to five map steps around a law whose steps are not read
_MAP_STEP = st.one_of(st.floats(-3.0, 3.0).map(lambda c: lambda law: D.Shifted(law, c)),
                      (st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)).map(
                          lambda c: lambda law: D.Scaled(law, c)),
                      st.just(D.SquareOf))
_STEP_CHAIN = st.lists(_MAP_STEP, min_size=1, max_size=5).map(
    lambda wraps: functools.reduce(lambda law, wrap: wrap(law), wraps, D.Exponential(1.0)))


class TestZeros:
    """`_zeros` lists the real zeros of a chain's map g: the cuts of the
    numeric moment path and the breakpoints of the adaptive oracle."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_STEP_CHAIN)
    @example(D.Shifted(D.SquareOf(D.Exponential(1.0)), -1.0))
    @example(D.SquareOf(D.Shifted(D.SquareOf(D.Shifted(D.Exponential(1.0), 0.5)), -2.0)))
    def test_the_listed_zeros_are_every_zero_of_the_map(self, law):
        _, steps = D._chain(law)
        zeros = D._zeros(steps)

        def size(x):    # |x| pushed through the steps with every term's magnitude
            for step in steps:
                x = (x + abs(step.offset) if isinstance(step, D.Shifted) else
                     abs(step.factor) * x if isinstance(step, D.Scaled) else x * x)
            return x
        for z in zeros:     # a zero within the rounding of the terms g adds up
            assert abs(D._apply(steps, np.array([z]))[0]) <= 1e-12 * size(abs(z)), z
        # every zero lies within r of 0: the preimage of 0 with magnitudes
        r = 0.0
        for step in reversed(steps):
            r = (r + abs(step.offset) if isinstance(step, D.Shifted) else
                 r / abs(step.factor) if isinstance(step, D.Scaled) else math.sqrt(r))
        xs = np.linspace(-r - 1.0, r + 1.0, 20001)
        h = xs[1] - xs[0]
        g = D._apply(steps, xs)
        # a sign change or a 0 of g on the grid has a listed zero within a step
        for i in np.flatnonzero((g[:-1] * g[1:] < 0) | (g[:-1] == 0)):
            assert any(xs[i] - h <= z <= xs[i + 1] + h for z in zeros), (xs[i], zeros)


class TestLiveWindow:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_MAPPED, st.lists(st.floats(1.0, 256.0), min_size=1, max_size=6))
    def test_equals_the_full_scan(self, spec, ps):
        assert_moment_window_is_full_scan(spec, ps)

    @pytest.mark.parametrize("spec", SCAN_LAWS, ids=str)
    def test_equals_the_full_scan_on_the_p_grid(self, spec):
        assert_moment_window_is_full_scan(spec, _P_GRID)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_reads_the_singular_end_cell(self, p):
        # g(x) = x - x1 is 0 at the scan's first coarse point x1 after the
        # chi-squared(1) singularity at 0, so no coarse point near it is live
        chi = D.ChiSquared(1)
        x1 = D._STRIDE * (chi.window(p)[1] / (D._SCAN - 1))
        for spec in (D.Shifted(chi, -x1), D.Shifted(D.Scaled(chi, 2.0), -2.0 * x1)):
            assert_moment_window_is_full_scan(spec, [p])

    @pytest.mark.parametrize("beta", [-2.0, 0.5, 3.0])
    def test_equals_the_full_scan_for_the_squared_mgf(self, beta):
        # _squared_mgf reads the window of p = 0 with log_h = beta g(x)^2
        base, steps = base_and_steps(D.Centered(D.SquareOf(D.UniformInterval(-0.5, 1.0))))
        assert_live_is_full_scan(base, lambda xs: beta * D._apply(steps, xs) ** 2, [0.0])

    def test_reads_at_most_400_scan_points_per_order(self, monkeypatch):
        spec = D.Centered(D.Exponential(1.3))
        ps = np.exp2(np.r_[0:128:4, 127, 128] / 16)
        seen = []
        real = D.Exponential.logpdf
        monkeypatch.setattr(D.Exponential, "logpdf",
                            lambda self, x: seen.append(np.size(x)) or real(self, x))
        D.log_abs_moments(spec, ps)
        # the zero of x - 1/1.3 cuts the window into two quadrature pieces
        nodes = 2 * D._PANELS * len(D._TS_T)
        assert len(ps) == 34 and sum(seen) <= len(ps) * (400 + nodes)


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
        batched = D.log_abs_moments(spec, _P_GRID)
        per_p = np.array([D.log_abs_moment(spec, p) for p in _P_GRID])
        assert batched.view(np.int64).tolist() == per_p.view(np.int64).tolist()

    def test_all_zero_law(self):
        spec = D.FiniteSupport([0.0, 0.0], [0.25, 0.75])
        assert spec.log_abs_moments(ORDERS).tolist() == [-math.inf] * len(ORDERS)
        assert spec.log_abs_moments(np.array([])).tolist() == []

    def test_values_whose_difference_overflows(self):
        # merging compared -1e308 and 1e308 by a numpy subtraction that warned
        spec = D.FiniteSupport([1e308, -1e308], [0.5, 0.5])
        assert D.canonical(spec) == D.FiniteSupport((-1e308, 1e308), (0.5, 0.5))
        assert psi_norm(spec, 2).value == pytest.approx(1e308, rel=1e-12)


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

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.5, 1.0), (0.2, 1.5)])
    @pytest.mark.parametrize("beta", [-0.5, 0.7, 3.0])
    def test_square_uniform_numeric(self, beta, lo, hi):
        # E exp(beta U^2) = sqrt(pi/|beta|) / (2 w) (F(sqrt|beta| hi) - F(sqrt|beta| lo))
        # with F = erf for beta < 0 and erfi for beta > 0
        F, r = (erf if beta < 0 else erfi), math.sqrt(abs(beta))
        want = math.sqrt(math.pi / abs(beta)) / (2 * (hi - lo)) * (F(r * hi) - F(r * lo))
        got = D.mgf(D.SquareOf(D.UniformInterval(lo, hi)), beta)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("spec, beta, want", [
        (D.Shifted(D.Exponential(2.0), 0.5), 0.7, math.exp(0.35) * 2.0 / 1.3),
        (D.Scaled(D.ChiSquared(3), 0.25), 0.8, 0.6 ** -1.5),
        (D.Centered(D.Exponential(1.0)), 0.3, math.exp(-0.3) / 0.7),
        (D.Scaled(D.Poisson(2.0), 0.5), 0.4, math.exp(2.0 * (math.exp(0.2) - 1.0))),
        # E exp(beta (Y + 1)^2), Y ~ Exp(1), beta < 0: a Gaussian integral
        (D.SquareOf(D.Shifted(D.Exponential(1.0), 1.0)), -0.4,
         math.exp(1.625) * 0.5 * math.sqrt(math.pi / 0.4) * erfc(2.25 * math.sqrt(0.4))),
    ])
    def test_mapped_closed_forms(self, spec, beta, want):
        # the mgf of Shifted, Scaled and SquareOf, ChiSquared.mgf and
        # the finite branch of Exponential.mgf
        assert D.mgf(spec, beta) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("spec, beta", [
        (D.ChiSquared(3), 0.5),
        (D.Shifted(D.Exponential(2.0), 1.0), 2.0),
        (D.SquareOf(D.Shifted(D.Exponential(1.0), 1.0)), 0.1),
    ])
    def test_mapped_divergence(self, spec, beta):
        with pytest.raises(D.MomentDivergenceError):
            D.mgf(spec, beta)

    def test_square_unbounded_diverges_for_positive_beta(self):
        with pytest.raises(D.MomentDivergenceError):
            D.mgf(D.SquareOf(D.Exponential(1.0)), 0.1)

    @pytest.mark.parametrize("spec, beta, message", [
        (D.Scaled(D.Exponential(1.0), 2.0), 0.6,
         "the MGF of Scaled(base=Exponential(rate=1.0), factor=2.0) at beta=0.6 diverges"),
        (D.Shifted(D.Scaled(D.ChiSquared(3), -4.0), 1.0), -0.2,
         "the MGF of Shifted(base=Scaled(base=ChiSquared(dof=3), factor=-4.0), offset=1.0) "
         "at beta=-0.2 diverges"),
        (D.SquareOf(D.Gaussian(1.0, 2.0)), 0.125,
         "the MGF of SquareOf(base=Gaussian(mean=1.0, sd=2.0)) at beta=0.125 diverges"),
        (D.SquareOf(D.Exponential(1.0)), 1,
         "the MGF of SquareOf(base=Exponential(rate=1.0)) at beta=1.0 diverges"),
    ], ids=["scaled-exponential", "shifted-chi-squared", "squared-gaussian",
            "squared-unbounded"])
    def test_a_divergence_names_the_law_and_beta_passed(self, spec, beta, message):
        # each named the inner law and the inner beta: Exponential(rate=1.0)
        # at beta=1.2, ChiSquared at beta=0.8 >= 1/2
        with pytest.raises(D.MomentDivergenceError) as info:
            D.mgf(spec, beta)
        assert str(info.value) == message

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.5, 0.5), (0.2, 1.5), (-3.0, -1.0)])
    @pytest.mark.parametrize("beta", [1e-8, 1e-7, 1e-6, -1e-6, 1e-3, 0.7, -3.0, 40.0])
    def test_uniform_has_no_cancellation(self, lo, hi, beta):
        # e^(beta mid) sinh(x) / x at x = beta w / 2, by exact rationals in
        # the sinh series; the difference quotient was 2.9e-11 off at 1e-6
        x, mid = Fraction(beta) * (Fraction(hi) - Fraction(lo)) / 2, (Fraction(lo) + Fraction(hi)) / 2
        ratio = sum(x ** (2 * k) / math.factorial(2 * k + 1) for k in range(60))
        want = math.exp(beta * float(mid)) * float(ratio)
        assert D.mgf(D.UniformInterval(lo, hi), beta) == pytest.approx(want, rel=2e-15)

    def test_centered_uniform_is_at_least_one(self):
        # the MGF of a centered law is >= 1 (Jensen); at 1e-7 it read below 1
        for beta in (1e-9, 1e-8, 1e-7, -1e-7, 1e-6):
            assert D.mgf(D.Centered(D.UniformInterval(0.0, 1.0)), beta) >= 1.0

    @pytest.mark.parametrize("spec", [D.Chi(3, 1.0), D.UniformGap(1.0),
                                      D.Scaled(D.Chi(3, 1.0), 2.0)], ids=repr)
    def test_a_family_with_no_closed_form_names_the_law(self, spec):
        # Chi and UniformGap have no mgf method: an AttributeError
        with pytest.raises(D.SpecError) as info:
            D.mgf(spec, 0.3)
        assert str(info.value) == f"the MGF of {spec} at beta=0.3 has no closed form"

    @pytest.mark.parametrize("spec, beta", [
        (D.Gaussian(0.0, 1e200), 1.0),
        (D.Gaussian(0.0, 1.0), 1e200),
        (D.Poisson(1.0), 800.0),
        (D.UniformInterval(0.0, 1.0), 1000.0),
        (D.FiniteSupport((0.0, 1000.0), (0.5, 0.5)), 1.0),
        (D.FiniteSupport((-1e308, 1e308), (0.5, 0.5)), 10.0),
        (D.Shifted(D.Exponential(1.0), 1e3), 0.9),
        (D.SquareOf(D.Gaussian(1e200, 1.0)), 0.1),
        # finite (about 7.07e-201), but the closed form squares sd = 1e200
        (D.SquareOf(D.Gaussian(0.0, 1e200)), -1.0),
    ], ids=repr)
    def test_an_overflow_is_an_error_that_names_the_law(self, spec, beta):
        # each used to end in a bare OverflowError, and the 1e308 atoms in
        # numpy's overflow warning and a NaN MGF
        with pytest.raises(D.SpecError, match=re.escape(f"the MGF of {spec} at beta={beta!r} "
                                                        "overflows a float")):
            D.mgf(spec, beta)


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
        # real fields are written as floats, so 2 and 2.0 give one JSON
        # form; integer (Count) fields stay integers
        d = {"kind": "shifted", "base": {"kind": "gaussian", "mean": 0, "sd": 1},
             "offset": 2}
        floats = {"kind": "shifted", "base": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
                  "offset": 2.0}
        assert D.spec_to_dict(D.spec_from_dict(d)) == d
        assert json.dumps(D.spec_to_dict(D.spec_from_dict(d))) == json.dumps(floats)
        chi2 = {"kind": "chi_squared", "dof": 3}
        assert json.dumps(D.spec_to_dict(D.spec_from_dict(chi2))) == json.dumps(chi2)

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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestRoundUp:
    """round_up gives the smallest float not below an exact rational."""

    @staticmethod
    def assert_least_float_above(up, exact):
        assert up >= exact
        assert math.nextafter(up, -math.inf) < exact

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_FINITE, _FINITE)
    def test_products(self, a, b):
        exact = Fraction(a) * Fraction(b)
        up = D.round_up(exact)
        if abs(a * b) < math.inf:
            self.assert_least_float_above(up, exact)
            assert up in (a * b, math.nextafter(a * b, math.inf))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=12))
    def test_sums(self, xs):
        exact = sum(Fraction(x) for x in xs)
        up = D.round_up(exact)
        self.assert_least_float_above(up, exact)
        total = math.fsum(xs)
        assert up in (total, math.nextafter(total, math.inf))

    def test_inexact_product_and_sum_round_up(self):
        # 0.3 * 3 and 0.1 + 0.7 round to nearest below their exact values
        for near, exact in [(0.3 * 3, Fraction(0.3) * 3),
                            (math.fsum([0.1, 0.7]), Fraction(0.1) + Fraction(0.7))]:
            assert near < exact and D.round_up(exact) == math.nextafter(near, math.inf)

    def test_past_the_largest_float_is_inf(self):
        assert D.round_up(Fraction(1e308) * 10) == math.inf


class TestCanonical:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_ANY_LAW)
    def test_a_form_is_a_spec_of_the_same_law(self, law):
        # a canonical form is its own canonical form, with the support and
        # the moments of the law it came from
        form = D.canonical(law)
        assert D.canonical(form) == form
        assert D.support_interval(form) == D.support_interval(law)
        ps = np.array([1.0, 2.5, 16.0, 128.0])
        try:
            want = D.log_abs_moments(law, ps)
        except D.QuadratureError:
            return
        assert D.log_abs_moments(form, ps) == pytest.approx(want, rel=1e-12)

    def test_affine_chains_reparameterise(self):
        assert D.canonical(D.Centered(D.Gaussian(2.0, 0.5))) == D.Gaussian(0.0, 0.5)
        assert (D.canonical(D.Scaled(D.Shifted(D.UniformInterval(0.0, 1.0), 1.0), -2.0))
                == D.UniformInterval(-4.0, -2.0))

    @pytest.mark.parametrize("step", [
        D.Shifted(D.Gaussian(1e308, 1.0), 1e308),           # a mean past the floats
        D.Scaled(D.Gaussian(0.0, 1e-300), 1e-100),          # an sd that rounds to 0
        D.Shifted(D.UniformInterval(0.0, 5e-324), 1.0),     # an interval that closes
        D.Scaled(D.UniformInterval(-1.0, 1.0), 1e308),      # a width past the floats
    ], ids=repr)
    def test_a_refused_affine_fold_keeps_its_step(self, step):
        # the family's constructor refuses the folded parameters, so the
        # step stays a wrapper: itself, or rebuilt around the folded base
        assert D.canonical(step) is step
        assert D.canonical(dataclasses.replace(step, base=D.Scaled(step.base, 1.0))) == step

    def test_finite_chains_merge(self):
        spec = D.SquareOf(D.Scaled(D.Rademacher(), 3.0))
        assert D.canonical(spec) == D.FiniteSupport((9.0,), (1.0,))
        zero = D.Scaled(D.Exponential(1.0), 0.0)
        assert D.canonical(zero) == D.FiniteSupport((0.0,), (1.0,))
        assert psi_norm(zero, 1).value == 0.0

    def test_only_equal_values_merge(self):
        # 1e20 and the next-but-five float up used to merge, 1e-15 apart
        spec = D.FiniteSupport([1e20, 1.000000000000001e20], [0.5, 0.5])
        assert D.canonical(spec) == spec
        lo, hi = D.support_interval(spec)
        assert hi - lo == 98304.0
        assert D.canonical(D.Centered(spec)).probs == (0.5, 0.5)

    @pytest.mark.parametrize("spec, step", [
        (D.Scaled(D.FiniteSupport([1.0, 1e200], [0.5, 0.5]), 1e200), "Scaled(factor=1e+200)"),
        (D.SquareOf(D.FiniteSupport([-1.0, 1e300, 1000.0], [0.25, 0.25, 0.5])), "SquareOf()"),
        (D.Shifted(D.FiniteSupport([0.0, 1e308], [0.5, 0.5]), 1e308), "Shifted(offset=1e+308)"),
    ], ids=repr)
    def test_a_value_past_the_largest_float_is_refused(self, spec, step):
        # it used to merge into its neighbour, abs(inf - w) <= 1e-15 * inf,
        # after numpy's overflow RuntimeWarning
        with pytest.raises(D.SpecError, match=(
                rf"^{re.escape(repr(D.canonical(spec.base)))} after the map step {re.escape(step)}: "
                r"values must be finite, got inf$")):
            D.canonical(spec)

    def test_a_mean_past_the_largest_float_is_not_centered(self):
        # the shift by -inf used to reach Fraction in standard_form
        base = D.Scaled(D.UniformInterval(-2.5, 1e300), 1e300)
        with pytest.raises(D.SpecError, match=(
                rf"^the mean of {re.escape(repr(base))} must be finite to center it, got inf$")):
            psi_norm(D.Centered(base), 1)

    def test_a_moment_past_the_largest_float_names_the_law(self):
        # math.exp used to raise a bare OverflowError
        law = D.Gaussian(0.0, 1e200)
        with pytest.raises(D.SpecError, match=r"^E\|X\|\^p at p=2\.0 of Gaussian\(mean=0\.0, "
                                              r"sd=1e\+200\) is past the largest float"):
            D.mean(D.SquareOf(law))
        with pytest.raises(D.SpecError, match=r"^the L4 norm of Scaled\(.*\) is past the largest"):
            D.lp_norm(D.Scaled(D.Gaussian(0.0, 1e300), 1e300), 4)
        assert D.abs_moment(D.FiniteSupport((0.0,), (1.0,)), 2) == 0.0
        assert D.lp_norm(D.FiniteSupport((0.0,), (1.0,)), 2) == 0.0

    @pytest.mark.parametrize("base, factor, alpha", [
        (D.Gaussian(0.0, 1e300), 2e8, 2),
        (D.UniformInterval(-1.0, 1.0), 1e308, 1),
    ], ids=repr)
    def test_a_step_whose_parameters_overflow_stays_a_map(self, base, factor, alpha):
        spec = D.Scaled(base, factor)
        assert D.canonical(spec) == spec
        want = factor * psi_norm(base, alpha).value     # 1.5958e308 and 5e307
        assert psi_norm(spec, alpha).value == pytest.approx(want, rel=1e-12)

    def test_other_chains_map_a_primitive(self):
        form = D.canonical(D.Centered(D.Scaled(D.Exponential(2.0), 3.0)))
        assert form == D.Shifted(D.Scaled(D.Exponential(2.0), 3.0), -1.5)
        assert D.standard_form(D.Centered(D.Scaled(D.Exponential(2.0), 3.0))) == (
            1.5, D.Centered(D.Exponential(1.0)))
        spec = D.SquareOf(D.Gaussian(1.0, 1.0))
        assert D.standard_form(spec) == (1.0, spec)

    def test_centered_gaussian_is_closed_form(self):
        for p in (1.0, 3.0, 40.0):
            want = D.log_abs_moment(D.Gaussian(0.0, 0.5), p)
            got = D.log_abs_moment(D.Centered(D.Shifted(D.Gaussian(2.0, 0.5), 1.0)), p)
            assert got == want

    def test_centered_mean_is_exactly_zero(self):
        for spec in CATALOGUE:
            assert D.mean(D.Centered(spec)) == 0.0

    def test_a_square_of_a_shifted_uniform_is_its_own_standard_law(self):
        # the center of U(-0.45, 0.8) is not 0: the walk stops at the square step
        spec = D.Centered(D.SquareOf(D.UniformInterval(-0.45, 0.8)))
        D._laws.clear()
        assert D.standard_form(spec) == (1.0, spec)

    def test_runs_once_per_spec(self):
        spec = D.Centered(D.Scaled(D.Exponential(1.2345), 0.75))
        D._laws.clear()
        psi_norm(spec, 1)
        cold = dict(D._laws)
        # Centered, Scaled, Exponential, and the standard law's Centered and
        # Exponential(1)
        assert len(cold) == 5
        psi_norm(spec, 1)
        # the warm standard form and norm are read off their records: no
        # record is built again
        assert D._laws == cold and all(D._laws[k] is law for k, law in cold.items())


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
