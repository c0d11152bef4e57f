import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import beta, binom, gamma

from lighttails import distributions as D
from lighttails import functions as F
from lighttails import verify as V
from lighttails.bounds import TailBoundResult
from lighttails.distributions import FiniteSupport
from lighttails.entropy import ProductTable
from lighttails.functions import SumFunction, SupLinearLoss, VectorNormOfSum


def sum_of(spec, n):
    return SumFunction([spec] * n)


class TestClopperPearson:
    def test_edges(self):
        lo, hi = V.clopper_pearson(0, 100)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = V.clopper_pearson(100, 100)
        assert hi == 1.0 and 0.9 < lo < 1

    def test_contains_point_estimate(self):
        for k in (1, 17, 250, 999):
            lo, hi = V.clopper_pearson(k, 1000)
            assert lo <= k / 1000 <= hi

    def test_exact_binomial_inversion(self):
        # at the lower endpoint the upper binomial tail equals alpha/2
        k, n, level = 30, 200, 0.999
        lo, hi = V.clopper_pearson(k, n, level)
        alpha = (1 - level) / 2
        assert binom.sf(k - 1, n, lo) == pytest.approx(alpha, rel=1e-9)
        assert binom.cdf(k, n, hi) == pytest.approx(alpha, rel=1e-9)

    def test_widens_with_level(self):
        lo1, hi1 = V.clopper_pearson(50, 1000, 0.9)
        lo2, hi2 = V.clopper_pearson(50, 1000, 0.999)
        assert lo2 < lo1 and hi2 > hi1

    def test_invalid(self):
        with pytest.raises(ValueError):
            V.clopper_pearson(5, 4)
        with pytest.raises(ValueError):
            V.clopper_pearson(1, 10, 1.0)
        with pytest.raises(ValueError, match="k=11, n=10"):
            V.clopper_pearson(np.array([0, 11, 3]), 10)

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 6 + 7])
    @pytest.mark.parametrize("level", [0.999, 0.95])
    def test_batch_equals_scalar_beta_ppf(self, n, level):
        ks = [0, 1, 2, 17, n // 3, n - 2, n - 1, n]
        tail = (1.0 - level) / 2.0
        want = [(0.0 if k == 0 else float(beta.ppf(tail, k, n - k + 1)),
                 1.0 if k == n else float(beta.ppf(1.0 - tail, k + 1, n - k)))
                for k in ks]
        est = V.TailEstimate(t_grid=tuple(range(1, len(ks) + 1)), exceed_counts=tuple(ks),
                             n_samples=n, mean_value=0.0, mean_half_width=0.0,
                             cp_level=level, seed=0)
        for got in (est.intervals(), [V.clopper_pearson(k, n, level) for k in ks]):
            assert all(type(x) is float for iv in got for x in iv)
            assert [tuple(x.hex() for x in iv) for iv in got] == \
                [tuple(x.hex() for x in iv) for iv in want]

    def test_intervals_make_one_call(self, monkeypatch):
        # looked up as a module global, once for the whole grid
        calls = []
        scalar = V.clopper_pearson
        monkeypatch.setattr(V, "clopper_pearson",
                            lambda *a: calls.append(a) or scalar(*a))
        est = V.estimate_tail(sum_of(D.Exponential(1.0), 3), [0.5, 1.0, 2.0], 10 ** 4, seed=1)
        assert len(est.intervals()) == 3 and len(calls) == 1


class TestEstimateTail:
    def test_single_rademacher(self):
        est = V.estimate_tail(sum_of(D.Rademacher(), 1), [0.5], 10 ** 4, seed=3)
        assert est.mean_value == 0.0 and est.mean_half_width == 0.0
        lo, hi = est.intervals()[0]
        assert lo <= 0.5 <= hi
        assert abs(est.empirical_tail[0] - 0.5) < 0.02

    def test_gamma_sum_matches_sf(self):
        fspec = sum_of(D.Exponential(1.0), 10)
        grid = [1.0, 3.0, 6.0]
        est = V.estimate_tail(fspec, grid, 10 ** 5, seed=11)
        for t, (lo, hi) in zip(grid, est.intervals()):
            truth = float(gamma.sf(10.0 + t, 10))
            assert lo <= truth <= hi

    def test_deterministic(self):
        fspec = sum_of(D.Exponential(1.0), 3)
        a = V.estimate_tail(fspec, [1.0, 2.0], 2 * 10 ** 4, seed=5)
        b = V.estimate_tail(fspec, [1.0, 2.0], 2 * 10 ** 4, seed=5)
        assert a == b
        c = V.estimate_tail(fspec, [1.0, 2.0], 2 * 10 ** 4, seed=6)
        assert c.exceed_counts != a.exceed_counts

    def test_thread_invariance(self):
        fspec = sum_of(D.Gaussian(0.0, 1.0), 2)
        a = V.estimate_tail(fspec, [0.5, 1.5], 3 * 10 ** 5, seed=7, threads=1)
        b = V.estimate_tail(fspec, [0.5, 1.5], 3 * 10 ** 5, seed=7, threads=8)
        assert a == b

    @pytest.mark.parametrize("fspec", [
        VectorNormOfSum(D.VectorSpec(2, [D.Gaussian(0.0, 1.0), D.Exponential(1.0)]),
                        n=3, centered=True),
        SupLinearLoss([(1.0, 0.0), (0.6, 0.8)], "hinge",
                      D.VectorSpec(2, [D.Gaussian(0.0, 1.0)] * 2),
                      D.UniformInterval(-1.0, 1.0), n=4),
    ], ids=lambda f: f.kind)
    def test_thread_invariance_vector_kinds(self, fspec):
        kwargs = dict(t_grid=[0.1, 0.4, 1.0], n_samples=2 * 10 ** 5 + 500, seed=9)
        assert V.estimate_tail(fspec, threads=1, **kwargs) == \
            V.estimate_tail(fspec, threads=2, **kwargs)

    @pytest.mark.parametrize("fspec", [
        F.SumFunction([D.UniformInterval(0.0, 1.0), D.Exponential(2.0), D.Rademacher()]),
        F.MetricLipschitz(1.5, [D.Gaussian(), D.Exponential(1.0), D.Poisson(2.0)],
                          ["sin", "identity", "abs"]),
        VectorNormOfSum(D.VectorSpec(2, [D.Gaussian(0.0, 1.0), D.UniformInterval(0.0, 1.0)]),
                        n=4, centered=True),
        sum_of(D.Exponential(1.0), 4),
        VectorNormOfSum(D.VectorSpec(3, [D.Gaussian(0.0, 2.0)] * 3), n=5),
        SupLinearLoss([(1.0, 0.0)], "absolute", D.VectorSpec(2, [D.Gaussian(0.0, 1.0)] * 2),
                      D.Exponential(1.0), n=3),
        VectorNormOfSum(D.VectorSpec(24, [D.UniformInterval(0.0, 1.0)] * 24), n=2),
    ], ids=["sum", "metric", "vectors", "summed", "chi", "loss", "wide"])
    def test_one_thread_draws_on_the_calling_thread(self, fspec, monkeypatch):
        # --threads 1 starts no thread; its counts equal those at two
        # threads and those of a fresh sample_f per shard, so the arrays a
        # thread keeps across its shards (the last one short) carry nothing
        # from one shard into the next.  The 25 rows of the wide fold, 20 MB
        # at the shard width, are past what a thread keeps: each of its
        # shards draws into a new array
        kwargs = dict(t_grid=[0.5, 1.0, 2.0, 3.0], n_samples=3 * 10 ** 5 + 7, seed=11)
        two = V.estimate_tail(fspec, threads=2, **kwargs)
        mean = two.mean_value + two.mean_half_width
        fresh = np.sum([V._exceedances(F.sample_f(fspec, 11, count, stream),
                                       np.add(kwargs["t_grid"], mean))
                        for stream, count in enumerate([10 ** 5] * 3 + [7])], axis=0)

        def no_thread(self):
            raise AssertionError("a thread started at --threads 1")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        one = V.estimate_tail(fspec, threads=1, **kwargs)
        assert one == two and one.exceed_counts == tuple(fresh)
        assert getattr(V._kept, "buf", np.empty(0)).nbytes <= V._KEPT_BYTES

    def test_thread_invariance_chi_layout(self):
        fspec = VectorNormOfSum(D.VectorSpec(3, [D.Gaussian(0.0, 2.0)] * 3), n=5)
        assert fspec.sampler_layout == "chi"
        kwargs = dict(t_grid=[0.5, 2.0, 6.0], n_samples=2 * 10 ** 5 + 500, seed=9)
        assert V.estimate_tail(fspec, threads=1, **kwargs) == \
            V.estimate_tail(fspec, threads=2, **kwargs)

    @pytest.mark.parametrize("fspec, t_grid", [
        (sum_of(D.Exponential(1.0), 3), [0.5, 1.0, 2.5, 4.0]),
        # values sit exactly on the thresholds: a tie is not an exceedance
        (sum_of(D.Rademacher(), 4), [1.0, 2.0, 3.0, 4.0]),
    ])
    def test_sorted_counts_match_boolean_matrix(self, fspec, t_grid):
        n_samples, seed = 2 * 10 ** 5 + 300, 4
        est = V.estimate_tail(fspec, t_grid, n_samples, seed)
        thresholds = np.asarray(t_grid) + est.mean_value + est.mean_half_width
        want, ties = np.zeros(len(t_grid), dtype=int), 0
        for stream, start in enumerate(range(0, n_samples, V.SHARD_SIZE)):
            count = min(V.SHARD_SIZE, n_samples - start)
            vals = F.sample_f(fspec, seed, count, stream=stream)
            want += np.sum(vals[:, None] > thresholds[None, :], axis=0)
            ties += int(np.sum(vals[:, None] == thresholds[None, :]))
        assert est.exceed_counts == tuple(want)
        assert (ties > 0) == isinstance(fspec.components[0], D.Rademacher)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises(self, bad, monkeypatch):
        real = F.sample_f

        def sample_f(fspec, seed, count, stream=0, work=None):
            vals = real(fspec, seed, count, stream, work)
            if stream == 1:
                vals[17] = bad
            return vals
        monkeypatch.setattr(V.fn, "sample_f", sample_f)
        fspec = sum_of(D.Gaussian(0.0, 1.0), 2)
        with pytest.raises(ValueError, match=r"^sum: sample value .* in shard 1 "
                                             r"is not finite"):
            V.estimate_tail(fspec, [0.5, 1.5], 3 * 10 ** 5, seed=7)

    def test_grid_validation(self):
        fspec = sum_of(D.Rademacher(), 1)
        with pytest.raises(ValueError, match="ascending"):
            V.estimate_tail(fspec, [1.0, 1.0], 10 ** 4, seed=0)
        with pytest.raises(ValueError, match="positive"):
            V.estimate_tail(fspec, [-1.0, 1.0], 10 ** 4, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            V.estimate_tail(fspec, [], 10 ** 4, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            V.estimate_tail(fspec, [1.0], 10 ** 3, seed=0)

    def test_grid_spacing_guard(self):
        # expectation's half-width is 0.0141, against a spacing of 1e-4
        vec = D.VectorSpec(2, [D.Rademacher(), D.Rademacher()])
        fspec = VectorNormOfSum(vec, n=5)
        with pytest.raises(ValueError, match="t-grid spacing 0.0001 too fine"):
            V.estimate_tail(fspec, [1e-4, 2e-4], 10 ** 4, seed=0)


# values with exact ties between draws and thresholds, and both zeros
_TIED = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0)


class TestCounting:
    """A shard's exceedance counts: threshold by threshold on a grid of at
    most V._COUNT_STEPS, by a sort and a bisection past it; the two agree
    on every grid, ties and signed zeros included."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(_TIED, min_size=1, max_size=400),
           st.lists(_TIED, min_size=1, max_size=2 * V._COUNT_STEPS + 8))
    @example([0.5] * 10 + [-0.0, 0.0], [-0.0] + [0.5] * (V._COUNT_STEPS - 1))
    @example([0.5] * 10 + [-0.0, 0.0], [0.0] + [0.5] * V._COUNT_STEPS)
    def test_counts_equal_the_sorted_bisection(self, values, grid):
        vals, thresholds = np.array(values), np.sort(grid)
        want = len(vals) - np.searchsorted(np.sort(vals), thresholds, side="right")
        assert list(V._exceedances(vals.copy(), thresholds)) == list(want)
        assert list(want) == [int(np.sum(vals > t)) for t in thresholds]

    @pytest.mark.parametrize("steps", [V._COUNT_STEPS, V._COUNT_STEPS + 1, 3 * V._COUNT_STEPS])
    @pytest.mark.parametrize("fspec", [sum_of(D.Exponential(1.0), 3), sum_of(D.Rademacher(), 4)],
                             ids=["gamma", "rademacher-ties"])
    def test_estimate_matches_the_boolean_matrix_on_both_sides(self, steps, fspec):
        # the Rademacher sum ties every threshold of 1, 2, 3 and 4
        t_grid = sorted([1.0, 2.0, 3.0, 4.0] + [(4 * i + 0.5) / steps for i in range(steps - 4)])
        n_samples, seed = 10 ** 5 + 300, 4
        est = V.estimate_tail(fspec, t_grid, n_samples, seed)
        thresholds = np.asarray(t_grid) + est.mean_value + est.mean_half_width
        want = np.zeros(steps, dtype=int)
        for stream, start in enumerate(range(0, n_samples, V.SHARD_SIZE)):
            count = min(V.SHARD_SIZE, n_samples - start)
            vals = F.sample_f(fspec, seed, count, stream=stream)
            want += np.sum(vals[:, None] > thresholds[None, :], axis=0)
        assert est.exceed_counts == tuple(want)

    @pytest.mark.parametrize("steps", [2, V._COUNT_STEPS + 8], ids=["count", "sort"])
    @pytest.mark.parametrize("bad, named", [
        ([math.nan], "nan"), ([math.inf], "inf"), ([-math.inf], "-inf"),
        ([math.inf, -math.inf], "-inf"), ([-math.inf, math.nan], "nan"),
    ], ids=["nan", "inf", "-inf", "inf-and-minus-inf", "minus-inf-and-nan"])
    def test_non_finite_shard_names_kind_shard_and_value(self, steps, bad, named, monkeypatch):
        real = F.sample_f

        def sample_f(fspec, seed, count, stream=0, work=None):
            vals = real(fspec, seed, count, stream, work)
            if stream == 1:
                vals[17:17 + len(bad)] = bad
            return vals
        monkeypatch.setattr(V.fn, "sample_f", sample_f)
        t_grid = np.linspace(0.1, 3.0, steps).tolist()
        with pytest.raises(ValueError) as err:
            V.estimate_tail(sum_of(D.Gaussian(0.0, 1.0), 2), t_grid, 3 * 10 ** 5, seed=7)
        assert str(err.value) == f"sum: sample value {named} in shard 1 is not finite"


class TestLimits:
    """Sizes checked before any draw: the sample count, the workers and the
    shard buffer of the per-coordinate layout."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a draw before the limit checks")
        monkeypatch.setattr(V.fn, "sample_f", no_work)
        monkeypatch.setattr(V.fn, "expectation", no_work)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_samples=10 ** 9 + 1), "n_samples must be <= 10^9, got 1000000001"),
        (dict(n_samples=10 ** 400), f"n_samples must be <= 10^9, got {10 ** 400}"),
        (dict(threads=0), "threads must lie in [1, 64], got 0"),
        (dict(threads=65), "threads must lie in [1, 64], got 65"),
    ], ids=["n", "n-10^400", "threads-0", "threads-65"])
    def test_counts_out_of_range(self, kwargs, message, no_draws):
        args = {**dict(t_grid=[1.0], n_samples=10 ** 4, seed=0), **kwargs}
        with pytest.raises(ValueError) as err:
            V.estimate_tail(sum_of(D.Exponential(1.0), 2), **args)
        assert str(err.value) == message

    @staticmethod
    def psa(dim, n=1):
        # dim + 2 rows and dim (dim + 1) / 2 totals of S per draw, whatever n is
        return F.PsaReconstruction(dim, 1, F.random_projections(dim, 1, 1, seed=0),
                                   D.VectorSpec(dim, [D.Gaussian(0.0, 1.0)] * dim), n)

    def test_a_shard_past_the_budget_is_refused(self, no_draws):
        # 51 entries a point hold 1379 values per draw, 1103200000 bytes in
        # 10^5 draws; 168 coordinates of 4 entries were refused as whole
        # points, 537600000 bytes and as much again in their C-order copy
        with pytest.raises(ValueError) as err:
            V.estimate_tail(self.psa(51), [1.0], 10 ** 5, seed=0)
        assert str(err.value) == (
            "psa_reconstruction: a shard of 100000 draws takes 1103200000 bytes in the "
            "per-coordinate layout, 1379 values per draw, over the shard budget of 1073741824 "
            "bytes (1 GiB)")

    @pytest.mark.parametrize("fspec", [
        F.SumFunction([D.UniformInterval(0.0, 1.0)] * 1343),
        F.SumFunction([D.UniformInterval(0.0, k + 1.0) for k in range(5000)]),
        F.MetricLipschitz(1.0, [D.Gaussian()] * 5000, ["sin"] * 5000),
        VectorNormOfSum(D.VectorSpec(10, [D.UniformInterval(0.0, 1.0)] * 10), n=10 ** 9),
        F.SumFunction([D.Exponential(1.0)] * 5000),
        VectorNormOfSum(D.VectorSpec(2, [D.Exponential(1.0)] * 2), n=10 ** 9),
        VectorNormOfSum(D.VectorSpec(2, [D.Gaussian(0.0, 1.0)] * 2), n=10 ** 9),
        psa(4, 10 ** 9),
        SupLinearLoss([[1.0, 0.0]] * 3, "absolute", D.VectorSpec(2, [D.Gaussian()] * 2),
                      D.Exponential(1.0), 10 ** 9),
    ], ids=["sum", "long-sum", "metric", "vectors", "summed", "summed-vectors", "chi", "psa", "loss"])
    def test_a_fold_or_a_sum_law_is_not_limited(self, fspec):
        # the fold holds its point, scratch and totals per draw, the summed
        # layout dim + 1 values and the chi layout one, not n dim: n is not
        # limited, and 1343 coordinates were refused when a shard held whole
        # points, as PSA and loss specs were at n = 168 and n = 22
        V._check_shard_bytes(fspec, V.MAX_THREADS, V.MAX_SAMPLES)

    @staticmethod
    def wide(dim, law=D.UniformInterval(0.0, 1.0), n=1):
        return VectorNormOfSum(D.VectorSpec(dim, [law] * dim), n=n)

    @pytest.mark.parametrize("dim, threads, n_samples", [
        (1341, 1, 10 ** 5), (1341, 1, 20000), (19, 64, V.MAX_SAMPLES)])
    def test_a_fold_counts_its_row_and_totals(self, dim, threads, n_samples):
        # dim + 1 values per draw, no copy: 1342 rows of 10^5 draws are
        # 1073600000 bytes, and 64 workers of 20 rows 1024000000
        V._check_shard_bytes(self.wide(dim), threads, n_samples)

    @pytest.mark.parametrize("fspec, threads, n_samples, message", [
        (wide(1400), 1, 10 ** 5,
         "a shard of 100000 draws takes 1120800000 bytes in the per-coordinate layout, 1401 "
         "values per draw"),
        (wide(1342), 1, 20000,
         "the expectation's batch of 100000 draws takes 1074400000 bytes in the per-coordinate "
         "layout, 1343 values per draw"),
        (wide(20), 64, V.MAX_SAMPLES,
         "a shard of 100000 draws takes 16800000 bytes in the per-coordinate layout, 21 values "
         "per draw, 1075200000 bytes with 64 threads"),
        (wide(1400, D.Exponential(1.0), 10 ** 9), 1, 10 ** 6,
         "a shard of 100000 draws takes 1120800000 bytes in the summed layout, 1401 values per "
         "draw"),
    ], ids=["wide", "wide-batch", "wide-threads", "wide-summed"])
    def test_a_wide_fold_is_refused(self, fspec, threads, n_samples, message, no_draws):
        # a row and dim totals per draw: 1400 uniform entries at n = 1 were
        # refused as whole points, and stay refused as a fold
        with pytest.raises(ValueError) as err:
            V.estimate_tail(fspec, [1.0], n_samples, seed=0, threads=threads)
        assert str(err.value) == (
            f"vector_norm_of_sum: {message}, over the shard budget of 1073741824 bytes (1 GiB)")

    @staticmethod
    def loss(dim):
        # dim + 1 entries a point, 2 scratch rows and one total: dim + 4
        # values per draw, whatever n is
        vec = D.VectorSpec(dim, [D.Gaussian(0.0, 1.0)] * dim)
        return SupLinearLoss([[1.0] + [0.0] * (dim - 1)], "absolute", vec, D.Exponential(1.0), 1)

    @pytest.mark.parametrize("dim, threads", [(667, 2), (1338, 1)])
    def test_each_worker_counts_its_rows(self, dim, threads):
        # 671 values per draw at two workers take 1073600000 bytes, 1342 at one
        V._check_shard_bytes(self.loss(dim), threads, V.MAX_SAMPLES)

    @pytest.mark.parametrize("dim, threads, peak", [(668, 2, 1075200000), (1339, 1, 1074400000)])
    def test_a_peak_past_the_budget_is_refused(self, dim, threads, peak, no_draws):
        # one values per draw past the rows above; two shards keep both
        # workers busy
        with pytest.raises(ValueError) as err:
            V.estimate_tail(self.loss(dim), [1.0], 2 * 10 ** 5, seed=0, threads=threads)
        assert str(err.value) == (
            f"sup_linear_loss: a shard of 100000 draws takes {peak // threads} bytes in the "
            f"per-coordinate layout, {dim + 4} values per draw"
            + (f", {peak} bytes with 2 threads" if threads == 2 else "")
            + ", over the shard budget of 1073741824 bytes (1 GiB)")

    @pytest.mark.parametrize("dim, threads, n_samples", [
        (1338, 2, 20000), (1338, 2, 10 ** 5), (1338, 1, 10 ** 9), (667, 2, 10 ** 5 + 1),
        (667, 2, 10 ** 9)])
    def test_a_run_counts_its_shards_and_draws(self, dim, threads, n_samples):
        # a run of one shard holds one array, of at most n_samples draws;
        # the loss kind's mean has no closed form, so fn.expectation holds a
        # batch of 10^5 draws first
        V._check_shard_bytes(self.loss(dim), threads, n_samples)

    @pytest.mark.parametrize("dim, n_samples, batch, size, held", [
        (1339, 20000, "the expectation's batch", 1074400000, ""),
        (6700, 20000, "the expectation's batch", 5363200000, ""),
        (668, 10 ** 5 + 1, "a shard", 537600000, ", 1075200000 bytes with 2 threads"),
        (1339, 10 ** 5, "a shard", 1074400000, ""),
    ])
    def test_a_run_past_the_budget_is_refused(self, dim, n_samples, batch, size, held, no_draws):
        # just past the count: 1343 values in the expectation's batch ahead
        # of one shard of 20000 draws, 672 in two shards at two threads,
        # 1343 in one full shard; 6704 take five times the budget in the
        # batch, though their one shard of 20000 draws is within it
        with pytest.raises(ValueError) as err:
            V.estimate_tail(self.loss(dim), [1.0], n_samples, seed=0, threads=2)
        assert str(err.value) == (
            f"sup_linear_loss: {batch} of 100000 draws takes {size} bytes in the per-coordinate "
            f"layout, {dim + 4} values per draw{held}, over the shard budget of 1073741824 "
            "bytes (1 GiB)")

    def test_a_psa_spec_counts_its_threads(self):
        # 36 entries a point: 704 values per draw, 563200000 bytes a shard,
        # twice that at two threads; 35 (667 values) stay within it
        V._check_shard_bytes(self.psa(35), 2, V.MAX_SAMPLES)
        with pytest.raises(ValueError) as err:
            V._check_shard_bytes(self.psa(36), 2, V.MAX_SAMPLES)
        assert str(err.value) == (
            "psa_reconstruction: a shard of 100000 draws takes 563200000 bytes in the "
            "per-coordinate layout, 704 values per draw, 1126400000 bytes with 2 threads, over "
            "the shard budget of 1073741824 bytes (1 GiB)")

    @pytest.mark.parametrize("fspec, n_samples, fills, per_draw", [
        (wide(10, n=10 ** 9), 10 ** 4, 1100000000000000, 10 ** 10),
        (psa(4, 10 ** 9), 10 ** 4, 440000000000000, 4 * 10 ** 9),
        (F.SumFunction([D.UniformInterval(0.0, 1.0)] * 100), 10 ** 9, 100010000000, 100),
    ], ids=["vectors", "psa", "sum"])
    def test_fills_past_the_budget_are_refused(self, fspec, n_samples, fills, per_draw, no_draws):
        # ten uniform entries at n = 10^9 fit the shard budget in 11 values
        # per draw, but the expectation's 10^5 draws alone would fill 10^15
        # entries, weeks of work; a sum of 100 is refused one batch past 10^9
        with pytest.raises(ValueError) as err:
            V.estimate_tail(fspec, [1.0], n_samples, seed=0)
        assert str(err.value) == (
            f"{fspec.kind}: --n {n_samples} draws and the expectation's 100000, at n = {fspec.n}, "
            f"fill {fills} entries in the per-coordinate layout ({per_draw} a draw), over the work "
            "budget of 100000000000 fills (about 9 minutes)")

    @pytest.mark.parametrize("fspec, n_samples", [
        (F.SumFunction([D.UniformInterval(0.0, 1.0)] * 100), 10 ** 9 - 10 ** 5),
        (F.SumFunction([D.Exponential(1.0)] * 5000), 10 ** 9),
        (wide(2, D.Exponential(1.0), 10 ** 9), 10 ** 9),
        (wide(2, D.Gaussian(), 10 ** 9), 10 ** 9),
    ], ids=["at-the-budget", "summed", "summed-vectors", "chi"])
    def test_fills_within_the_budget_pass(self, fspec, n_samples):
        # the summed layout fills one entry per total, the chi layout one a draw
        V._check_fills(fspec, n_samples)


class TestExactEnumeration:
    def test_two_rademacher_sum(self):
        r = FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        f = np.add.outer([-1.0, 1.0], [-1.0, 1.0])
        table = ProductTable([r, r], f)
        tails = V.exact_tail_enumeration(table, [0.5, 1.0, 1.5, 2.5])
        assert tails == [0.25, 0.25, 0.25, 0.0]

    def test_centering(self):
        y = FiniteSupport([0.0, 10.0], [0.9, 0.1])
        table = ProductTable([y], np.array([0.0, 10.0]))
        # mean 1: only the mass at 10 exceeds mean + 2
        assert V.exact_tail_enumeration(table, [2.0]) == [pytest.approx(0.1)]


class TestBoundsOnGrid:
    def test_kinds_and_shapes(self):
        fspec = sum_of(D.Exponential(1.0), 4)
        grid = [0.5, 1.0, 2.0]
        out = V.bounds_on_grid(fspec, ["thm2", "bounded-difference"], grid)
        assert set(out) == {"thm2", "bounded-difference"}
        assert [r.t for r in out["thm2"]] == grid
        assert all(math.isfinite(r.log_prob) for r in out["thm2"])
        # exponential coordinates have unbounded range
        assert all(r.prob == 1.0 and "inapplicable" in r.note
                   for r in out["bounded-difference"])

    def test_thm3_requires_p(self):
        fspec = sum_of(D.Rademacher(), 2)
        out = V.bounds_on_grid(fspec, ["thm3"], [1.0], p=2.0)
        assert out["thm3"][0].kind == "thm3"


class TestCheckBounds:
    def test_sound_exact(self):
        r = FiniteSupport([-1.0, 1.0], [0.5, 0.5])
        f = np.add.outer([-1.0, 1.0], [-1.0, 1.0])
        table = ProductTable([r, r], f)
        grid = [0.5, 1.0, 1.9]
        tails = V.exact_tail_enumeration(table, grid)
        bounds = V.bounds_on_grid(sum_of(D.Rademacher(), 2), ["thm1", "thm2"], grid)
        report = V.check_bounds(tails, bounds)
        assert report.verdict == "SOUND"
        assert [row["verdict"] for row in report.rows] == ["SOUND"] * 3
        assert report.to_dict()["rows"][0]["t"] == 0.5

    def test_falsified_violation(self):
        # one Rademacher at t = 1/2: exact tail 1/2 beats the halved bound
        fspec = sum_of(D.Rademacher(), 1)
        grid = [0.5]
        bounds = V.falsified_bounds(V.bounds_on_grid(fspec, ["thm2"], grid))
        assert set(bounds) == {"thm2-falsified"}
        assert bounds["thm2-falsified"][0].prob < 0.5
        report = V.check_bounds([0.5], bounds)
        assert report.verdict == "VIOLATION"

    def test_mc_sound(self):
        fspec = sum_of(D.Exponential(1.0), 10)
        grid = list(np.linspace(1.0, 20.0, 8))
        est = V.estimate_tail(fspec, grid, 10 ** 5, seed=13)
        bounds = V.bounds_on_grid(fspec, ["thm2"], grid)
        assert V.check_bounds(est, bounds).verdict == "SOUND"

    def test_misaligned_inputs(self):
        fspec = sum_of(D.Rademacher(), 1)
        bounds = V.bounds_on_grid(fspec, ["thm2"], [0.5, 1.0])
        other = V.bounds_on_grid(fspec, ["thm1"], [0.5, 1.5])
        with pytest.raises(ValueError, match="^bound grids misaligned between thm2 and thm1$"):
            V.check_bounds([0.5, 0.0], {**bounds, **other})
        with pytest.raises(ValueError, match="^exact tail list does not match bound grid$"):
            V.check_bounds([0.5], bounds)
        with pytest.raises(ValueError, match="^exceedance count exceeds sample count$"):
            V.TailEstimate(t_grid=(1.0,), exceed_counts=(11,), n_samples=10, mean_value=0.0,
                           mean_half_width=0.0, cp_level=0.999, seed=0)

    def test_grid_mismatch(self):
        fspec = sum_of(D.Rademacher(), 1)
        est = V.estimate_tail(fspec, [0.5], 10 ** 4, seed=0)
        bounds = V.bounds_on_grid(fspec, ["thm2"], [0.7])
        with pytest.raises(ValueError, match="grid"):
            V.check_bounds(est, bounds)
        with pytest.raises(ValueError, match="no bounds"):
            V.check_bounds(est, {})


def nan_bounds(t_grid, at=1):
    """thm2 results with a NaN probability at t_grid[at]."""
    return {"thm2": [TailBoundResult("thm2", t, math.nan if i == at else 0.5, math.log(0.5))
                     for i, t in enumerate(t_grid)]}


class TestNanBound:
    # lo > NaN is False, so a NaN bound used to read SOUND
    def test_estimate(self):
        est = V.estimate_tail(sum_of(D.Rademacher(), 1), [0.5, 1.5], 10 ** 4, seed=0)
        with pytest.raises(ValueError, match=r"^bound thm2 is NaN at t=1\.5$"):
            V.check_bounds(est, nan_bounds([0.5, 1.5]))

    def test_exact_list(self):
        with pytest.raises(ValueError, match=r"^bound thm2 is NaN at t=0\.5$"):
            V.check_bounds([0.5, 0.0], nan_bounds([0.5, 1.5], at=0))

    def test_compare(self, monkeypatch):
        monkeypatch.setattr(V, "bounds_on_grid", lambda *args, **kwargs: nan_bounds([0.5, 1.5]))
        with pytest.raises(ValueError, match=r"^bound thm2 is NaN at t=1\.5$"):
            V.compare_bounds(sum_of(D.Rademacher(), 1), ["thm2"], [0.5, 1.5], 10 ** 4, seed=0)


class TestCompareBounds:
    def test_ratios_and_verdict(self):
        fspec = sum_of(D.Exponential(1.0), 5)
        grid = [2.0, 5.0, 40.0]
        report = V.compare_bounds(fspec, ["thm2", "bounded-difference"], grid,
                                  5 * 10 ** 4, seed=17)
        assert report.verdict == "SOUND"
        assert all(set(row["ratios_log10"]) == {"thm2", "bounded-difference"}
                   for row in report.rows)
        # slack is positive where exceedances were seen, inf where none
        r2 = [row["ratios_log10"]["thm2"] for row in report.rows]
        assert r2[0] > 0
        assert r2[-1] == math.inf
        # the baseline is vacuous here, the new bound is not
        assert [row["bounds"]["bounded-difference"] for row in report.rows] == [1.0, 1.0, 1.0]
        assert report.rows[1]["bounds"]["thm2"] < 1.0

    def test_thm1_wins_at_large_t_for_gaussians(self):
        fspec = sum_of(D.Gaussian(0.0, 1.0), 5)
        grid = [200.0]
        out = V.bounds_on_grid(fspec, ["thm1", "thm2"], grid)
        assert out["thm1"][0].log_prob < out["thm2"][0].log_prob

    def test_thm3_wins_when_moments_small(self):
        # Rademacher 2p-norms are 1 while 2e psi1 is much larger
        fspec = sum_of(D.Rademacher(), 6)
        grid = [0.5]
        out = V.bounds_on_grid(fspec, ["thm2", "thm3"], grid, p=2.0)
        assert out["thm3"][0].prob < out["thm2"][0].prob


class TestReportRows:
    def test_the_rows_are_the_only_per_threshold_data(self):
        fspec = sum_of(D.Exponential(1.0), 3)
        report = V.compare_bounds(fspec, ["thm2", "bounded-difference"], [1.0, 4.0],
                                  10 ** 4, seed=19)
        assert [f.name for f in dataclasses.fields(report)] == [
            "kinds", "rows", "verdict", "cp_level", "n_samples", "seed", "mean_value",
            "mean_half_width"]
        assert report.to_dict()["rows"] == list(report.rows)
        assert list(report.rows[0]) == ["t", "empirical", "cp_lower", "cp_upper", "bounds",
                                        "verdict", "ratios_log10"]
        # one CSV line per row, each number its repr
        lines = V.report_to_csv(report).strip().split("\n")[1:]
        for line, row in zip(lines, report.rows, strict=True):
            cells = [row["t"], row["empirical"], row["cp_lower"], row["cp_upper"],
                     *row["bounds"].values(), *row["ratios_log10"].values()]
            assert line == ",".join(map(repr, cells)) + "," + row["verdict"]


class TestCsv:
    def test_layout_and_determinism(self):
        fspec = sum_of(D.Exponential(1.0), 3)
        grid = [1.0, 4.0]
        kwargs = dict(kinds=["thm2"], t_grid=grid, n_samples=10 ** 4, seed=19)
        a = V.report_to_csv(V.compare_bounds(fspec, **kwargs))
        b = V.report_to_csv(V.compare_bounds(fspec, **kwargs, threads=4))
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == "t,empirical,cp_lo,cp_hi,thm2,ratio_log10_thm2,verdict"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1.0" and first[-1] == "SOUND"
        # floats round-trip exactly through repr
        assert float(first[4]) == V.compare_bounds(fspec, **kwargs).rows[0]["bounds"]["thm2"]
