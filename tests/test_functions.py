import contextlib
import functools
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import exact
from adaptive import adaptive_log_moment
from lighttails import bounds as B
from lighttails import cli
from lighttails import distributions as D
from lighttails import functions as F
from lighttails import orlicz as O
from lighttails import verify as V

E = math.e


def gauss_vec(dim, sd=1.0):
    return D.VectorSpec(dim, tuple(D.Gaussian(0.0, sd) for _ in range(dim)))


def sum_of(spec, n):
    return F.SumFunction([spec] * n)


SUP_LOSS = F.SupLinearLoss(
    weights=[(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)], loss="absolute",
    input=gauss_vec(2), output=D.Gaussian(0.0, 1.0), n=25)

PSA = F.PsaReconstruction(
    4, 2, F.random_projections(4, 2, 5, seed=13), gauss_vec(4), 30)

METRIC = F.MetricLipschitz(
    2.0, [D.UniformInterval(0.0, 1.0)] * 3 + [D.Rademacher()],
    ["abs", "identity", "sin", "abs"])
# METRIC with no closed-form mean: sin of a squared uniform has none
METRIC_MC = F.MetricLipschitz(
    2.0, [D.UniformInterval(0.0, 1.0)] * 2 + [D.SquareOf(D.UniformInterval(0.0, 1.0)), D.Rademacher()],
    ["abs", "identity", "sin", "abs"])

CATALOGUE = [
    sum_of(D.Exponential(1.0), 5),
    F.VectorNormOfSum(gauss_vec(3), 8),
    SUP_LOSS,
    PSA,
    METRIC,
]


def finite(values, weights):
    return D.FiniteSupport(values, np.asarray(weights) / math.fsum(weights))


# discretised laws: an exponential, a Gaussian, a skewed two-point law and
# a uniform one
EXP4 = finite([0.5, 1.5, 2.5, 3.5], np.exp(-np.arange(4.0)))
GAUSS3 = finite([-1.5, 0.0, 1.5], [1.0, 2.0, 1.0])
SKEW = finite([-0.2, 1.8], [9.0, 1.0])
UNIF3 = finite([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
FINITE_VEC = D.VectorSpec(2, [GAUSS3, SKEW])

# every kind on finite laws, small enough to tabulate
EXACT_CASES = {
    "sum": F.SumFunction([EXP4, GAUSS3, SKEW]),
    "vector_norm_of_sum": F.VectorNormOfSum(FINITE_VEC, 3),
    "vector_norm_of_sum-centered": F.VectorNormOfSum(FINITE_VEC, 3, centered=True),
    "metric_lipschitz": F.MetricLipschitz(1.5, [UNIF3, GAUSS3, SKEW], ["abs", "sin", "identity"]),
    "sup_linear_loss": F.SupLinearLoss([(1.0, 0.0), (0.6, -0.8)], "huber",
                                       D.VectorSpec(2, [GAUSS3, UNIF3]), SKEW, n=3,
                                       huber_kappa=0.5),
    "psa_reconstruction": F.PsaReconstruction(3, 1, F.random_projections(3, 1, 4, seed=5),
                                              D.VectorSpec(3, [GAUSS3, SKEW, UNIF3]), 2),
}
PROFILE_ENTRIES = ("psi1_per_coord", "psi2_per_coord", "l2p_per_coord", "ranges")


def coordinate_laws(fspec):
    return fspec.laws if isinstance(fspec, F._ScalarCoordinates) else [fspec.coordinate] * fspec.n


def per_coordinate(prof, name):
    """The entry `name` of prof expanded to one value per coordinate."""
    return np.repeat(getattr(prof, name), prof.counts)


class TestEval:
    def test_sum(self):
        assert F.eval_f(sum_of(D.Rademacher(), 3), [1.0, 2.0, 3.0]) == 6.0

    def test_vector_norm_zero(self):
        fspec = F.VectorNormOfSum(gauss_vec(3), 4)
        assert F.eval_f(fspec, np.zeros((4, 3))) == 0.0

    def test_metric(self):
        x = np.array([0.5, -0.25, 0.1, -1.0])
        want = 2.0 * (0.5 - 0.25 + math.sin(0.1) + 1.0)
        assert F.eval_f(METRIC, x) == pytest.approx(want, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            F.eval_f(sum_of(D.Rademacher(), 3), np.zeros((5, 4)))

    @pytest.mark.parametrize("fspec", CATALOGUE, ids=lambda f: f.kind)
    def test_single_point_is_batch_of_one(self, fspec):
        pts = fspec.draw(D._rng(9, 0), 3)
        assert pts.shape == (3,) + fspec.point_shape
        batch = F.eval_f(fspec, pts[:1])
        assert batch.shape == (1,) and F.eval_f(fspec, pts[0]) == batch[0]
        wrong = np.zeros((2,) + fspec.point_shape[:-1] + (fspec.point_shape[-1] + 1,))
        with pytest.raises(ValueError, match="shape"):
            F.eval_f(fspec, wrong)


class TestSampling:
    def test_deterministic(self):
        for fspec in CATALOGUE:
            a = F.sample_f(fspec, seed=21, count=200)
            b = F.sample_f(fspec, seed=21, count=200)
            assert np.array_equal(a, b)

    def test_rademacher_sum_mean(self):
        vals = F.sample_f(sum_of(D.Rademacher(), 6), seed=2, count=10 ** 5)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean()) <= 5 * se

    def test_folded_normal(self):
        fspec = F.VectorNormOfSum(gauss_vec(1), 4)
        vals = F.sample_f(fspec, seed=3, count=10 ** 5)
        want = 2.0 * math.sqrt(2.0 / math.pi)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - want) <= 5 * se

    @pytest.mark.parametrize("centered", [False, True])
    def test_summed_draw_has_the_law_of_f(self, centered):
        comps = [D.Rademacher(), D.Centered(D.Exponential(1.0)), D.Poisson(0.7),
                 D.Shifted(D.ChiSquared(1), -0.5), D.Gaussian(0.3, 2.0)]
        fspec = F.VectorNormOfSum(D.VectorSpec(5, comps), 6, centered=centered)
        assert fspec.sampler_layout == "summed"
        count = 20000
        summed = fspec.sample(D._rng(31, 0), count)
        per_coordinate = F.FunctionSpec.sample(fspec, D._rng(32, 0), count)
        assert stats.ks_2samp(summed, per_coordinate).pvalue > 1e-3
        # E f^2 = sum over components of n var + (n mean - offset)^2
        n = fspec.n
        want = math.fsum(n * D.abs_moment(D.Centered(c), 2)
                         + (0.0 if centered else n * D.mean(c)) ** 2 for c in comps)
        sq = summed ** 2
        assert abs(sq.mean() - want) <= 5 * sq.std(ddof=1) / math.sqrt(count)

    @pytest.mark.parametrize("comp", [
        D.Exponential(1.3), D.Poisson(0.7), D.Centered(D.Gaussian(0.3, 2.0)), D.Rademacher()],
        ids=repr)
    def test_summed_iid_sum_has_the_law_of_f(self, comp):
        fspec = sum_of(comp, 6)
        assert fspec.sampler_layout == "summed"
        count = 20000
        summed = fspec.sample(D._rng(31, 0), count)
        per_coordinate = fspec.evaluate(fspec.draw(D._rng(32, 0), count))
        assert stats.ks_2samp(summed, per_coordinate).pvalue > 1e-3
        want = 6 * D.mean(comp)
        assert abs(summed.mean() - want) <= 5 * summed.std(ddof=1) / math.sqrt(count)

    @pytest.mark.parametrize("fspec", [
        sum_of(D.Gaussian(0.0, 1e308), 10),
        F.VectorNormOfSum(D.VectorSpec(1, [D.Gaussian(0.0, 1e308)]), 10)], ids=lambda f: f.kind)
    def test_overflowing_sum_law_keeps_per_coordinate_draws(self, fspec):
        # N(0, 10 sd^2) has no finite sd, so there is no sum law to draw
        assert fspec.sampler_layout == "per-coordinate"
        with np.errstate(over="ignore", invalid="ignore"):
            got = F.sample_f(fspec, seed=1, count=100)
            want = fspec.evaluate(fspec.draw(D._rng(1, 0), 100))
        assert np.array_equal(got, want, equal_nan=True)

    def test_singleton_sup_reduces_to_mean_loss(self):
        w = (0.5, -1.0)
        single = F.SupLinearLoss([w], "absolute", gauss_vec(2),
                                 D.Gaussian(0.0, 1.0), n=10)
        pts = single.draw(D._rng(4, 0), 300)
        got = F.eval_f(single, pts)
        resid = pts[:, :, :2] @ np.asarray(w) - pts[:, :, 2]
        mu = F._sup_loss_means(single)[0]
        want = np.abs(resid).mean(axis=1) - mu
        assert np.allclose(got, want, atol=1e-12)


def old_style_points(fspec, rng, count):
    """Base points drawn as before coordinate-major buffers: coordinate by
    coordinate into a C-order (count,) + point_shape batch.  A loss point
    (x_i, z_i) is drawn whole, z_i after x_i."""
    if isinstance(fspec, F._ScalarCoordinates):
        return np.column_stack([c.draw(rng, count) for c in fspec.laws])
    vec = fspec.coordinate
    out = np.empty((count, fspec.n, vec.dim))
    for i in range(fspec.n):
        for j, comp in enumerate(vec.components):
            out[:, i, j] = comp.draw(rng, count)
    return out


def sequential_sum(points):
    """The sum over axis 1: from +0.0, one whole column after another."""
    return functools.reduce(np.add, np.moveaxis(points, 1, 0), 0.0)


# the losses of sup_linear_loss on whole arrays, by (residuals, huber_kappa)
OLD_LOSSES = {
    "absolute": lambda resid, kappa: np.abs(resid),
    "hinge": lambda resid, kappa: np.maximum(0.0, 1.0 - resid),
    "huber": lambda resid, kappa: np.where(np.abs(resid) <= kappa, 0.5 * np.abs(resid) * np.abs(resid),
                                           kappa * (np.abs(resid) - 0.5 * kappa)),
}
# the kinds whose fold adds in another order than their whole-point formulas
REFOLDED = (F.SupLinearLoss, F.PsaReconstruction)


def old_style_values(fspec, points):
    """f on a C-order batch, its sums and squared norms added column after
    column; the loss and PSA kinds by their whole-point formulas: the
    losses of the residuals `xs @ w - zs` averaged over the coordinates, and
    the reconstruction errors ||x||^2 - x^T P x averaged by `einsum`;
    metric_lipschitz by its own `evaluate`."""
    points = np.ascontiguousarray(points)
    if isinstance(fspec, F.SumFunction):
        return sequential_sum(points)
    if isinstance(fspec, F.VectorNormOfSum):
        s = sequential_sum(points)
        if fspec.centered:
            s = s - fspec.n * np.array([D.mean(c) for c in fspec.vec.components])
        return np.sqrt(sequential_sum(s * s))
    if isinstance(fspec, F.SupLinearLoss):
        d = fspec.input.dim
        xs, zs = points[:, :, :d], points[:, :, d]
        return functools.reduce(np.maximum, (
            OLD_LOSSES[fspec.loss](xs @ np.asarray(w) - zs, fspec.huber_kappa).mean(axis=1) - mu
            for w, mu in zip(fspec.weights, F._sup_loss_means(fspec))))
    if isinstance(fspec, F.PsaReconstruction):
        sq = np.einsum("bij,bij->bi", points, points)
        comps = fspec.input.components
        second = np.outer(*[[D.mean(c) for c in comps]] * 2)
        np.fill_diagonal(second, [D.abs_moment(c, 2) for c in comps])
        e_sq = float(np.trace(second))
        return functools.reduce(np.maximum, (
            e_sq - float(np.sum(p * second))
            - (sq - np.einsum("bij,jk,bik->bi", points, p, points)).mean(axis=1)
            for p in fspec.projection_arrays()))
    return fspec.evaluate(points)


def assert_old_style(fspec, got, want):
    """got equals want bit for bit, or, for a refolded kind, to 1e-14 of
    the largest |f| of the batch."""
    if isinstance(fspec, REFOLDED):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert np.array_equal(got, want)


def layout_values(fspec, rng, count):
    """(layout, f as that layout draws it), or ("per-coordinate", None).  The
    chi layout draws Chi(dim, sqrt(n) sd) where every component's canonical
    form is one N(0, sd^2).  The summed layout writes out each component's
    sum law: N(n mean, n sd^2), Gamma(n, rate) as chi-squared with 2n
    degrees of freedom over 2 rate, and Poisson(n rate); a sum is summed
    only for n >= 2 equal components."""
    def sum_draw(c, n):
        if isinstance(c, D.Gaussian):
            return rng.normal(n * c.mean, math.sqrt(n) * c.sd, count)
        if isinstance(c, D.Exponential):
            return 1.0 / (2.0 * c.rate) * rng.chisquare(2 * n, count)
        if isinstance(c, D.Poisson):
            return rng.poisson(n * c.rate, count).astype(float)
        return None

    if isinstance(fspec, F.SumFunction):
        comps = fspec.components
        iid = fspec.n > 1 and all(c == comps[0] for c in comps)
        drawn = sum_draw(comps[0], fspec.n) if iid else None
        return ("per-coordinate" if drawn is None else "summed"), drawn
    if not isinstance(fspec, F.VectorNormOfSum):
        return "per-coordinate", None
    n, laws = fspec.n, fspec.vec.components
    forms = {D.canonical(D.Centered(c) if fspec.centered else c) for c in laws}
    form = forms.pop() if len(forms) == 1 else None
    if isinstance(form, D.Gaussian) and form.mean == 0.0:
        return "chi", D.Chi(len(laws), math.sqrt(n) * form.sd).draw(rng, count)
    if not all(isinstance(c, (D.Gaussian, D.Exponential)) for c in laws):
        return "per-coordinate", None
    s = np.column_stack([sum_draw(c, n) for c in laws])
    if fspec.centered:
        s = s - n * np.array([D.mean(c) for c in laws])
    return "summed", np.linalg.norm(s, axis=1)


LAYOUT_CASES = CATALOGUE + [
    sum_of(D.Exponential(1.0), 10),
    sum_of(D.Gaussian(0.3, 2.0), 6),
    sum_of(D.Poisson(0.7), 4),
    # per-coordinate sums: n = 1, unequal components (8 or more terms, which
    # numpy's own sum would add pairwise), and a law without a sum law
    sum_of(D.Exponential(1.0), 1),
    sum_of(D.Rademacher(), 1),
    F.SumFunction([D.Exponential(1.0)] * 9 + [D.Scaled(D.ChiSquared(2), 0.5)]),
    F.SumFunction([D.Gaussian(0.0, 1.0)] * 8 + [D.Gaussian(0.0, 2.0)]),
    sum_of(D.UniformInterval(-1.0, 2.0), 5),
    F.SumFunction([D.UniformInterval(0.0, k + 1.0) for k in range(130)]),
    F.VectorNormOfSum(D.VectorSpec(1, [D.Exponential(2.0)]), 12, centered=True),
    F.VectorNormOfSum(D.VectorSpec(9, [D.UniformInterval(-1.0, k + 1.0)
                                       for k in range(9)]), 5),
    # one component without a sum law keeps the whole vector per coordinate
    F.VectorNormOfSum(D.VectorSpec(2, [D.Gaussian(0.0, 1.0),
                                       D.UniformInterval(0.0, 1.0)]), 4),
    # chi laws, as written and through wrappers; a nonzero mean is summed
    # unless the sum is centered
    F.VectorNormOfSum(D.VectorSpec(2, [D.Centered(D.Gaussian(2.0, 1.5))] * 2), 7,
                      centered=True),
    F.VectorNormOfSum(D.VectorSpec(4, [D.Scaled(D.Gaussian(0.0, 0.5), -3.0)] * 4), 3),
    F.VectorNormOfSum(D.VectorSpec(3, [D.Gaussian(0.5, 1.5)] * 3), 6),
    F.VectorNormOfSum(D.VectorSpec(3, [D.Gaussian(0.5, 1.5), D.Gaussian(-2.0, 1.5),
                                       D.Gaussian(0.0, 1.5)]), 6, centered=True),
    F.SupLinearLoss([(0.3, -0.4)], "huber", D.VectorSpec(
        2, [D.UniformInterval(-1.0, 1.0), D.Gaussian(0.0, 1.0)]),
        D.Exponential(1.0), n=9, huber_kappa=0.5),
    F.SupLinearLoss([(0.3, -0.4, 1.2), (-1.0, 0.25, 0.5)], "hinge", D.VectorSpec(
        3, [D.UniformInterval(-1.0, 1.0), D.Gaussian(0.0, 1.0), D.Poisson(2.0)]),
        D.Gaussian(0.5, 1.0), n=7),
    F.PsaReconstruction(1, 1, [[[1.0]]], D.VectorSpec(1, [D.Exponential(1.0)]), 6),
    F.PsaReconstruction(5, 3, F.random_projections(5, 3, 4, seed=2), D.VectorSpec(
        5, [D.Gaussian(0.5, 1.0), D.UniformInterval(-1.0, 2.0), D.Rademacher(),
            D.Exponential(2.0), D.Gaussian()]), 11),
    # the folded kinds: each map, on plain and wrapped laws, and a centered
    # vector whose entries have no sum law
    METRIC_MC,
    F.MetricLipschitz(0.5, [D.Gaussian(), D.Exponential(1.0), D.UniformInterval(0.0, 3.0)],
                      ["sin", "identity", "sin"]),
    F.MetricLipschitz(1.5, [D.Centered(D.Exponential(2.0)), D.SquareOf(D.Gaussian(0.3, 1.0)),
                            D.Rademacher(), D.Poisson(2.0), D.Scaled(D.Gaussian(), -2.0)],
                      ["abs", "identity", "sin", "abs", "identity"]),
    F.VectorNormOfSum(D.VectorSpec(3, [D.UniformInterval(-1.0, 1.0), D.Rademacher(),
                                       D.Gaussian(0.5, 1.0)]), 7, centered=True),
]


class TestCoordinateMajorDraws:
    @pytest.mark.parametrize("fspec", LAYOUT_CASES, ids=lambda f: f.kind)
    def test_points_and_values_match_old_layout(self, fspec):
        pts = fspec.draw(D._rng(17, 3), 2000)
        ref = old_style_points(fspec, D._rng(17, 3), 2000)
        assert np.array_equal(pts, ref)
        # one contiguous run per coordinate, and no copy of the buffer
        assert np.moveaxis(pts, 0, -1).flags.c_contiguous
        # values: f of those points, or the summed or chi draw from the
        # same stream
        # the fold over drawn entries gives the bits of the fold over the
        # batch, which match the old formulas
        layout, drawn = layout_values(fspec, D._rng(17, 3), 2000)
        assert fspec.sampler_layout == layout
        want = drawn
        if drawn is None:
            want = F.eval_f(fspec, pts)
            assert_old_style(fspec, want, old_style_values(fspec, ref))
        assert np.array_equal(F.sample_f(fspec, seed=17, count=2000, stream=3), want)
        # so do arrays of NaN, as no value is read before it is written, and
        # arrays kept from a longer draw, as a verify worker keeps them
        work = np.full((fspec.work_rows, 2500), np.nan)
        assert np.array_equal(F.sample_f(fspec, seed=17, count=2000, stream=3, work=work), want)
        F.sample_f(fspec, seed=4, count=2500, work=work)
        assert np.array_equal(F.sample_f(fspec, seed=17, count=2000, stream=3, work=work), want)

    @pytest.mark.parametrize("fspec", LAYOUT_CASES, ids=lambda f: f.kind)
    def test_evaluate_leaves_points_unchanged(self, fspec):
        pts = fspec.draw(D._rng(5, 0), 500)
        before = pts.copy()
        fspec.evaluate(pts)
        assert np.array_equal(pts, before)

    def test_vector_spec_draw(self):
        vec = D.VectorSpec(3, [D.Gaussian(1.0, 2.0), D.Poisson(3.0),
                               D.Centered(D.Exponential(1.0))])
        got = D.sample(vec, seed=8, count=1000, stream=2)
        rng = D._rng(8, 2)
        assert np.array_equal(got, np.column_stack([c.draw(rng, 1000)
                                                    for c in vec.components]))

    @pytest.mark.parametrize("dim", [None, 1, 3, 9], ids=["scalar", "dim1", "dim3", "dim9"])
    def test_coordinate_sum_is_layout_invariant(self, dim):
        # the fold over C-order, Fortran-order and coordinate-major copies of
        # one batch gives the bytes of sums added column after column, and
        # of their norms; n spans the sizes at which numpy's own sum changes
        # its order (8, 128)
        rng = np.random.default_rng(3)
        for n in list(range(1, 140)) + [300, 1000]:
            shape = (64, n) if dim is None else (64, n, dim)
            batch = rng.standard_normal(shape) * rng.exponential(size=shape[1:]) * 1e3
            coordinate_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(batch, 0, -1)), -1, 0)
            fspec = (sum_of(D.Gaussian(), n) if dim is None
                     else F.VectorNormOfSum(gauss_vec(dim), n))
            want = old_style_values(fspec, batch).tobytes()
            for copy in (batch, np.asfortranarray(batch), coordinate_major):
                assert F.eval_f(fspec, copy).tobytes() == want, n
        if dim is not None:
            # so does the norm of vector_norm_of_sum, over the squared entries
            # of its (dim, count) sums
            vec = D.VectorSpec(dim, [D.Gaussian(0.0, 1.0)] * dim)
            sums = batch[:, 0]
            want = np.sqrt(sequential_sum(sums * sums)).tobytes()
            for copy in (np.ascontiguousarray(sums.T), np.asfortranarray(sums.T)):
                assert F.VectorNormOfSum(vec, 2)._of_sum(copy, np.empty((1, 64))).tobytes() == want


class TestConditionalVersions:
    """f_k = f - E_k f read exactly, cell by cell, off tabulated f."""

    def test_sum_independent_of_base_point(self):
        # f_k of a sum is centered coordinate k at every base point, so the
        # proxies of a sum are the exact worst case, not only above it
        fspec = EXACT_CASES["sum"]
        table = exact.tabulate(fspec, fspec.laws)
        for k, law in enumerate(fspec.laws):
            rows, _ = exact.conditional_versions(table, k)
            assert np.allclose(rows, np.asarray(law.values) - D.mean(law), rtol=0.0, atol=1e-12)
        prof = F.proxy_profile(fspec, p=2)
        want = exact.worst_case_profile(table, 2.0)
        for name in PROFILE_ENTRIES:
            assert per_coordinate(prof, name) == pytest.approx(getattr(want, name), rel=1e-9), name

    def test_constant_function(self):
        fspec = sum_of(D.FiniteSupport((2.0,), (1.0,)), 3)
        table = exact.tabulate(fspec, fspec.laws)
        assert table.f_table.tolist() == [[[6.0]]]
        want = exact.worst_case_profile(table, 2.0)
        prof = F.proxy_profile(fspec, p=2)
        for name in PROFILE_ENTRIES:
            assert getattr(want, name) == tuple(per_coordinate(prof, name)) == (0.0,) * 3, name

    def test_vector_norm_triangle_domination(self):
        # |f_k(x)| <= E' ||x_k - X'|| in every cell
        points, probs = exact.product_law(FINITE_VEC.components)
        reach = np.linalg.norm(points[:, None] - points[None], axis=-1) @ probs
        for centered in (False, True):
            fspec = F.VectorNormOfSum(FINITE_VEC, 3, centered=centered)
            table = exact.tabulate(fspec, coordinate_laws(fspec))
            for k in range(fspec.n):
                rows, _ = exact.conditional_versions(table, k)
                assert np.all(np.abs(rows) <= reach + 1e-12)
                assert np.max(np.abs(rows)) > 0.5


class TestGaussianVectorForms:
    """A centered Gaussian law gets the exact chi-law values however the
    spec writes it."""

    @pytest.mark.parametrize("comp", [D.Centered(D.Gaussian(2.0, 1.0)),
                                      D.Scaled(D.Gaussian(0.0, 1.0), -1.0)],
                             ids=["centered", "scaled"])
    def test_matches_plain_gaussian(self, comp):
        vec = D.VectorSpec(3, (comp,) * 3)
        assert F.vector_norm_psi(vec, 1).value == F.vector_norm_psi(gauss_vec(3), 1).value
        assert F.vector_norm_psi(vec, 1).method == "analytic-grid"
        assert F.vector_norm_lp(vec, 4) == F.vector_norm_lp(gauss_vec(3), 4)
        assert (F.expectation(F.VectorNormOfSum(vec, 6))
                == F.expectation(F.VectorNormOfSum(gauss_vec(3), 6)))
        assert F.expectation(F.VectorNormOfSum(vec, 6))[1] == 0.0
        # and the draws of the chi law of f
        for centered in (False, True):
            fspec = F.VectorNormOfSum(vec, 6, centered=centered)
            assert fspec.sampler_layout == "chi"
            assert np.array_equal(F.sample_f(fspec, seed=3, count=1000),
                                  F.sample_f(F.VectorNormOfSum(gauss_vec(3), 6), seed=3, count=1000))


    def test_centered_nonzero_mean_reads_the_chi_law(self):
        # ||sum_i (X_i - mu)|| over N(mu, sd^2) entries is Chi(dim, sqrt(n) sd)
        fspec = F.VectorNormOfSum(D.VectorSpec(3, [D.Gaussian(0.3, 1.0)] * 3), 8, centered=True)
        assert fspec.sampler_layout == "chi"
        want = math.sqrt(8) * D.abs_moment(D.Chi(3, 1.0), 1)
        assert fspec.closed_form_mean() == want
        assert F.expectation(fspec) == (want, 0.0)
        est = V.estimate_tail(fspec, [1.0, 2.0], 10 ** 4, seed=1)
        assert (est.mean_value, est.mean_half_width) == (want, 0.0)
        assert np.array_equal(F.sample_f(fspec, seed=3, count=1000),
                              F.sample_f(F.VectorNormOfSum(gauss_vec(3), 8), seed=3, count=1000))
        # uncentered, the sum keeps its mean: summed, with no closed-form mean
        plain = F.VectorNormOfSum(fspec.vec, 8)
        assert plain.sampler_layout == "summed" and plain.closed_form_mean() is None


def chi_log_moments(dim, sd, ps):
    """ln E[(sd chi_dim)^p] for every p of ps, by the trapezoid rule on the
    density of scipy.stats.chi: an oracle that does not use the gamma
    function form of the chi moments."""
    x = np.linspace(0.0, sd * (math.sqrt(ps.max() + dim) + 12.0), 8001)
    with np.errstate(divide="ignore"):
        log_x, log_pdf = np.log(x), stats.chi.logpdf(x, dim, scale=sd)
    out = []
    for chunk in np.array_split(ps, 400):
        t = chunk[:, None] * log_x + log_pdf
        m = t.max(axis=1)
        out.append(m + np.log(np.sum(np.exp(t - m[:, None]), axis=1) * x[1]))
    return np.concatenate(out)


class TestChiLaw:
    """The norms of ||X|| for iid centered Gaussian X read the chi law
    through psi_norm and lp_norm; checked against scipy.stats.chi on the
    10^4-point dense grid of criterion 1."""
    PS = np.exp(np.linspace(0.0, math.log(256.0), 10 ** 4))

    @pytest.mark.parametrize("dim, sd", [(2, 1.0), (5, 1.7), (40, 0.3)])
    def test_norms_match_scipy_chi(self, dim, sd):
        vec = gauss_vec(dim, sd)
        lm = chi_log_moments(dim, sd, self.PS)
        for alpha in (1, 2):
            oracle = float(np.max(np.exp(lm / self.PS - np.log(self.PS) / alpha)))
            got = F.vector_norm_psi(vec, alpha).value
            assert got == pytest.approx(oracle, rel=1e-6)
            assert got >= oracle * (1.0 - 1e-9)
        for p, m in list(zip(self.PS, lm))[::997]:
            assert F.vector_norm_lp(vec, p) == pytest.approx(math.exp(m / p), rel=1e-9)
        for k in range(1, 9):
            # scipy integrates the moments of order 5 and up, to about 1e-10
            want = stats.chi.moment(k, dim, scale=sd) ** (1.0 / k)
            assert F.vector_norm_lp(vec, k) == pytest.approx(want, rel=1e-10)
        assert F.expectation(F.VectorNormOfSum(vec, 4))[0] == pytest.approx(
            2.0 * stats.chi.mean(dim, scale=sd), rel=1e-12)

    def test_second_call_is_a_memo_hit(self):
        vec = gauss_vec(3, 1.37)
        F.vector_norm_psi(vec, 1)
        before = dict(D._law_counts)
        F.vector_norm_psi(vec, 1)
        assert (D._law_counts["hits"], D._law_counts["searches"]) == (
            before["hits"] + 1, before["searches"])


class TestProxyProfile:
    def test_thm3_poisson_2p_norm_reads_the_whole_series(self):
        # ||X - 50||_100 of Poisson(50) is 52.21; a Poisson series that
        # stopped at a term only below its left-hand mode gave 45.82
        prof = F.proxy_profile(F.SumFunction([D.Poisson(50.0)]), p=50, kinds=["thm3"])
        want = math.exp(adaptive_log_moment(D.Centered(D.Poisson(50.0)), 100) / 100)
        assert prof.l2p_per_coord[0] == pytest.approx(want, rel=1e-12)

    def test_sum_of_rademacher(self):
        prof = F.proxy_profile(sum_of(D.Rademacher(), 4))
        assert np.allclose(prof.psi1_per_coord, 1.0, atol=1e-10)
        assert np.allclose(prof.psi2_per_coord, 1.0, atol=1e-10)
        # four equal coordinates are one run
        assert prof.counts == (4,) and prof.ranges == (2.0,)
        assert per_coordinate(prof, "ranges").tolist() == [2.0] * 4

    def test_vector_norm_iid_entries(self):
        fspec = F.VectorNormOfSum(gauss_vec(3), 7)
        prof = F.proxy_profile(fspec)
        want = 2.0 * F.vector_norm_psi(gauss_vec(3), 1).value
        assert prof.counts == (7,) and len(prof.psi1_per_coord) == 1
        assert np.allclose(prof.psi1_per_coord, want, rtol=1e-12)

    @pytest.mark.parametrize("fspec", CATALOGUE, ids=[f.kind for f in CATALOGUE])
    def test_an_iid_vector_kind_is_one_run(self, fspec):
        # one run of n for an iid vector kind; one run per run of equal
        # consecutive laws for a scalar kind
        prof = F.proxy_profile(fspec, kinds=["thm2", "bounded-difference"])
        vector = isinstance(fspec, F._VectorCoordinates)
        runs = (fspec.n,) if vector else tuple(len(list(g)) for _, g in itertools.groupby(fspec.laws))
        assert prof.counts == runs and sum(prof.counts) == fspec.n
        assert len(prof.psi1_per_coord) == len(prof.ranges) == len(prof.counts)

    def test_psa_entry(self):
        prof = F.proxy_profile(PSA)
        psi2 = F.vector_norm_psi(PSA.input, 2).value
        want = (2.0 / PSA.n) * (math.sqrt(2) + 1.0) * 2.0 * psi2 ** 2
        assert prof.psi1_per_coord[0] == pytest.approx(want, rel=1e-12)

    def test_metric_uses_diameters(self):
        from lighttails.applications import psi_diameter
        prof = F.proxy_profile(METRIC)
        for entry, spec in zip(per_coordinate(prof, "psi1_per_coord"), METRIC.coordinate_dists):
            assert entry == pytest.approx(2.0 * psi_diameter(spec, 1).value, rel=1e-12)

    def test_vector_psi2_failure_propagates(self, monkeypatch):
        real = F.vector_norm_psi

        def failing_psi2(vec, alpha):
            if alpha == 2:
                raise D.QuadratureError("no convergence")
            return real(vec, alpha)
        monkeypatch.setattr(F, "vector_norm_psi", failing_psi2)
        F._kind_profile.cache_clear()       # a memoised profile reads no norm
        with pytest.raises(D.QuadratureError):
            F.proxy_profile(F.VectorNormOfSum(gauss_vec(3), 4))

    def test_vector_psi2_dropped_when_it_is_infinite(self, monkeypatch):
        real = F.vector_norm_psi

        def no_psi2(vec, alpha):
            if alpha == 2:
                raise O.NotSubGaussianError("the psi2 norm of ||X|| is infinite")
            return real(vec, alpha)
        monkeypatch.setattr(F, "vector_norm_psi", no_psi2)
        F._kind_profile.cache_clear()
        assert F.proxy_profile(F.VectorNormOfSum(gauss_vec(3), 4)).psi2_per_coord is None
        with pytest.raises(F.NotSubGaussianError,
                           match=r"^coordinate 0: the psi2 norm of \|\|X\|\| is infinite$"):
            F.proxy_profile(F.VectorNormOfSum(gauss_vec(3), 4), kinds=["thm1"])

    def test_psi2_kind_names_the_coordinate_without_a_psi2_norm(self):
        fspec = F.SumFunction([D.Gaussian(0.0, 1.0), D.Exponential(2.0)])
        with pytest.raises(F.NotSubGaussianError, match=r"^coordinate 1: the psi2 norm of Centered"
                           r"\(base=Exponential\(rate=2.0\)\) is infinite: Exponential laws"):
            F.proxy_profile(fspec, kinds=["thm2", "thm1"])
        assert F.proxy_profile(fspec, kinds=["thm2"]).psi2_per_coord is None
        assert F.proxy_profile(fspec).psi2_per_coord is None

    def test_zero_scale_times_an_unbounded_width_is_zero(self):
        # lip 0 and an all-zero weight net used to give nan ranges, and a nan
        # bounded-difference bound
        metric = F.MetricLipschitz(0.0, [D.Exponential(1.0), D.Rademacher()], ["abs", "sin"])
        assert F.proxy_profile(metric).ranges == (0.0, 0.0)
        sll = F.SupLinearLoss([(0.0, 0.0)], "absolute", gauss_vec(2),
                              D.UniformInterval(0.0, 2.0), n=4)
        assert F.proxy_profile(sll).ranges == (0.5,)

    def test_an_infinite_psi1_is_not_retried_without_psi2(self):
        # proxy_profile drops only a psi2 norm that is infinite
        fspec = F.SumFunction([D.Poisson(1.5), D.SquareOf(D.Exponential(1.0))])
        for kinds in (None, ["thm2"]):
            with pytest.raises(O.NotSubExponentialError, match=r"^coordinate 1: the psi1 norm of "
                               r"Centered\(base=SquareOf\(base=Exponential\(rate=1.0\)\)\) is "
                               r"infinite: Exponential laws have finite psi norms only up to "
                               r"alpha = 1, and 1 square step\(s\) halve that to 0.5$"):
                F.proxy_profile(fspec, kinds=kinds)

    def test_the_chi_squared_1_template_is_certified(self):
        # the bench template sum:poisson+chi-squared-1 was refused: its psi1
        # norms now read the tail bound past p = 256
        fspec = F.SumFunction([D.Poisson(1.5), D.Scaled(D.ChiSquared(1), 1.1)])
        psi1 = F.proxy_profile(fspec, kinds=["thm2"]).psi1_per_coord
        assert psi1 == tuple(O.psi_norm(D.Centered(c), 1).value for c in fspec.components)

    @pytest.mark.parametrize("p, names", [
        (None, ("psi1_per_coord", "ranges")), (None, ("psi2_per_coord",)),
        (2.0, ("psi1_per_coord", "l2p_per_coord")), (2.0, PROFILE_ENTRIES)],
        ids=["psi1-ranges", "psi2", "psi1-l2p", "all"])
    @pytest.mark.parametrize("fspec", CATALOGUE, ids=[f.kind for f in CATALOGUE])
    def test_memoised_profile_equals_a_fresh_one(self, fspec, p, names):
        # the memo is keyed on (fspec, p, entries): a hit is the profile a
        # fresh build gives, and an error (an entry the kind has not, or the
        # psi2 norm of the exponential sum) is raised alike on every call
        names = frozenset(names)
        try:
            fresh = F._kind_profile.__wrapped__(fspec, p, names)
        except ValueError as exc:
            for _ in range(2):
                with pytest.raises(type(exc)) as info:
                    F._kind_profile(fspec, p, names)
                assert str(info.value) == str(exc)
            return
        memo = F._kind_profile(fspec, p, names)
        assert memo == fresh and F._kind_profile(fspec, p, names) is memo
        assert {name for name in PROFILE_ENTRIES if getattr(memo, name) is not None} == names
        # an int p is the same key, and the p of a profile without 2p-norms
        # is no part of the key
        if p is not None:
            assert F.proxy_profile(fspec, p=2) == F.proxy_profile(fspec, p=2.0)
        assert F.proxy_profile(fspec, p=2.0, kinds=["bounded-difference"]) is \
            F.proxy_profile(fspec, kinds=["bounded-difference"])

    @pytest.mark.parametrize("fspec", CATALOGUE, ids=[f.kind for f in CATALOGUE])
    def test_a_profile_holds_exactly_its_kinds_rows(self, fspec):
        served = 0
        for r in range(1, len(B.BOUND_KINDS) + 1):
            for kinds in itertools.combinations(B.BOUND_KINDS, r):
                want = frozenset().union(*(B.READS[k] for k in kinds))
                try:
                    prof = F.proxy_profile(fspec, p=2.0, kinds=kinds)
                except ValueError:
                    # only a psi2 norm or an entry the kind has not fails here
                    assert want & {"psi2_per_coord", "l2p_per_coord"}
                    continue
                served += 1
                assert {name for name in PROFILE_ENTRIES if getattr(prof, name) is not None} == want
                assert (prof.l2p_order is None) == ("l2p_per_coord" not in want)
        # the thm2 and bounded-difference kind sets serve every kind
        assert served >= 3

    def test_an_unknown_kind_is_a_value_error_that_names_it(self):
        with pytest.raises(ValueError, match="^unknown bound kind 'thm9'; known: "):
            F.proxy_profile(CATALOGUE[0], kinds=["thm2", "thm9"])

    def test_an_infinite_profile_fails_alike_twice(self):
        # errors are not memoised
        fspec = F.fspec_from_dict({"kind": "sum", "components": [
            {"kind": "poisson", "rate": 1.5},
            {"kind": "square_of", "base": {"kind": "poisson", "rate": 2.0}}]})
        messages = []
        for _ in range(2):
            with pytest.raises(O.NotSubExponentialError) as info:
                F.proxy_profile(fspec, kinds=["thm2"])
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("coordinate 1: the psi1 norm of Centered(base=SquareOf(")

    def test_psa_needs_a_sub_gaussian_norm(self):
        fspec = F.PsaReconstruction(2, 1, [((1.0, 0.0), (0.0, 0.0))],
                                    D.VectorSpec(2, [D.Gaussian(0.0, 1.0), D.Exponential(1.0)]), 5)
        # ||X|| >= |X_2|, whose psi2 norm is infinite
        with pytest.raises(F.NotSubGaussianError, match=r"^input: the psi2 norm of Exponential"
                           r"\(rate=1.0\) is infinite: Exponential laws have finite psi norms "
                           r"only up to alpha = 1$"):
            F.proxy_profile(fspec)

    def test_thm3_entries(self):
        prof = F.proxy_profile(sum_of(D.Exponential(1.0), 3), p=2.0)
        want = D.lp_norm(D.Centered(D.Exponential(1.0)), 4.0)
        assert np.allclose(prof.l2p_per_coord, want, atol=1e-10)
        assert prof.l2p_order == 2.0

    @pytest.mark.parametrize("fspec", EXACT_CASES.values(), ids=EXACT_CASES.keys())
    def test_proxies_dominate_the_exact_profile(self, fspec):
        # each proxy entry against the worst case over base points of f_k,
        # enumerated on the product of the finite coordinate laws
        want = exact.worst_case_profile(exact.tabulate(fspec, coordinate_laws(fspec)), 2.0)
        prof = F.proxy_profile(fspec, p=2)
        kinds_with_moments = ("sum", "vector_norm_of_sum")
        checked = [name for name in PROFILE_ENTRIES if getattr(prof, name) is not None]
        assert checked == list(PROFILE_ENTRIES if fspec.kind in kinds_with_moments
                               else ("psi1_per_coord", "ranges"))
        assert min(want.psi1_per_coord) > 0
        for name in checked:
            got, exact_entries = per_coordinate(prof, name), np.array(getattr(want, name))
            assert got.shape == (fspec.n,)
            assert np.all(got >= exact_entries * (1.0 - 1e-9)), (name, got, exact_entries)


class TestHilbertSchmidt:
    def test_projection_validation(self):
        with pytest.raises(ValueError, match="idempotent|symmetric"):
            F.PsaReconstruction(3, 1, [np.eye(3) * 0.5], gauss_vec(3), 5)
        with pytest.raises(ValueError, match="trace"):
            F.PsaReconstruction(3, 2, [np.eye(3)], gauss_vec(3), 5)


class TestLipschitzProbes:
    def test_losses_one_lipschitz(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(-4, 4, 500)
        v = rng.uniform(-4, 4, 500)
        for loss in ("absolute", "hinge", "huber"):
            lu, lv = (F._LOSSES[loss](x.copy(), np.empty_like(x), 0.7) for x in (u, v))
            dl = np.abs(lu - lv)
            assert np.all(dl <= np.abs(u - v) + 1e-12)

    def test_sup_loss_coordinate_lipschitz(self):
        rng = np.random.default_rng(16)
        lip = SUP_LOSS.lipschitz
        pts = SUP_LOSS.draw(D._rng(8, 0), 50)
        for _ in range(50):
            i = int(rng.integers(50))
            k = int(rng.integers(SUP_LOSS.n))
            other = pts[i].copy()
            other[k, :2] += rng.normal(size=2)
            other[k, 2] += rng.normal()
            dx = np.linalg.norm(other[k, :2] - pts[i][k, :2])
            dz = abs(other[k, 2] - pts[i][k, 2])
            df = abs(F.eval_f(SUP_LOSS, other) - F.eval_f(SUP_LOSS, pts[i]))
            assert df <= (lip * dx + dz) / SUP_LOSS.n + 1e-10

    def test_metric_lipschitz(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x, y = rng.uniform(-2, 2, (2, 4))
            df = abs(F.eval_f(METRIC, x) - F.eval_f(METRIC, y))
            assert df <= METRIC.lip * np.abs(x - y).sum() + 1e-12


class TestExpectation:
    def test_sum_exact(self):
        assert F.expectation(sum_of(D.Exponential(1.0), 10)) == (10.0, 0.0)

    def test_constant(self):
        val, half = F.expectation(sum_of(D.FiniteSupport((1.5,), (1.0,)), 2))
        assert val == 3.0 and half == 0.0

    def test_folded_normal_closed_form(self):
        val, half = F.expectation(F.VectorNormOfSum(gauss_vec(1), 4))
        assert half == 0.0
        assert val == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_mc_with_half_width(self):
        assert METRIC_MC.closed_form_mean() is None
        val, half = F.expectation(METRIC_MC)
        assert half > 0
        ref = F.sample_f(METRIC_MC, seed=1, count=10 ** 6).mean()
        assert abs(val - ref) < 4 * half


class TestMetricLipschitzMean:
    @pytest.mark.parametrize("name, law", [
        ("identity", D.Exponential(1.5)),
        ("abs", D.Gaussian(0.7, 1.3)),
        ("abs", D.Gaussian(-0.4, 0.5)),
        ("abs", D.UniformInterval(-1.0, 2.0)),
        ("abs", D.Centered(D.UniformInterval(0.0, 1.0))),
        ("abs", D.FiniteSupport((-1.0, 0.5, 2.0), (0.3, 0.5, 0.2))),
        ("abs", D.Exponential(2.0)),
        ("abs", D.Scaled(D.Poisson(2.0), -1.5)),
        ("sin", D.Gaussian(0.7, 1.3)),
        ("sin", D.Exponential(2.0)),
        ("sin", D.UniformInterval(-1.0, 2.5)),
        ("sin", D.Poisson(3.5)),
        ("sin", D.Rademacher()),
        ("sin", D.Shifted(D.Gaussian(0.0, 2.0), 1.0)),
    ], ids=str)
    def test_matches_monte_carlo(self, name, law):
        mean = F.MetricLipschitz(1.0, [law], [name]).closed_form_mean()
        vals = F._LIPSCHITZ_MAPS[name](D.sample(law, seed=21, count=10 ** 6))
        assert abs(mean - vals.mean()) <= 5.0 * vals.std(ddof=1) / 10 ** 3

    @pytest.mark.parametrize("name", sorted(F._LIPSCHITZ_MAPS))
    def test_finite_laws_match_the_table(self, name):
        laws = [EXP4, GAUSS3, SKEW, UNIF3, finite([-2.0, -0.5], [1.0, 3.0])]
        fspec = F.MetricLipschitz(1.5, laws, [name] * len(laws))
        table = exact.tabulate(fspec, laws)
        want = math.fsum((table.joint_probs() * table.f_table).ravel())
        assert fspec.closed_form_mean() == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name, law, want", [
        ("abs", D.Gaussian(1.0, 1e-200), 1.0),
        ("sin", D.Gaussian(0.3, 1e200), 0.0),
        ("sin", D.Exponential(1e200), 1e-200),
        ("abs", D.UniformInterval(-1e200, 3e200), 1.25e200),
    ], ids=str)
    def test_extreme_parameters_do_not_overflow(self, name, law, want):
        # a float ** that overflows raises OverflowError
        mean = F.MetricLipschitz(1.0, [law], [name]).closed_form_mean()
        assert mean == pytest.approx(want, rel=1e-15)

    def test_bench_spec_is_exact(self):
        fspec = F.MetricLipschitz(
            1.0, [D.Gaussian(0.0, 1.0), D.UniformInterval(0.0, 1.0), D.Exponential(1.0)],
            ["sin", "abs", "identity"])
        assert fspec.closed_form_mean() == 1.5
        est = V.estimate_tail(fspec, [0.5, 1.0], 10 ** 4, seed=1)
        assert (est.mean_value, est.mean_half_width) == (1.5, 0.0)

    @pytest.mark.parametrize("name, law", [
        ("sin", D.SquareOf(D.UniformInterval(0.0, 1.0))),
        ("sin", D.ChiSquared(3)),
        ("abs", D.Centered(D.Exponential(1.0))),
    ], ids=str)
    def test_no_closed_form_keeps_monte_carlo(self, name, law):
        fspec = F.MetricLipschitz(1.0, [D.Gaussian(), law], ["sin", name])
        assert fspec.closed_form_mean() is None
        assert F.expectation(fspec)[1] > 0


GAUSS_D = {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
VEC2_D = {"kind": "vector", "dim": 2, "components": [GAUSS_D, GAUSS_D]}
P01 = [[1.0, 0.0], [0.0, 0.0]]
SLL_D = {"kind": "sup_linear_loss", "weights": [[1.0, 0.0]], "loss": "absolute",
         "input": VEC2_D, "output": GAUSS_D, "n": 5}
PSA_D = {"kind": "psa_reconstruction", "ambient_dim": 2, "subspace_dim": 1,
         "projections": [P01], "input": VEC2_D, "n": 5}
SEEDED_D = {**{k: v for k, v in PSA_D.items() if k != "projections"},
            "net_size": 2, "net_seed": 1}
METRIC_D = {"kind": "metric_lipschitz", "lip": 1.0, "coordinate_dists": [GAUSS_D],
            "maps": ["abs"]}


class TestSpecChecks:
    @pytest.mark.parametrize("d, message", [
        ({**SLL_D, "loss": "square"}, '"$": unknown loss \'square\''),
        ({**SLL_D, "loss": "huber", "huber_kappa": 1.5},
         '"$": huber_kappa must lie in (0,1], got 1.5'),
        ({**SLL_D, "weights": []}, '"$": weight net must be nonempty'),
        ({**SLL_D, "weights": [[1.0, 0.0, 0.0]]},
         '"$": weights entries must have length 2, got 3'),
        ({**PSA_D, "ambient_dim": 3}, '"$": input has dim 2, expected ambient_dim=3'),
        ({**PSA_D, "projections": []}, '"$": projection net must be nonempty'),
        ({**PSA_D, "projections": [P01, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]]},
         '"$": projections[1] has shape (3, 2), expected (2, 2)'),
        ({**PSA_D, "projections": [P01, [[0.5, 0.0], [0.0, 0.5]]]},
         '"$": projections[1] must be symmetric and idempotent'),
        ({**PSA_D, "projections": [P01, [[1.0, 0.0], [0.0, 1.0]]]},
         '"$": projections[1] has trace 2.0, expected subspace_dim 1'),
        ({**SEEDED_D, "subspace_dim": 3}, '"$": subspace_dim 3 exceeds ambient_dim 2'),
        ({k: v for k, v in SEEDED_D.items() if k != "net_seed"},
         '"$": kind \'psa_reconstruction\' needs projections, or net_size and net_seed'),
        ({**SEEDED_D, "input": GAUSS_D}, '"$.input": expected a vector spec of dim 2'),
        ({**SEEDED_D, "net_size": 250001},
         '"$.net_size": net_size * ambient_dim^2 must be <= 10^6, got 250001 * 2^2 = 1000004'),
        ({**METRIC_D, "maps": ["abs", "sin"]},
         '"$": maps and coordinate_dists must have equal length'),
        ({**METRIC_D, "maps": ["cos"]}, '"$": unknown coordinate map \'cos\''),
        (VEC2_D, '"$": a vector spec is not a function spec'),
    ])
    def test_names_the_field(self, d, message):
        with pytest.raises(D.SpecError) as info:
            F.fspec_from_dict(d)
        assert str(info.value) == message

    def test_call_arguments(self):
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            F.sample_f(METRIC, seed=0, count=0)


class TestSerialization:
    def test_roundtrip(self):
        for fspec in CATALOGUE:
            d = D.spec_to_dict(fspec)
            assert F.fspec_from_dict(d) == fspec

    def test_a_net_at_the_cap_is_drawn(self, monkeypatch):
        # 250000 members of 2^2 entries; one is kept, to skip the QRs
        sizes = []
        monkeypatch.setattr(F, "random_projections",
                            lambda dim, sub, size, seed: sizes.append(size) or [P01])
        F.fspec_from_dict({**SEEDED_D, "net_size": F.MAX_NET_ENTRIES // 4})
        assert sizes == [250000]

    def test_projections_from_seed(self):
        d = {"kind": "psa_reconstruction", "ambient_dim": 4, "subspace_dim": 2,
             "net_size": 5, "net_seed": 13,
             "input": D.spec_to_dict(gauss_vec(4)), "n": 30}
        assert F.fspec_from_dict(d) == PSA

    def test_unknown_kind(self):
        with pytest.raises(D.SpecError):
            F.fspec_from_dict({"kind": "mystery"})


# a small pool, so that drawn coordinate lists repeat and interleave laws
_RUN_LAWS = [D.Gaussian(0.3, 1.2), D.Exponential(1.5), D.UniformInterval(-1.0, 2.0),
             D.FiniteSupport((-1.0, 0.5, 2.0), (0.25, 0.5, 0.25)), D.Rademacher()]
_RUN_COORDINATES = st.lists(st.tuples(st.integers(0, len(_RUN_LAWS) - 1),
                                      st.sampled_from(sorted(F._LIPSCHITZ_MAPS))),
                            min_size=1, max_size=8)


class TestRuns:
    """A scalar kind reads one law per run of equal consecutive laws: its
    grouped profile, expanded by its counts, is the profile of one entry
    per coordinate, and every bound kind reads the same (a, b, lift) bits
    and prints the same bound and invert output from either."""

    @staticmethod
    def fspec(coordinates, metric):
        laws = [_RUN_LAWS[i] for i, _ in coordinates]
        if metric:
            return F.MetricLipschitz(1.25, laws, [m for _, m in coordinates])
        return F.SumFunction(laws)

    @staticmethod
    def per_coordinate(fspec, grouped, p):
        """The profile of one run per coordinate, each entry read from the
        one-coordinate spec of its law."""
        if isinstance(fspec, F.MetricLipschitz):
            singles = [F.MetricLipschitz(fspec.lip, [c], [m])
                       for c, m in zip(fspec.coordinate_dists, fspec.maps)]
        else:
            singles = [F.SumFunction([c]) for c in fspec.components]
        profiles = [F.proxy_profile(s, p=p) for s in singles]
        rows = {name: [getattr(prof, name)[0] for prof in profiles]
                for name in B.ENTRIES if getattr(grouped, name) is not None}
        return B.ProxyProfile(counts=(1,) * fspec.n, l2p_order=grouped.l2p_order, **rows)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_RUN_COORDINATES, st.booleans())
    @example([(0, "abs"), (0, "sin"), (2, "abs"), (0, "identity"), (2, "sin"), (2, "abs")], False)
    @example([(3, "abs"), (1, "sin"), (1, "sin"), (3, "identity"), (4, "abs")], True)
    def test_runs_expand_to_the_per_coordinate_profile(self, tmp_path_factory, coordinates, metric):
        fspec = self.fspec(coordinates, metric)
        p = None if metric else 2.0
        grouped = F.proxy_profile(fspec, p=p)
        runs = tuple(len(list(g)) for _, g in itertools.groupby(fspec.laws))
        assert grouped.counts == runs
        ref = self.per_coordinate(fspec, grouped, p)
        for name in B.ENTRIES:
            if getattr(grouped, name) is not None:
                assert per_coordinate(grouped, name).tolist() == list(getattr(ref, name)), name
        kinds = [k for k, row in B.READS.items() if all(getattr(grouped, e) is not None for e in row)]
        for kind in kinds:
            assert B._exponent(kind, grouped, p) == B._exponent(kind, ref, p), kind
        path = tmp_path_factory.mktemp("runs") / "spec.json"
        path.write_text(json.dumps({"schema": 1, "spec": D.spec_to_dict(fspec)}))
        p_args = ["--p", "2"] if p else []
        for argv in (["bound", "--spec", str(path), "--bounds", ",".join(kinds),
                      "--t-grid", "0.5:12:6", *p_args],
                     ["invert", "--spec", str(path), "--bounds", ",".join(kinds),
                      "--delta", "0.01", *p_args]):
            outs = []
            for profile in (None, ref):
                out = io.StringIO()
                with contextlib.ExitStack() as stack:
                    if profile is not None:     # every profile read is the per-coordinate one
                        stack.enter_context(mock.patch.object(F, "proxy_profile",
                                                              lambda *args, **kw: profile))
                    stack.enter_context(contextlib.redirect_stdout(out))
                    assert cli.main(argv) == 0
                outs.append(out.getvalue())
            assert outs[0] == outs[1], argv
