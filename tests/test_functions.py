import math

import numpy as np
import pytest

from lighttails import distributions as D
from lighttails import functions as F
from lighttails import orlicz as O

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

CATALOGUE = [
    sum_of(D.Exponential(1.0), 5),
    F.VectorNormOfSum(gauss_vec(3), 8),
    SUP_LOSS,
    PSA,
    METRIC,
]


class TestEval:
    def test_sum(self):
        assert F.eval_f(sum_of(D.Rademacher(), 3), [1.0, 2.0, 3.0]) == 6.0

    def test_vector_norm_zero(self):
        fspec = F.VectorNormOfSum(gauss_vec(3), 4)
        assert F.eval_f(fspec, np.zeros((4, 3))) == 0.0

    def test_psa_perfect_reconstruction(self):
        x = np.array([1.0, 2.0, 0.0, 0.0])
        u = x / np.linalg.norm(x)
        p = np.outer(u, u) + np.outer([0, 0, 1, 0], [0, 0, 1, 0])
        assert F.HSOperatorView.reconstruction_error(p, x) == pytest.approx(0.0, abs=1e-12)

    def test_metric(self):
        x = np.array([0.5, -0.25, 0.1, -1.0])
        want = 2.0 * (0.5 - 0.25 + math.sin(0.1) + 1.0)
        assert F.eval_f(METRIC, x) == pytest.approx(want, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            F.eval_f(sum_of(D.Rademacher(), 3), np.zeros((5, 4)))

    @pytest.mark.parametrize("fspec", CATALOGUE, ids=lambda f: f.kind)
    def test_single_point_is_batch_of_one(self, fspec):
        pts = F.sample_points(fspec, seed=9, count=3)
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

    def test_singleton_sup_reduces_to_mean_loss(self):
        w = (0.5, -1.0)
        single = F.SupLinearLoss([w], "absolute", gauss_vec(2),
                                 D.Gaussian(0.0, 1.0), n=10)
        pts = F.sample_points(single, seed=4, count=300)
        got = F.eval_f(single, pts)
        resid = pts[:, :, :2] @ np.asarray(w) - pts[:, :, 2]
        mu = F._sup_loss_means(single)[0]
        want = np.abs(resid).mean(axis=1) - mu
        assert np.allclose(got, want, atol=1e-12)


def old_style_points(fspec, rng, count):
    """Base points drawn as before coordinate-major buffers: coordinate by
    coordinate into a C-order (count,) + point_shape batch."""
    if isinstance(fspec, F._ScalarCoordinates):
        return np.column_stack([c.draw(rng, count) for c in fspec.laws])
    vec = fspec.input if isinstance(fspec, F.SupLinearLoss) else fspec.coordinate
    out = np.empty((count, fspec.n, vec.dim))
    for i in range(fspec.n):
        for j, comp in enumerate(vec.components):
            out[:, i, j] = comp.draw(rng, count)
    if isinstance(fspec, F.SupLinearLoss):
        zs = np.stack([fspec.output.draw(rng, count) for _ in range(fspec.n)], axis=1)
        out = np.concatenate([out, zs[:, :, None]], axis=2)
    return out


def old_style_values(fspec, points):
    """f on a C-order batch, summed by numpy as before coordinate-major
    buffers; the other kinds evaluate C-order batches as they did."""
    if isinstance(fspec, F.SumFunction):
        return points.sum(axis=1)
    if isinstance(fspec, F.VectorNormOfSum):
        s = points.sum(axis=1)
        if fspec.centered:
            s = s - fspec.n * np.array([D.mean(c) for c in fspec.vec.components])
        return np.linalg.norm(s, axis=1)
    return fspec.evaluate(points)


LAYOUT_CASES = CATALOGUE + [
    sum_of(D.Exponential(1.0), 10),       # numpy sums 8 or more terms pairwise
    F.SumFunction([D.UniformInterval(0.0, k + 1.0) for k in range(130)]),
    F.VectorNormOfSum(D.VectorSpec(1, [D.Exponential(2.0)]), 12, centered=True),
    F.VectorNormOfSum(D.VectorSpec(9, [D.UniformInterval(-1.0, k + 1.0)
                                       for k in range(9)]), 5),
    F.SupLinearLoss([(0.3, -0.4)], "huber", D.VectorSpec(
        2, [D.UniformInterval(-1.0, 1.0), D.Gaussian(0.0, 1.0)]),
        D.Exponential(1.0), n=9, huber_kappa=0.5),
]


class TestCoordinateMajorDraws:
    @pytest.mark.parametrize("fspec", LAYOUT_CASES, ids=lambda f: f.kind)
    def test_points_and_values_match_old_layout(self, fspec):
        pts = F.sample_points(fspec, seed=17, count=2000, stream=3)
        ref = old_style_points(fspec, D._rng(17, 3), 2000)
        assert np.array_equal(pts, ref)
        # one contiguous run per coordinate, and no copy of the buffer
        assert np.moveaxis(pts, 0, -1).flags.c_contiguous
        assert np.array_equal(F.sample_f(fspec, seed=17, count=2000, stream=3),
                              old_style_values(fspec, ref))

    @pytest.mark.parametrize("fspec", LAYOUT_CASES, ids=lambda f: f.kind)
    def test_evaluate_leaves_points_unchanged(self, fspec):
        pts = F.sample_points(fspec, seed=5, count=500)
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

    def test_coordinate_sum_is_numpy_c_order_sum(self):
        # every branch of numpy's pairwise order: below 8, up to 128, split
        rng = np.random.default_rng(3)
        for n in list(range(1, 140)) + [300, 1000]:
            batch = rng.standard_normal((64, n)) * rng.exponential(size=n) * 1e3
            got = F._coordinate_sum(np.asfortranarray(batch))
            assert got.tobytes() == batch.sum(axis=1).tobytes(), n

    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_coordinate_sum_of_vectors(self, dim):
        rng = np.random.default_rng(dim)
        batch = rng.standard_normal((64, 11, dim)) * 1e3
        coordinate_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(batch, 0, -1)), -1, 0)
        assert F._coordinate_sum(coordinate_major).tobytes() == batch.sum(axis=1).tobytes()


class TestConditionalVersions:
    def test_sum_independent_of_base_point(self):
        fspec = sum_of(D.Exponential(1.0), 4)
        a = F.conditional_version_samples(fspec, 2, np.zeros(4), seed=5, count=1000)
        b = F.conditional_version_samples(fspec, 2, np.full(4, 9.0), seed=5, count=1000)
        assert np.allclose(a, b, atol=1e-12)

    def test_constant_function(self):
        fspec = sum_of(D.FiniteSupport((2.0,), (1.0,)), 3)
        out = F.conditional_version_samples(fspec, 0, np.full(3, 2.0), seed=6, count=100)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_near_zero_mean(self):
        for fspec in CATALOGUE:
            x = F.sample_points(fspec, seed=50, count=1)[0]
            vals = F.conditional_version_samples(fspec, 0, x, seed=51, count=20000)
            se = vals.std(ddof=1) / math.sqrt(len(vals)) + 1e-4
            assert abs(vals.mean()) <= 6 * se

    def test_vector_norm_triangle_domination(self):
        fspec = F.VectorNormOfSum(gauss_vec(3), 5)
        x = F.sample_points(fspec, seed=60, count=1)[0]
        count = 4000
        vals = F.conditional_version_samples(fspec, 1, x, seed=61, count=count)
        draws = fspec.draw_coordinate(1, D._rng(61, 0), count)
        resample_mc = fspec.draw_coordinate(1, D._rng(62, 0), 20000)
        cond_dist = np.array([np.linalg.norm(d - resample_mc, axis=1).mean()
                              for d in draws])
        assert np.all(np.abs(vals) <= cond_dist + 0.05)

    def test_point_shape_checked(self):
        for fspec in CATALOGUE:
            x = F.sample_points(fspec, seed=52, count=1)[0]
            with pytest.raises(ValueError, match="shape"):
                F.conditional_version_samples(fspec, 0, x[:-1], seed=53, count=10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            F.conditional_version_samples(sum_of(D.Rademacher(), 2), 5,
                                          np.zeros(2), seed=1, count=10)


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


class TestProxyProfile:
    def test_sum_of_rademacher(self):
        prof = F.proxy_profile(sum_of(D.Rademacher(), 4))
        assert np.allclose(prof.psi1_per_coord, 1.0, atol=1e-10)
        assert np.allclose(prof.psi2_per_coord, 1.0, atol=1e-10)
        assert prof.ranges == (2.0,) * 4

    def test_vector_norm_iid_entries(self):
        fspec = F.VectorNormOfSum(gauss_vec(3), 7)
        prof = F.proxy_profile(fspec)
        want = 2.0 * F.vector_norm_psi(gauss_vec(3), 1).value
        assert np.allclose(prof.psi1_per_coord, want, rtol=1e-12)
        assert len(set(prof.psi1_per_coord)) == 1

    def test_psa_entry(self):
        prof = F.proxy_profile(PSA)
        psi2 = F.vector_norm_psi(PSA.input, 2).value
        want = (2.0 / PSA.n) * (math.sqrt(2) + 1.0) * 2.0 * psi2 ** 2
        assert prof.psi1_per_coord[0] == pytest.approx(want, rel=1e-12)

    def test_metric_uses_diameters(self):
        from lighttails.applications import psi_diameter
        prof = F.proxy_profile(METRIC)
        for entry, spec in zip(prof.psi1_per_coord, METRIC.coordinate_dists):
            assert entry == pytest.approx(2.0 * psi_diameter(spec, 1).value, rel=1e-12)

    def test_vector_psi2_failure_propagates(self, monkeypatch):
        real = F.vector_norm_psi

        def failing_psi2(vec, alpha):
            if alpha == 2:
                raise D.QuadratureError("no convergence")
            return real(vec, alpha)
        monkeypatch.setattr(F, "vector_norm_psi", failing_psi2)
        with pytest.raises(D.QuadratureError):
            F.proxy_profile(F.VectorNormOfSum(gauss_vec(3), 4))

    def test_vector_psi2_dropped_when_p_max_too_small(self, monkeypatch):
        real = F.vector_norm_psi

        def no_psi2(vec, alpha):
            if alpha == 2:
                raise O.PMaxTooSmallError("still increasing")
            return real(vec, alpha)
        monkeypatch.setattr(F, "vector_norm_psi", no_psi2)
        assert F.proxy_profile(F.VectorNormOfSum(gauss_vec(3), 4)).psi2_per_coord is None

    def test_thm3_entries(self):
        prof = F.proxy_profile(sum_of(D.Exponential(1.0), 3), p=2.0)
        want = D.lp_norm(D.Centered(D.Exponential(1.0)), 4.0)
        assert np.allclose(prof.l2p_per_coord, want, atol=1e-10)
        assert prof.l2p_order == 2.0

    def test_empirical_psi_below_proxy(self):
        for fspec in CATALOGUE:
            prof = F.proxy_profile(fspec)
            x = F.sample_points(fspec, seed=70, count=1)[0]
            for k in (0, fspec.n - 1):
                vals = F.conditional_version_samples(fspec, k, x, seed=71 + k,
                                                     count=5000)
                with pytest.warns(UserWarning):
                    emp = O.psi_norm_empirical(vals, 1, p_max=8.0).value
                assert emp <= prof.psi1_per_coord[k] * (1 + 1e-6) + 0.05


class TestHilbertSchmidt:
    def test_identities(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.normal(size=4)
            q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
            p = q @ q.T
            qx = F.HSOperatorView.q_matrix(x)
            assert F.HSOperatorView.hs_norm(qx) == pytest.approx(x @ x, rel=1e-10)
            assert F.HSOperatorView.hs_inner(p, qx) == pytest.approx(
                np.linalg.norm(p @ x) ** 2, rel=1e-9, abs=1e-12)
            err = F.HSOperatorView.reconstruction_error(p, x)
            assert err == pytest.approx(
                F.HSOperatorView.hs_norm(qx) - F.HSOperatorView.hs_inner(p, qx),
                abs=1e-10)

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
            fspec = F.SupLinearLoss([(1.0,)], loss, gauss_vec(1),
                                    D.Gaussian(0, 1), n=2, huber_kappa=0.7)
            dl = np.abs(F._loss_values(fspec, u) - F._loss_values(fspec, v))
            assert np.all(dl <= np.abs(u - v) + 1e-12)

    def test_sup_loss_coordinate_lipschitz(self):
        rng = np.random.default_rng(16)
        lip = SUP_LOSS.lipschitz
        pts = F.sample_points(SUP_LOSS, seed=8, count=50)
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
        val, half = F.expectation(METRIC, budget=10 ** 4)
        assert half > 0
        ref, _ = F.expectation(METRIC, budget=10 ** 5)
        assert abs(val - ref) < 4 * half


class TestSerialization:
    def test_roundtrip(self):
        for fspec in CATALOGUE:
            d = F.fspec_to_dict(fspec)
            assert F.fspec_from_dict(d) == fspec

    def test_projections_from_seed(self):
        d = {"kind": "psa_reconstruction", "ambient_dim": 4, "subspace_dim": 2,
             "net_size": 5, "net_seed": 13,
             "input": D.spec_to_dict(gauss_vec(4)), "n": 30}
        assert F.fspec_from_dict(d) == PSA

    def test_unknown_kind(self):
        with pytest.raises(D.SpecError):
            F.fspec_from_dict({"kind": "mystery"})
