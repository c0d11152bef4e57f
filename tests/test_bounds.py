import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lighttails import bounds as B

E = math.e


def profile(psi1=None, psi2=None, l2p=None, p=None, ranges=None, n=None):
    entries = psi1 or psi2 or l2p or ranges
    n = n or len(entries)
    return B.ProxyProfile(n=n, psi1_per_coord=psi1, psi2_per_coord=psi2,
                          l2p_per_coord=l2p, l2p_order=p, ranges=ranges)


class TestProxyProfile:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            B.ProxyProfile(n=3, psi1_per_coord=[1.0, 1.0])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            B.ProxyProfile(n=1, psi1_per_coord=[-1.0])

    def test_l2p_needs_order(self):
        with pytest.raises(ValueError, match="l2p_order"):
            B.ProxyProfile(n=1, l2p_per_coord=[1.0])

    def test_derived(self):
        prof = profile(psi1=[3.0, 4.0])
        assert prof.v1 == pytest.approx(25.0)
        assert prof.m1 == 4.0


class TestThm1:
    def test_rademacher_sum_form(self):
        for n in (1, 5, 20):
            prof = profile(psi2=[1.0] * n)
            r = B.evaluate_tail("thm1", prof, 2.0)
            assert r.prob == pytest.approx(math.exp(-4.0 / (32 * E * n)), rel=1e-12)

    def test_t_to_zero(self):
        prof = profile(psi2=[1.0])
        assert B.evaluate_tail("thm1", prof, 1e-12).prob == pytest.approx(1.0)

    def test_value(self):
        r = B.evaluate_tail("thm1", profile(psi2=[1.0]), 1.0)
        assert r.prob == pytest.approx(math.exp(-1 / (32 * E)), rel=1e-13)
        assert r.prob == pytest.approx(0.98857, abs=5e-6)

    def test_degenerate(self):
        r = B.evaluate_tail("thm1", profile(psi2=[0.0, 0.0]), 1.0)
        assert r.prob == 0.0 and "degenerate" in r.note


class TestThm2:
    def test_value(self):
        r = B.evaluate_tail("thm2", profile(psi1=[1.0]), 1.0)
        assert r.prob == pytest.approx(math.exp(-1 / (4 * E ** 2 + 2 * E)), rel=1e-13)
        assert r.prob == pytest.approx(0.9718, abs=5e-5)

    def test_large_t_subexponential_regime(self):
        prof = profile(psi1=[1.0, 2.0])
        for t in (1e4, 1e6):
            r = B.evaluate_tail("thm2", prof, t)
            assert r.log_prob * (2 * E * prof.m1) / t == pytest.approx(-1.0, abs=1e-2)

    def test_small_t_subgaussian_regime(self):
        prof = profile(psi1=[1.0, 2.0])
        for t in (1e-3, 1e-5):
            r = B.evaluate_tail("thm2", prof, t)
            assert r.log_prob * (4 * E ** 2 * prof.v1) / t ** 2 == pytest.approx(-1.0, abs=1e-3)

    def test_centered_exponential_substitution(self):
        r = B.evaluate_tail("thm2", profile(psi1=[2.0]), 3.0)
        assert r.prob == pytest.approx(math.exp(-9.0 / (16 * E ** 2 + 12 * E)), rel=1e-12)


class TestThm3:
    def test_value(self):
        prof = profile(l2p=[1.0], p=2.0, psi1=[1.0])
        r = B.evaluate_tail("thm3", prof, 1.0, p=2.0)
        assert r.prob == pytest.approx(math.exp(-1 / (2 + 4 * E)), rel=1e-13)

    def test_p_rejected(self):
        prof = profile(l2p=[1.0], p=1.0 + 1e-12, psi1=[1.0])
        with pytest.raises(ValueError, match="p must exceed 1"):
            B.evaluate_tail("thm3", prof, 1.0, p=1.0)

    def test_order_mismatch(self):
        prof = profile(l2p=[1.0], p=2.0, psi1=[1.0])
        with pytest.raises(ValueError, match="2p-norms"):
            B.evaluate_tail("thm3", prof, 1.0, p=3.0)

    def test_psi2_variant(self):
        prof = profile(l2p=[1.0], p=2.0, psi1=[1.0], psi2=[1.0])
        r = B.evaluate_tail("thm3-psi2-variant", prof, 1.0, p=2.0)
        assert r.kind == "thm3-psi2-variant"
        assert r.prob == pytest.approx(
            math.exp(-1 / (2 + 2 * E * math.sqrt(2))), rel=1e-13)

    def test_beats_thm2_when_concentrated(self):
        prof = profile(psi1=[1.0] * 5, l2p=[0.1] * 5, p=2.0)
        t = 0.5
        assert (B.evaluate_tail("thm3", prof, t, p=2.0).prob
                < B.evaluate_tail("thm2", prof, t).prob)


class TestBaseline:
    def test_classical_value(self):
        r = B.evaluate_tail("bounded-difference", profile(ranges=[1.0]), 1.0)
        assert r.prob == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_infinite_range(self):
        r = B.evaluate_tail("bounded-difference", profile(ranges=[1.0, math.inf]), 5.0)
        assert r.prob == 1.0 and "inapplicable" in r.note

    def test_t_to_zero(self):
        r = B.evaluate_tail("bounded-difference", profile(ranges=[1.0]), 1e-12)
        assert r.prob == pytest.approx(1.0)


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
           st.floats(0.1, 20.0), st.floats(1.01, 1.5))
    def test_nonincreasing_in_t(self, entries, t, factor):
        prof = profile(psi1=entries, psi2=entries, l2p=entries, p=2.0,
                       ranges=entries)
        for kind in B.BOUND_KINDS:
            a = B.evaluate_tail(kind, prof, t, p=2.0).prob
            b = B.evaluate_tail(kind, prof, t * factor, p=2.0).prob
            assert b <= a + 1e-15

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
           st.floats(0.1, 20.0), st.integers(0, 5))
    def test_nondecreasing_in_proxies(self, entries, t, idx):
        idx = idx % len(entries)
        bumped = list(entries)
        bumped[idx] *= 1.5
        small = profile(psi1=entries, psi2=entries, l2p=entries, p=2.0)
        large = profile(psi1=bumped, psi2=bumped, l2p=bumped, p=2.0)
        for kind in ("thm1", "thm2", "thm3", "thm3-psi2-variant"):
            assert (B.evaluate_tail(kind, large, t, p=2.0).prob
                    >= B.evaluate_tail(kind, small, t, p=2.0).prob - 1e-15)


class TestInversion:
    def test_delta_to_one(self):
        prof = profile(psi1=[1.0], psi2=[1.0])
        for kind in ("thm1", "thm2"):
            assert B.invert_tail(kind, prof, 1 - 1e-12).exact < 1e-4

    def test_roundtrip(self):
        prof = profile(psi1=[0.5, 2.0], psi2=[0.5, 2.0], l2p=[0.3, 1.0], p=2.0,
                       ranges=[1.0, 3.0])
        for kind in ("thm1", "thm2", "thm3", "thm3-psi2-variant", "bounded-difference"):
            for delta in (0.5, 1e-2, 1e-6):
                inv = B.invert_tail(kind, prof, delta, p=2.0)
                back = B.evaluate_tail(kind, prof, inv.exact, p=2.0).prob
                assert back == pytest.approx(delta, rel=1e-10)

    def test_exact_below_additive(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v, m, delta = rng.uniform(0.01, 5), rng.uniform(0.01, 5), rng.uniform(1e-6, 0.99)
            prof = profile(psi1=[math.sqrt(v), 0.0], n=2)
            prof = B.ProxyProfile(n=2, psi1_per_coord=[math.sqrt(v), m]) \
                if m <= math.sqrt(v) else B.ProxyProfile(n=2, psi1_per_coord=[m, math.sqrt(v)])
            inv = B.invert_tail("thm2", prof, delta)
            assert inv.exact <= inv.additive + 1e-12

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            B.invert_tail("thm1", profile(psi2=[1.0]), 1.5)


class TestOptimizationLemma:
    def test_example(self):
        rhs, grid_min = B.optimization_lemma(1.0, 1.0, 1.0)
        assert rhs == pytest.approx(-1.0 / 6.0, rel=1e-12)
        g03 = -0.3 + 0.09 / 0.7
        assert grid_min <= g03 + 1e-12
        assert grid_min <= rhs + 1e-9

    def test_t_to_zero(self):
        rhs, grid_min = B.optimization_lemma(1.0, 1.0, 1e-9)
        assert abs(rhs) < 1e-9 and abs(grid_min) < 1e-9

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            c, b, t = rng.uniform(0.01, 10, 3)
            rhs, grid_min = B.optimization_lemma(c, b, t)
            assert grid_min <= rhs + 1e-9
