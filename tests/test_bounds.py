import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact import lemma_grid_min
from lighttails import bounds as B
from lighttails import functions as fn

E = math.e


def profile(psi1=None, psi2=None, l2p=None, p=None, ranges=None, counts=None):
    entries = psi1 or psi2 or l2p or ranges
    return B.ProxyProfile(counts=counts or (1,) * len(entries), psi1_per_coord=psi1,
                          psi2_per_coord=psi2, l2p_per_coord=l2p, l2p_order=p, ranges=ranges)


class TestProxyProfile:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^psi1_per_coord must have one entry per run, "
                                             r"3, got 2$"):
            B.ProxyProfile(counts=(1, 2, 1), psi1_per_coord=[1.0, 1.0])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            B.ProxyProfile(counts=(1,), psi1_per_coord=[-1.0])

    def test_l2p_needs_order(self):
        with pytest.raises(ValueError, match="l2p_order"):
            B.ProxyProfile(counts=(1,), l2p_per_coord=[1.0])

    def test_needs_a_coordinate(self):
        with pytest.raises(ValueError, match=r"^counts must be one positive int per run, got \(\)$"):
            B.ProxyProfile(counts=())
        with pytest.raises(ValueError, match=r"^counts must be one positive int per run, "
                                             r"got \(2, 0\)$"):
            B.ProxyProfile(counts=(2, 0), psi1_per_coord=[1.0, 1.0])
        with pytest.raises(TypeError):
            B.ProxyProfile(counts=(2.0,), psi1_per_coord=[1.0])

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_tail_needs_a_positive_t(self, t):
        with pytest.raises(ValueError, match=rf"^t must be positive, got {t}$"):
            B.evaluate_tail("thm2", profile(psi1=[1.0]), t)

    def test_derived(self):
        # V is the sum of the squares, M the largest entry, run by run
        prof = profile(psi1=[3.0, 4.0])
        assert B._exponent("thm2", prof, None) == (4.0 * E * E * 25.0, 2.0 * E * 4.0, 1.0)
        runs = profile(psi1=[3.0, 4.0], counts=(2, 5))
        assert B._squares(runs.psi1_per_coord, runs.counts) == 98.0
        assert B._exponent("thm2", runs, None) == (4.0 * E * E * 98.0, 2.0 * E * 4.0, 1.0)


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
            assert r.log_prob * (2 * E * 2.0) / t == pytest.approx(-1.0, abs=1e-2)

    def test_small_t_subgaussian_regime(self):
        prof = profile(psi1=[1.0, 2.0])
        for t in (1e-3, 1e-5):
            r = B.evaluate_tail("thm2", prof, t)
            assert r.log_prob * (4 * E ** 2 * 5.0) / t ** 2 == pytest.approx(-1.0, abs=1e-3)

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

    # an infinite a + b t: the range, or a squared proxy that overflows, where
    # -t^2 / (a + b t) read -0.0 or NaN
    @pytest.mark.parametrize("kind, prof, t", [
        ("bounded-difference", profile(ranges=[1.0, math.inf]), 5.0),
        ("thm1", profile(psi2=[1e200]), 1.0),
        ("thm2", profile(psi1=[1e300, 1e300]), 1e300),
    ], ids=["bounded-difference", "thm1", "thm2"])
    def test_infinite_range(self, kind, prof, t):
        r = B.evaluate_tail(kind, prof, t)
        assert (r.prob, r.log_prob) == (1.0, 0.0) and "inapplicable" in r.note
        assert math.copysign(1.0, r.log_prob) == 1.0

    def test_t_to_zero(self):
        r = B.evaluate_tail("bounded-difference", profile(ranges=[1.0]), 1e-12)
        assert r.prob == pytest.approx(1.0)


class TestSquares:
    """V, the sum of the squared entries run by run: the exact sum of count
    * fl(x^2) rounded once, as the fsum of the expanded squares reads it."""

    @staticmethod
    def reference(entries, counts):
        """The Fraction sum rounded once, inf past the largest float."""
        squares = [x * x for x in entries]
        if math.inf in squares:
            return math.inf
        try:
            return float(sum(c * Fraction(sq) for sq, c in zip(squares, counts)))
        except OverflowError:
            return math.inf

    @staticmethod
    def expanded(entries, counts):
        """The fsum of the squares of the expanded entries, inf where it overflows."""
        try:
            return math.fsum(x * x for x, c in zip(entries, counts) for _ in range(c))
        except OverflowError:
            return math.inf

    # entries from 1e-300 to 1e300, with extra weight where the squares are
    # finite but a sum of them may not be
    ENTRY = st.floats(1e-300, 1e300) | st.floats(1e145, 1.4e154)
    RUNS = st.lists(st.tuples(ENTRY, st.integers(1, 2 ** 40)), min_size=1, max_size=6)
    SHORT_RUNS = st.lists(st.tuples(ENTRY, st.integers(1, 64)), min_size=1, max_size=6)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(RUNS)
    def test_the_exact_sum_rounded_once(self, runs):
        entries, counts = zip(*runs)
        assert B._squares(entries, counts) == self.reference(entries, counts)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(SHORT_RUNS)
    def test_a_run_profile_reads_as_its_expansion(self, runs):
        entries, counts = zip(*runs)
        assert B._squares(entries, counts) == self.expanded(entries, counts) \
            == self.reference(entries, counts)
        rows = dict.fromkeys(("psi1", "psi2", "l2p", "ranges"), list(entries))
        runs_profile = profile(**rows, p=2.0, counts=counts)
        one_per_coordinate = profile(**{k: list(np.repeat(v, counts)) for k, v in rows.items()},
                                     p=2.0)
        for kind in B.READS:
            assert ([x.hex() for x in B._exponent(kind, runs_profile, None)]
                    == [x.hex() for x in B._exponent(kind, one_per_coordinate, None)]), kind

    def test_one_run_of_a_billion_coordinates(self):
        prof = profile(psi1=[0.5], psi2=[0.25], counts=(10 ** 9,))
        assert B._squares(prof.psi1_per_coord, prof.counts) == 0.25e9
        assert B._exponent("thm2", prof, None) == (4.0 * E * E * 0.25e9, 2.0 * E * 0.5, 1.0)
        # 0.25 is lifted to 0.5 before it is squared
        assert B._exponent("thm1", prof, None) == (32.0 * E * 0.25e9, 0.0, 2.0)

    def test_squares_whose_sum_is_past_the_largest_float_read_inf(self):
        # each square is finite, but math.fsum of them raised OverflowError
        # where their exact sum is not: V reads inf, as it does where one
        # entry's own square overflows
        assert B._squares([1.2e154, 1.2e154], (1, 1)) == math.inf
        assert B._squares([1.2e154], (2,)) == math.inf
        assert B._squares([1e300], (1,)) == math.inf
        assert B._squares([9e153, 9e153], (1, 1)) == 2.0 * 9e153 * 9e153
        for prof in (profile(psi1=[1.2e154] * 3), profile(psi1=[1.2e154], counts=(3,))):
            rows = B.evaluate_tail_grid("thm2", prof, [1e154, 1e155, 1e156])
            assert [(r.prob, r.log_prob, r.note) for r in rows] == [
                (1.0, 0.0, "inapplicable: a + b t is infinite")] * 3
            inv = B.invert_tail("thm2", prof, 0.01)
            assert (inv.exact, inv.additive) == (math.inf, math.inf)


class TestExponentPastTheLargestFloat:
    def test_a_finite_a_and_b_are_read_divided_through_by_t(self):
        # where t^2 or b t overflowed, the bound read 0 with log_prob -inf, or
        # 1, "inapplicable", at 1e308: it rose in t
        a, b = 4.0 * E * E, 2.0 * E
        rows = [B.evaluate_tail("thm2", profile(psi1=[1.0]), t) for t in (1e155, 1e307, 1e308)]
        for r in rows:
            assert (r.prob, r.note) == (0.0, "")
            assert r.log_prob == -r.t / (a / r.t + b)
        assert rows[2].log_prob == pytest.approx(-1e308 / b, rel=1e-15)
        assert rows[0].log_prob > rows[1].log_prob > rows[2].log_prob
        # rows with a finite t^2 and a + b t keep their bits
        for t in (1.0, 1e100, 1e154):
            assert B.evaluate_tail("thm2", profile(psi1=[1.0]), t).log_prob == -t * t / (a + b * t)
        # an a / t that underflows, with b = 0, reads -inf
        r = B.evaluate_tail("thm1", profile(psi2=[1e-160]), 1e300)
        assert (r.prob, r.log_prob, r.note) == (0.0, -math.inf, "")


GAUSSIAN = {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}


def exact_tail(law, ratio):
    """P(f - E f >= ratio c) for f the sum of two copies of law scaled by c:
    N(0, 2 c^2), or the triangle on [-c, c]."""
    if law is GAUSSIAN:
        return 0.5 * math.erfc(ratio / 2.0)
    return (1.0 - ratio) ** 2 / 2.0 if ratio < 1.0 else 0.0


class TestTinyScales:
    """Entries whose squares underflow: thm1 read 0 with "degenerate: f is
    a.s. constant", the other kinds 0/0, and 1e-160 lost digits in the
    subnormal squares.  Entries and t are lifted by one power of two, so a
    bound at scale c is the bound at scale 1."""

    @pytest.mark.parametrize("c", [1e-300, 1e-160])
    @pytest.mark.parametrize("law, kind", [(GAUSSIAN, "thm1"), (GAUSSIAN, "thm2"),
                                           (GAUSSIAN, "thm3"), (UNIFORM, "thm2"),
                                           (UNIFORM, "bounded-difference")],
                             ids=lambda v: v if isinstance(v, str) else v["kind"])
    def test_a_bound_at_scale_c_is_the_bound_at_scale_one(self, law, kind, c):
        def prof(scale):
            term = {"kind": "scaled", "base": law, "factor": scale}
            spec = fn.fspec_from_dict({"kind": "sum", "components": [term, term]})
            return fn.proxy_profile(spec, p=2.0, kinds=[kind])
        tiny, unit = prof(c), prof(1.0)
        for ratio in (0.1, 1.0, 3.0):
            r, ref = B.evaluate_tail(kind, tiny, ratio * c), B.evaluate_tail(kind, unit, ratio)
            assert r.note == "" and r.prob >= exact_tail(law, ratio)
            assert r.log_prob == pytest.approx(ref.log_prob, rel=1e-12, abs=0.0)
        inv, ref = B.invert_tail(kind, tiny, 0.1), B.invert_tail(kind, unit, 0.1)
        assert inv.exact > 0.0 and inv.exact / c == pytest.approx(ref.exact, rel=1e-12)
        assert inv.additive / c == pytest.approx(ref.additive, rel=1e-12)

    @pytest.mark.parametrize("kind", B.BOUND_KINDS)
    def test_a_lift_keeps_the_bits_of_normal_rows(self, kind):
        # 2^-40 times entries and t, lifted back exactly
        entries = dict(psi1=[0.3, 0.2], psi2=[0.4, 0.1], l2p=[0.35, 0.25], p=2.0, ranges=[0.45, 0.3])
        small = {k: v if k == "p" else [x * 2.0 ** -40 for x in v] for k, v in entries.items()}
        for t in (0.05, 0.4, 2.0):
            assert (B.evaluate_tail(kind, profile(**small), t * 2.0 ** -40).log_prob
                    == B.evaluate_tail(kind, profile(**entries), t).log_prob)
        assert (B.invert_tail(kind, profile(**small), 0.01).exact
                == B.invert_tail(kind, profile(**entries), 0.01).exact * 2.0 ** -40)

    @pytest.mark.parametrize("kind", B.BOUND_KINDS)
    def test_degenerate_only_where_every_entry_read_is_zero(self, kind):
        for tiny in (5e-324, 0.0):
            prof = profile(psi1=[tiny, 0.0], psi2=[tiny, 0.0], l2p=[tiny, 0.0], p=2.0,
                           ranges=[tiny, 0.0])
            r = B.evaluate_tail(kind, prof, 1e-323)
            assert ("degenerate" in r.note) == (tiny == 0.0)
            assert (r.prob > 0.0) == (tiny > 0.0)


class TestReads:
    @pytest.mark.parametrize("kind", B.BOUND_KINDS)
    def test_a_profile_of_its_row_alone_serves_the_kind(self, kind):
        # the table says what _exponent reads: the row is enough, and every
        # entry of it is needed
        row = B.READS[kind]
        entries = {name: (0.5, 1.5) for name in row}

        def prof(names):
            return B.ProxyProfile(counts=(1, 1), l2p_order=2.0 if "l2p_per_coord" in row else None,
                                  **{name: entries[name] for name in names})
        r = B.evaluate_tail(kind, prof(row), 1.0)
        assert 0.0 < r.prob < 1.0 and r.note == ""
        assert B.invert_tail(kind, prof(row), 0.1).exact > 0.0
        for name in row:
            short = prof([n for n in row if n != name])
            with pytest.raises(ValueError, match=f"^profile is missing {name}$"):
                B.evaluate_tail(kind, short, 1.0)
            with pytest.raises(ValueError, match=f"^profile is missing {name}$"):
                B.invert_tail(kind, short, 0.1)

    @pytest.mark.parametrize("kind", B.BOUND_KINDS)
    def test_a_grid_reads_the_exponent_once(self, kind, monkeypatch):
        prof = B.ProxyProfile(counts=(1, 1), psi1_per_coord=(0.5, 1.5), psi2_per_coord=(0.7, 0.2),
                              l2p_per_coord=(1.0, 2.0), l2p_order=2.0, ranges=(1.0, 3.0))
        grid = [0.5, 1.0, 3.0, 1e300]
        a, b, lift = B._exponent(kind, prof, None)
        want = [B._tail(kind, t, t * lift, a, b) for t in grid]
        calls = []
        exponent = B._exponent
        monkeypatch.setattr(B, "_exponent", lambda *args: calls.append(args) or exponent(*args))
        assert B.evaluate_tail_grid(kind, prof, grid) == want and len(calls) == 1
        with pytest.raises(ValueError, match=r"^t must be positive, got 0.0$"):
            B.evaluate_tail_grid(kind, prof, [1.0, 0.0])

    # (a, b, lift) of each kind on two runs of (3, 2) coordinates, with
    # p = 3, normal entries first, then entries near 1e-200, lifted by 2^662
    # to 2^664
    PINS = {
        "thm1": (("0x1.de6ae7f3bf830p+7", "0x0.0p+0", "0x1.0000000000000p+0"),
                 ("0x1.184fd29a2d417p+7", "0x0.0p+0", "0x1.0000000000000p+664")),
        "thm2": (("0x1.65a15c560fad7p+7", "0x1.27bfc296ae3e6p+3", "0x1.0000000000000p+0"),
                 ("0x1.1bd51feb2109fp+5", "0x1.8f7f11be507a4p+1", "0x1.0000000000000p+662")),
        "thm3": (("0x1.1666666666667p+3", "0x1.bb9fa3e2055d9p+3", "0x1.0000000000000p+0"),
                 ("0x1.463cb884223d0p-2", "0x1.2b9f4d4ebc5bcp+2", "0x1.0000000000000p+662")),
        "thm3-psi2-variant": (
            ("0x1.1666666666667p+3", "0x1.7f86276d5f900p+2", "0x1.0000000000000p+0"),
            ("0x1.463cb884223d0p+2", "0x1.259194a0bcb09p+2", "0x1.0000000000000p+664")),
        "bounded-difference": (("0x1.3bae147ae147bp+3", "0x0.0p+0", "0x1.0000000000000p+0"),
                               ("0x1.71ec481a3dc65p+0", "0x0.0p+0", "0x1.0000000000000p+663")),
    }

    @pytest.mark.parametrize("kind", B.BOUND_KINDS)
    def test_each_kind_s_exponent_keeps_its_bits(self, kind):
        profiles = (profile(psi1=[0.3, 1.7], psi2=[0.9, 0.4], l2p=[1.1, 0.6], ranges=[2.5, 0.7],
                            p=3.0, counts=(3, 2)),
                    profile(psi1=[3e-200, 1.7e-200], psi2=[0.9e-200, 0.4e-200],
                            l2p=[1.1e-200, 0.6e-200], ranges=[2.5e-200, 0.7e-200], p=3.0,
                            counts=(3, 2)))
        assert tuple(tuple(x.hex() for x in B._exponent(kind, prof, None))
                     for prof in profiles) == self.PINS[kind]

    def test_the_derived_names(self):
        assert B.BOUND_KINDS == ("thm1", "thm2", "thm3", "thm3-psi2-variant", "bounded-difference")
        assert B.PSI2_KINDS == ("thm1", "thm3-psi2-variant")
        assert set().union(*B.READS.values()) == set(B.ENTRIES)
        assert B.reads(["thm3", "bounded-difference"]) == {
            "psi1_per_coord", "l2p_per_coord", "ranges"}

    def test_an_unknown_kind_is_a_value_error_that_names_it(self):
        for call in (lambda: B.reads(["thm2", "thm9"]),
                     lambda: B.evaluate_tail("thm9", profile(psi1=[1.0]), 1.0),
                     lambda: B.invert_tail("thm9", profile(psi1=[1.0]), 0.1)):
            with pytest.raises(ValueError, match=r"^unknown bound kind 'thm9'; known: \("):
                call()


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
            prof = profile(psi1=[math.sqrt(v), m] if m <= math.sqrt(v) else [m, math.sqrt(v)])
            inv = B.invert_tail("thm2", prof, delta)
            assert inv.exact <= inv.additive + 1e-12

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            B.invert_tail("thm1", profile(psi2=[1.0]), 1.5)


class TestOptimizationLemma:
    # the closed form may sit a rounding above rhs where the two coincide, t -> 0
    ROUNDING = 1e-15

    def test_example(self):
        rhs, infimum = B.optimization_lemma(1.0, 1.0, 1.0)
        assert rhs == pytest.approx(-1.0 / 6.0, rel=1e-12)
        assert infimum == pytest.approx(-1.0 / (1.0 + math.sqrt(2.0)) ** 2, rel=1e-15)
        assert infimum <= -0.3 + 0.09 / 0.7 and infimum < rhs

    @pytest.mark.parametrize("c, b, t", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
    def test_inputs_must_be_positive(self, c, b, t):
        with pytest.raises(ValueError, match=rf"^C, b, t must all be positive, got "
                                             rf"\({c}, {b}, {t}\)$"):
            B.optimization_lemma(c, b, t)

    def test_t_to_zero(self):
        # both are -t^2 / (4C) to first order, with nothing cancelled
        rhs, infimum = B.optimization_lemma(1.0, 1.0, 1e-9)
        assert rhs == pytest.approx(-2.5e-19, rel=1e-8)
        assert infimum == pytest.approx(rhs, rel=1e-8)

    def test_the_infimum_is_a_dense_grid_s(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c, b, t = rng.uniform(0.01, 10, 3)
            rhs, infimum = B.optimization_lemma(c, b, t)
            grid = lemma_grid_min(c, b, t)
            assert infimum <= rhs * (1.0 - self.ROUNDING)
            assert infimum * (1.0 + self.ROUNDING) <= grid <= infimum * (1.0 - 1e-6)