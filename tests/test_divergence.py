"""Divergence measures: subset weights, arithmetic-geometric divergence, BJS."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credfuse import (
    BJS,
    PBAGD,
    Frame,
    FrameMismatchError,
    MassFunction,
    ag_divergence,
    bjs,
    event_evidence,
    get_measure,
    pb_transform,
    pbagd,
    register_measure,
    span_imbalance_grid,
    span_overlap_series,
    subset_bel_pl,
    vacuous,
)
from credfuse import divergence, fusion
from credfuse.divergence import (
    DivergenceMeasure,
    LengthMismatchError,
    _ag_terms,
    _assertion_levels,
    _level_values,
    _pb_rows,
)

from . import reference
from .conftest import random_mass_function
from .test_core import _oracle_zeta, bba_pairs, bbas


def scalar_ag(p, q):
    """Independent scalar re-evaluation of the divergence formula."""
    total = 0.0
    for a, b in zip(p, q):
        if a == b:
            continue
        mean = (a + b) / 2.0
        total += mean * math.log2(mean / math.sqrt(a * b))
    return total


class TestAgDivergence:
    def test_identical_is_zero(self):
        assert ag_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.random(6)
            q = rng.random(6)
            assert ag_divergence(p, q) == ag_divergence(q, p)

    def test_hand_evaluated_value(self):
        p = (0.75, 0.25)
        q = (0.5, 0.5)
        assert ag_divergence(p, q) == pytest.approx(scalar_ag(p, q), abs=1e-15)
        assert ag_divergence(p, q) == pytest.approx(0.0502652, abs=1e-7)

    def test_one_sided_zero_is_infinite(self):
        assert ag_divergence([1.0, 0.0], [0.5, 0.5]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ag_divergence([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("p, q", [
        ([0.5, 0.5], [-0.1, 1.1]),
        ([math.nan, 1.0], [0.5, 0.5]),
        ([math.inf, 0.0], [1.0, 0.0]),
        ([0.5, 0.5], [0.5, math.nan]),
        ([-0.1, 1.1], [0.0, 1.1]),  # -inf
        ([-0.1, 0.2], [-0.2, 0.2]),
    ])
    def test_non_finite_or_negative_entries_raise(self, p, q):
        # these used to return NaN (or -inf) along with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ag_divergence(p, q)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ag_divergence(q, p)

    @pytest.mark.parametrize("p, q, want, rel", [
        # half of the smallest subnormal rounds to a mean of 0
        ([5e-324, 1 - 5e-324], [0.0, 1.0], math.inf, 0.0),
        # the sum of the entries overflows
        ([1.7e308], [1.6e308], 1e308 * 1.65 * math.log2(1.65 / math.sqrt(1.7 * 1.6)), 1e-12),
        # the product of the entries underflows to 0; 1e-320 is subnormal
        ([1e-320, 1.0], [3e-320, 1.0], 2e-320 * math.log2(2 / math.sqrt(3)), 1e-2),
        # the ratio of the means overflows
        ([1e300], [5e-324], 5e299 * (math.log2(5e299) - math.log2(1e300 * 5e-324) / 2), 1e-12),
    ])
    def test_entries_at_the_ends_of_the_float_range(self, p, q, want, rel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ag_divergence(p, q)
            assert ag_divergence(q, p) == got
        assert got == pytest.approx(want, rel=rel)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.random(5)
            q = p.copy()
            assert ag_divergence(p, q) == 0.0
            q[rng.integers(5)] += 0.01
            assert ag_divergence(p, q) > 1e-12


#: Entries of the term kernel's operands: weights, zeros, and values near
#: both ends of the float range, where ag_divergence's fallback reads the
#: kernel's terms.
_ENTRIES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 5e-324, 1e-320, 1e-300, 3e-300, 1e300, 1.6e308, 1.7e308]),
    st.floats(min_value=1e-310, max_value=1e-290),
    st.floats(min_value=1e290, max_value=1.7e308),
)


class TestAgTerms:
    """The in-place term kernel gives the bytes of the expression form."""

    @staticmethod
    def _assert_reference_bytes(p, q):
        before = np.copy(p), np.copy(q)
        with np.errstate(all="ignore"):
            got = _ag_terms(p, q)
            want = reference.ag_terms(p, q)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the operands are read, not written
        assert np.copy(p).tobytes() == before[0].tobytes()
        assert np.copy(q).tobytes() == before[1].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), rows=st.integers(1, 4),
           n_levels=st.integers(1, 4))
    def test_levels_broadcast_against_a_block(self, data, n, rows, n_levels):
        size = rows << n
        p = np.array(data.draw(st.lists(_ENTRIES, min_size=size, max_size=size)))
        p = p.reshape(rows, 1 << n)
        levels = np.array(data.draw(st.lists(_ENTRIES, min_size=n_levels,
                                             max_size=n_levels)))
        for entry, level in data.draw(st.lists(st.tuples(
                st.integers(0, size - 1), st.integers(0, n_levels - 1)), max_size=6)):
            p.flat[entry] = levels[level]  # entries equal to a level
        self._assert_reference_bytes(p, levels[:, None, None])
        for level in levels:  # one value per call, as the table EEM reads them
            self._assert_reference_bytes(p, float(level))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), length=st.integers(1, 40))
    def test_pairs_of_vectors(self, data, length):
        p = np.array(data.draw(st.lists(_ENTRIES, min_size=length, max_size=length)))
        q = np.array(data.draw(st.lists(_ENTRIES, min_size=length, max_size=length)))
        equal = np.array(data.draw(st.lists(st.booleans(), min_size=length,
                                            max_size=length)))
        q[equal] = p[equal]
        self._assert_reference_bytes(p, q)


class TestPbTransform:
    def test_single_event_frame(self):
        frame = Frame(("only",))
        weights = pb_transform(MassFunction(frame, {"only": 1.0}))
        np.testing.assert_allclose(weights, [1.0])

    def test_strictly_positive_and_normalized(self, fault_case):
        for m in fault_case:
            weights = pb_transform(m)
            assert (weights > 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_indexing_matches_bel_pl(self, fault_case):
        m = fault_case[0]
        bel, pl = subset_bel_pl(m)
        weights = pb_transform(m)
        raw = np.exp(bel[1:]) + np.exp(pl[1:])
        np.testing.assert_allclose(weights, raw / raw.sum())

    def test_bel_pl_against_direct_sums(self, fault_case):
        m = fault_case[3]
        bel, pl = subset_bel_pl(m)
        for mask in m.frame.subsets():
            assert bel[mask] == pytest.approx(m.belief(mask), abs=1e-12)
            assert pl[mask] == pytest.approx(m.plausibility(mask), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_stacked_rows_match_single_transforms(self, n):
        # the block-wise EEM and pb_transform share one row-wise transform
        rng = np.random.default_rng(n)
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        ms = [random_mass_function(rng, frame, max_focals=6) for _ in range(5)]
        stacked = _pb_rows(np.array([m.dense() for m in ms]))
        singles = np.array([pb_transform(m) for m in ms])
        np.testing.assert_array_equal(stacked, singles)


def _per_call_levels(frame):
    """The assertion levels as the table EEM first computed them on every
    call, kept as the oracle."""
    size = 1 << frame.n
    rows = max(1, divergence._BLOCK_ENTRIES // size)
    levels: dict[tuple[float, float], list[int]] = {}
    for start in range(0, frame.n, rows):
        events = range(start, min(frame.n, start + rows))
        assertions = np.zeros((len(events), size))
        assertions[range(len(events)), [1 << j for j in events]] = 1.0
        weights = _pb_rows(assertions)
        for row, j in enumerate(events):
            alpha = weights[row, (1 << j) - 1]
            beta = weights[row, (frame.full_mask ^ 1 << j or 1 << j) - 1]
            levels.setdefault((float(alpha), float(beta)), []).append(j)
    return levels


class TestAssertionLevels:
    """The table EEM reads the assertions' two weight values from one table
    per frame size."""

    @pytest.mark.parametrize("entries", [None, 1 << 4, 1 << 16])
    def test_table_equals_the_per_call_computation(self, entries, monkeypatch):
        default = divergence._BLOCK_ENTRIES
        if entries is not None:
            monkeypatch.setattr(divergence, "_BLOCK_ENTRIES", entries)
        _assertion_levels.cache_clear()
        try:
            for n in range(1, 21):
                if entries is not None and max(1, entries >> n) == max(1, default >> n):
                    continue  # the same blocks as the default size, checked there
                frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
                got = _assertion_levels(n)
                with monkeypatch.context() as patch:  # on the oracle's butterfly
                    patch.setattr(divergence, "superset_zeta", _oracle_zeta)
                    want = _per_call_levels(frame)
                assert [(pair, list(events)) for pair, events in got] == list(want.items())
                assert sorted(j for _, events in got for j in events) == list(range(n))
        finally:
            _assertion_levels.cache_clear()

    def test_each_event_reads_its_two_values_once(self):
        for n in range(1, 21):
            levels = _assertion_levels(n)
            values = _level_values(levels)
            assert len({value for value, _ in values}) == len(values)
            for (alpha, beta), events in levels:
                for j in events:
                    reads = [(value, holding, first) for value, halves in values
                             for k, holding, first in halves if k == j]
                    assert sorted(read[:2] for read in reads) == sorted(
                        [(alpha, 1), (beta, 0)])
                    assert [first for *_, first in reads] == [True, False]

    def test_every_level_gives_a_term_of_plus_zero_against_itself(self):
        # sqrt(a * a) rounds back to a, so the table EEM needs no pass that
        # zeroes the entries equal to their level
        for n in range(1, 21):
            for value, _ in _level_values(_assertion_levels(n)):
                for p, q in ((np.array([value]), np.array([value])),
                             (np.full((2, 8), value), value)):
                    terms = _ag_terms(p, q)
                    assert (terms == 0.0).all()
                    assert not np.signbit(terms).any()

    @pytest.mark.parametrize("n", range(1, 21))
    def test_an_assertion_is_exactly_zero_from_its_own_event(self, n):
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        events = range(n) if n <= 12 else sorted({0, n // 2, n - 1})
        eem = PBAGD.event_divergences([event_evidence(frame, j) for j in events], frame)
        own = eem[list(events), range(len(events))]
        assert (own == 0.0).all()
        assert not np.signbit(own).any()

    def test_an_icef_call_transforms_only_its_evidence_once_the_table_exists(
            self, monkeypatch):
        # n = 12: the 12 assertions take one 1-row transform each, on the
        # first call at that size only, before the evidence; two rows of
        # 2**12 per block, so 8 pieces take 4 transforms
        calls = []
        monkeypatch.setattr(divergence, "_pb_rows",
                            lambda dense: calls.append(len(dense)) or _pb_rows(dense))
        rng = np.random.default_rng(12)
        frame = Frame(tuple(f"E{i + 1}" for i in range(12)))
        ms = [random_mass_function(rng, frame, max_focals=6, omega_floor=0.05)
              for _ in range(8)]
        _assertion_levels.cache_clear()
        first, _ = fusion.icef(ms)
        assert calls == [1] * 12 + [2] * 4
        calls.clear()
        again, _ = fusion.icef(ms)
        assert calls == [2] * 4
        assert again.mass == first.mass


class TestPbagd:
    def test_identical_singleton_evidence(self):
        frame = Frame(("A1", "A2", "A3", "A4"))
        masses = {"A1": 0.75, "A2": 0.10, "A3": 0.10, "A4": 0.05}
        m1 = MassFunction(frame, masses)
        m2 = MassFunction(frame, masses)
        assert pbagd(m1, m2) == 0.0

    def test_identical_with_compound_focal(self):
        frame = Frame(("A1", "A2", "A3", "A4"))
        masses = {"A1": 0.75, "A2": 0.10, "A3": 0.10, "A1,A2,A3,A4": 0.05}
        assert pbagd(MassFunction(frame, masses), MassFunction(frame, masses)) == 0.0

    def test_close_pair_value_frozen(self, close_pair):
        # regression pin: value of the calibrated measure on the close pair
        m1, m2 = close_pair
        assert pbagd(m1, m2) == pytest.approx(3.6632169872732987e-4, rel=1e-12)
        assert pbagd(m2, m1) == pbagd(m1, m2)

    def test_frame_mismatch(self, close_pair):
        other = vacuous(Frame(("X", "Y")))
        with pytest.raises(FrameMismatchError):
            pbagd(close_pair[0], other)

    @given(pair=bba_pairs())
    def test_symmetry_exact(self, pair):
        assert pbagd(*pair) == pbagd(*reversed(pair))

    @given(pair=bba_pairs())
    def test_nonnegative(self, pair):
        assert pbagd(*pair) >= 0.0

    @given(m=bbas())
    def test_self_divergence_zero(self, m):
        assert pbagd(m, m) == 0.0

    @settings(max_examples=50)
    @given(pair=bba_pairs())
    def test_near_zero_implies_equal_weights(self, pair):
        if pbagd(*pair) < 1e-12:
            w1 = pb_transform(pair[0])
            w2 = pb_transform(pair[1])
            np.testing.assert_allclose(w1, w2, atol=1e-6)


class TestBjs:
    def test_identical_is_zero(self, fault_case):
        assert bjs(fault_case[0], fault_case[0]) == 0.0

    @given(pair=bba_pairs())
    def test_symmetric(self, pair):
        assert bjs(*pair) == pytest.approx(bjs(*reversed(pair)), abs=1e-15)

    def test_disjoint_categorical_hits_log2_bound(self, frame3):
        m1 = MassFunction(frame3, {"A1": 1.0})
        m2 = MassFunction(frame3, {"A2": 1.0})
        assert bjs(m1, m2) == pytest.approx(1.0)  # log2(2)

    def test_frame_mismatch(self, frame3):
        with pytest.raises(FrameMismatchError):
            bjs(vacuous(frame3), vacuous(Frame(("X", "Y"))))


class TestRegistry:
    def test_lookup(self):
        assert get_measure("pbagd") is PBAGD
        assert get_measure("BJS") is BJS

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_measure("dismp")

    @pytest.mark.parametrize("name", [None, 3, b"pbagd"])
    def test_a_name_that_is_not_a_str_is_unknown(self, name):
        # used to end in AttributeError on .lower()
        with pytest.raises(KeyError, match=re.escape(f"unknown divergence measure {name!r}")):
            get_measure(name)

    def test_register_and_conflict(self):
        class Dummy(DivergenceMeasure):
            name = "dummy-measure"

            def evaluate(self, m1, m2):
                return 0.0

        register_measure(Dummy())
        assert get_measure("dummy-measure").name == "dummy-measure"
        with pytest.raises(ValueError):
            register_measure(Dummy())
        register_measure(Dummy(), overwrite=True)


@pytest.fixture(scope="module")
def grid():
    return span_imbalance_grid()


class TestCurves:
    def test_zero_at_matching_alpha(self, grid):
        matching = [value for t, alpha, value in grid if alpha == 0.95]
        assert len(matching) == 10
        assert all(value == 0.0 for value in matching)

    def test_low_alpha_peaks_at_first_span(self, grid):
        low = {t: value for t, alpha, value in grid if alpha == 0.05}
        assert max(low, key=low.get) == 1

    def test_low_alpha_strictly_increases_past_first_span(self, grid):
        low = [value for t, alpha, value in grid if alpha == 0.05]
        assert all(low[i] < low[i + 1] for i in range(1, 9))

    def test_rows_cover_grid_in_fixed_column_order(self, grid):
        assert len(grid) == 10 * 19
        t, alpha, value = grid[0]
        assert isinstance(t, int) and isinstance(alpha, float) and isinstance(value, float)

    def test_overlap_series_dips_at_matching_block(self):
        series = span_overlap_series()
        values = [v for _, v in series]
        assert int(np.argmin(values)) + 1 == 5
        # growth past the matching block is gentler than the drop into it
        assert values[9] - values[4] < values[0] - values[4]
