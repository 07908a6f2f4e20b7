"""Frame, mass-function, and combination-rule behavior."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credfuse import (
    EmptySetFocalError,
    Frame,
    FrameMismatchError,
    InvalidMassValueError,
    MassFunction,
    NegativeMassError,
    NotNormalizedError,
    TotalConflictError,
    dcr_n,
    dcr_pair,
    event_evidence,
    self_fuse,
    superset_mobius,
    superset_zeta,
    vacuous,
    validate_masses,
)
from credfuse import core, decide
from credfuse.core import MAX_EVENTS, _dense_self_fuse, _fold_is_cheaper, _intersections

from .conftest import random_mass_function


class TestFrame:
    def test_basic(self, frame3):
        assert frame3.n == 3
        assert frame3.full_mask == 0b111
        assert frame3.mask_of("A1") == 1
        assert frame3.mask_of("A1,A3") == 0b101
        assert frame3.mask_of(("A2", "A3")) == 0b110
        assert frame3.labels_of(0b101) == ("A1", "A3")
        assert frame3.subset_str(0b011) == "A1,A2"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Frame(("A", "A"))

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            Frame(())
        with pytest.raises(ValueError):
            Frame(tuple(f"E{i}" for i in range(21)))

    def test_unknown_label(self, frame3):
        with pytest.raises(KeyError):
            frame3.mask_of("A9")

    def test_mask_out_of_range(self, frame3):
        with pytest.raises(ValueError):
            frame3.mask_of(8)

    @pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
    def test_bool_is_not_a_mask(self, frame3, flag):
        with pytest.raises(TypeError):
            frame3.mask_of(flag)


class TestValidation:
    def test_valid_report(self, frame3):
        assert validate_masses(frame3, {"A1": 0.7, "A2": 0.1, "A1,A2,A3": 0.2}) is None

    def test_not_normalized(self, frame3):
        error = validate_masses(frame3, {"A1": 0.5})
        assert isinstance(error, NotNormalizedError)
        assert error.total == pytest.approx(0.5)

    def test_empty_set_focal(self, frame3):
        error = validate_masses(frame3, {0: 0.1, "A1": 0.9})
        assert isinstance(error, EmptySetFocalError)

    def test_negative_mass(self, frame3):
        error = validate_masses(frame3, {"A1": -0.2, "A2": 1.2})
        assert isinstance(error, NegativeMassError)

    def test_constructor_raises(self, frame3):
        with pytest.raises(NotNormalizedError):
            MassFunction(frame3, {"A1": 0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, frame3, bad):
        assert isinstance(validate_masses(frame3, {"A1": bad, "A2": 1.0}), InvalidMassValueError)
        with pytest.raises(InvalidMassValueError):
            MassFunction(frame3, {"A1": bad, "A2": 1.0})
        with pytest.raises(InvalidMassValueError):
            MassFunction(frame3, {"A1": np.float64(bad)})

    def test_bool_mass_rejected(self, frame3):
        assert isinstance(validate_masses(frame3, {"A1": True}), InvalidMassValueError)
        with pytest.raises(InvalidMassValueError):
            MassFunction(frame3, {"A1": True})
        with pytest.raises(InvalidMassValueError):
            MassFunction(frame3, {"A1": np.bool_(True)})

    @pytest.mark.parametrize("bad", [None, "heavy", [0.5]])
    def test_non_number_mass_rejected(self, frame3, bad):
        with pytest.raises(InvalidMassValueError):
            MassFunction(frame3, {"A1": bad})

    def test_bool_subset_rejected(self, frame3):
        with pytest.raises(TypeError):
            MassFunction(frame3, {True: 1.0})

    def test_zero_masses_dropped_and_duplicates_merged(self, frame3):
        m = MassFunction(frame3, {"A1": 1.0, ("A2",): 0.0})
        assert m.focal_elements() == (1,)
        # keys "A1" and mask 1 refer to the same subset and merge
        m2 = MassFunction(frame3, {"A1": 0.5, 1: 0.3, "A2": 0.2})
        assert m2.mass("A1") == pytest.approx(0.8)


class TestBeliefPlausibility:
    def test_vacuous_belief_zero_inside(self, frame3):
        assert vacuous(frame3).belief("A1") == 0.0

    def test_belief_singleton(self, fault_case):
        assert fault_case[0].belief("A1") == pytest.approx(0.70)

    def test_belief_pair_by_hand(self, fault_case):
        # subsets of {A1,A2} with mass: {A1} 0.7 and {A2} 0.1
        assert fault_case[0].belief("A1,A2") == pytest.approx(0.80)

    def test_plausibility_vacuous(self, frame3):
        assert vacuous(frame3).plausibility("A1") == 1.0

    def test_plausibility_by_hand(self, fault_case):
        # intersecting {A1}: the 0.70 singleton and the 0.20 full set
        assert fault_case[0].plausibility("A1") == pytest.approx(0.90)

    def test_plausibility_disjoint(self, frame3):
        m = MassFunction(frame3, {"A1": 1.0})
        assert m.plausibility("A2") == 0.0


class TestPignistic:
    def test_vacuous_uniform(self, frame3):
        np.testing.assert_allclose(vacuous(frame3).pignistic(), [1 / 3] * 3)

    def test_categorical_one_hot(self, frame3):
        np.testing.assert_allclose(
            MassFunction(frame3, {"A1": 1.0}).pignistic(), [1.0, 0.0, 0.0]
        )

    def test_hand_evaluated_split(self, fault_case):
        # 0.7 + 0.2/3, 0.1 + 0.2/3, 0.2/3
        np.testing.assert_allclose(
            fault_case[0].pignistic(), [0.766667, 0.166667, 0.066667], atol=5e-7
        )


def _loop_pignistic(m):
    """The reference pignistic transform: one focal set at a time, ascending."""
    probs = np.zeros(m.frame.n)
    for mask, value in m.items():
        share = value / mask.bit_count()
        for j in range(m.frame.n):
            if mask >> j & 1:
                probs[j] += share
    return probs


@st.composite
def _pignistic_cases(draw):
    """Masses on n = 1..20 whose weights are small integers, so that equal
    shares, and with them exact ties between events, are common."""
    n = draw(st.integers(min_value=1, max_value=MAX_EVENTS))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=min(60, (1 << n) - 1), unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=4),
                            min_size=len(masks), max_size=len(masks)))
    total = sum(weights)
    return MassFunction(_frame(n), {mask: w / total for mask, w in zip(masks, weights)})


class TestPignisticAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(m=_pignistic_cases())
    def test_bit_equal_to_loop_and_decides_lowest_argmax(self, m):
        probs = m.pignistic()
        assert probs.tobytes() == _loop_pignistic(m).tobytes()
        assert decide(m) == m.frame.events[np.flatnonzero(probs == probs.max())[0]]

    def test_exact_tie_decides_lowest_index(self):
        m = MassFunction(_frame(4), {0b0110: 0.5, 0b1001: 0.5})
        assert m.pignistic().tolist() == [0.25] * 4
        assert decide(m) == "E1"

    @pytest.mark.parametrize("n, focals", [(20, 20000), (12, 727), (2, 3)])
    def test_many_focal_sets(self, n, focals):
        rng = np.random.default_rng(n)
        masks = rng.choice(np.arange(1, 1 << n), focals, replace=False)
        weights = rng.random(focals)
        m = MassFunction(_frame(n), dict(zip(masks.tolist(), (weights / weights.sum()).tolist())))
        assert m.pignistic().tobytes() == _loop_pignistic(m).tobytes()


class TestCombination:
    def test_vacuous_identity(self, fault_case, frame3):
        fused = dcr_pair(fault_case[0], vacuous(frame3))
        assert fused == fault_case[0]

    def test_total_conflict(self, frame3):
        m1 = MassFunction(frame3, {"A1": 1.0})
        m2 = MassFunction(frame3, {"A2": 1.0})
        with pytest.raises(TotalConflictError):
            dcr_pair(m1, m2)

    def test_pair_against_exhaustive_enumeration(self, fault_case, frame3):
        fused = dcr_pair(fault_case[0], fault_case[1])
        # independent oracle: enumerate every focal pair directly
        conflict = 0.0
        expected = {}
        for b, vb in fault_case[0].items():
            for c, vc in fault_case[1].items():
                if b & c:
                    expected[b & c] = expected.get(b & c, 0.0) + vb * vc
                else:
                    conflict += vb * vc
        for mask, value in expected.items():
            assert fused.mass(mask) == pytest.approx(value / (1 - conflict))

    def test_dcr_n_counterintuitive_case(self, fault_case):
        fused = dcr_n(fault_case)
        assert fused.mass("A1") == pytest.approx(0.0000, abs=1e-3)
        assert fused.mass("A2") == pytest.approx(0.3443, abs=1e-3)
        assert fused.mass("A3") == pytest.approx(0.6557, abs=1e-3)
        assert fused.mass("A1,A2,A3") == pytest.approx(0.0000, abs=1e-3)

    def test_dcr_n_single_input(self, fault_case):
        assert dcr_n(fault_case[:1]) == fault_case[0]

    def test_dcr_n_permutation_invariance(self, fault_case):
        fused = dcr_n(fault_case)
        permuted = dcr_n([fault_case[i] for i in (4, 2, 0, 3, 1)])
        for mask in fused.focal_elements():
            assert permuted.mass(mask) == pytest.approx(fused.mass(mask), abs=1e-12)

    def test_frame_mismatch(self, fault_case):
        other = MassFunction(Frame(("B1", "B2")), {"B1": 1.0})
        with pytest.raises(FrameMismatchError):
            dcr_pair(fault_case[0], other)


class TestSelfFuse:
    def test_times_one_is_identity(self, fault_case):
        assert self_fuse(fault_case[0], 1) == fault_case[0]

    def test_vacuous_fixed_point(self, frame3):
        assert self_fuse(vacuous(frame3), 4) == vacuous(frame3)

    def test_times_must_be_positive(self, fault_case):
        with pytest.raises(ValueError):
            self_fuse(fault_case[0], 0)

    def test_average_five_fold_matches_uniform_fusion(self, fault_case, frame3):
        combined = {}
        for m in fault_case:
            for mask, value in m.items():
                combined[mask] = combined.get(mask, 0.0) + value / 5
        fused = self_fuse(MassFunction(frame3, combined), 5)
        assert fused.mass("A1") == pytest.approx(0.9715, abs=1e-3)
        assert fused.mass("A2") == pytest.approx(0.0055, abs=1e-3)
        assert fused.mass("A3") == pytest.approx(0.0222, abs=1e-3)
        assert fused.mass("A1,A2,A3") == pytest.approx(0.0008, abs=1e-3)


def _fold(m, times):
    """The reference k-fold self-combination: pairwise Dempster, left to right."""
    return functools.reduce(dcr_pair, [m] * times)


def _assert_agree(fused, reference, tol=1e-12):
    for mask in set(fused.focal_elements()) | set(reference.focal_elements()):
        assert abs(fused.mass(mask) - reference.mass(mask)) <= tol, mask


def _frame(n):
    return Frame(tuple(f"E{i + 1}" for i in range(n)))


class TestDenseKernel:
    def test_zeta_matches_superset_sums(self):
        rng = np.random.default_rng(7)
        v = rng.random(32)
        expected = [sum(v[b] for b in range(32) if b & a == a) for a in range(32)]
        np.testing.assert_allclose(superset_zeta(v), expected, rtol=1e-14)

    @pytest.mark.parametrize("shape, order", [((2, 8), "C"), ((3, 2, 16), "C"),
                                              ((1, 2), "C"), ((4, 8), "F")])
    def test_transforms_act_along_the_last_axis(self, shape, order):
        v = np.asarray(np.random.default_rng(9).random(shape), order=order)
        rows = v.reshape(-1, shape[-1])
        for transform in (superset_zeta, superset_mobius):
            expected = np.array([transform(row) for row in rows]).reshape(shape)
            np.testing.assert_array_equal(transform(v), expected)

    def test_mobius_inverts_zeta(self):
        v = np.random.default_rng(8).random(64)
        np.testing.assert_allclose(superset_mobius(superset_zeta(v)), v, atol=1e-14)

    def test_commonality_of_a_mass(self, fault_case):
        dense = fault_case[0].dense()
        np.testing.assert_array_equal(dense, [0, 0.70, 0.10, 0, 0, 0, 0, 0.20])
        q = superset_zeta(dense)
        # q({A1}) collects the focal sets holding A1: {A1} and the frame
        assert q[0b001] == pytest.approx(0.90)
        assert q[0b111] == pytest.approx(0.20)
        assert q[0] == pytest.approx(1.0)

    def test_crossover_sends_small_inputs_to_the_fold(self):
        assert _fold_is_cheaper(3, 3, 4)  # the iris classifier's self-combination
        assert _fold_is_cheaper(2, 12, 2)
        assert not _fold_is_cheaper(6, 3, 12)
        assert not _fold_is_cheaper(5, 4, 16)
        assert not _fold_is_cheaper(40, 12, 8)

    @pytest.mark.parametrize("times, combinations", [(1, 0), (2, 1), (4, 2), (5, 3), (7, 4)])
    def test_fold_squares(self, fault_case, monkeypatch, times, combinations):
        calls = []
        monkeypatch.setattr(core, "dcr_pair", lambda a, b: calls.append(1) or dcr_pair(a, b))
        _assert_agree(self_fuse(fault_case[0], times), _fold(fault_case[0], times))
        assert len(calls) == combinations


@st.composite
def _self_fuse_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    max_focals = draw(st.integers(min_value=1, max_value=6))
    m = random_mass_function(np.random.default_rng(seed), _frame(n), max_focals=max_focals)
    return m, draw(st.integers(min_value=1, max_value=30))


class TestSelfFuseAgainstFold:
    """The dense k-fold combination against the pairwise oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=_self_fuse_cases())
    def test_random_frames_and_operand_counts(self, case):
        m, times = case
        reference = _fold(m, times)
        for fused in (self_fuse(m, times), _dense_self_fuse(m, times) if times > 1 else m):
            assert set(fused.focal_elements()) == set(reference.focal_elements())
            _assert_agree(fused, reference)
            values = np.array([v for _, v in fused.items()])
            assert np.isfinite(values).all() and (values > 0).all()

    @pytest.mark.parametrize("n, times, focals", [(12, 8, 40), (20, 6, 4), (6, 24, 6)])
    def test_fixed_cases(self, n, times, focals):
        # n = 12 with many compound sets; n = 20, whose 2**20 commonalities
        # are all computed; 24 operands, where q**24 spans many decades
        rng = np.random.default_rng(n * 100 + times)
        m = random_mass_function(rng, _frame(n), max_focals=focals, omega_floor=0.01)
        reference = _fold(m, times)
        _assert_agree(self_fuse(m, times), reference)
        _assert_agree(_dense_self_fuse(m, times), reference)

    def test_near_total_conflict(self):
        # five disjoint singletons: only 5 * 0.2**24 = 8e-17 of the mass
        # survives 24 operands, yet each pairwise step keeps 1/5 of it
        m = MassFunction(_frame(5), {1 << j: 0.2 for j in range(5)})
        fused = _dense_self_fuse(m, 24)
        _assert_agree(fused, _fold(m, 24))
        skewed = MassFunction(_frame(5), {1: 0.6, 2: 0.1, 4: 0.1, 8: 0.1, 16: 0.1})
        _assert_agree(_dense_self_fuse(skewed, 24), _fold(skewed, 24))

    @pytest.mark.parametrize("masses", [
        {1 << j: 0.2 for j in range(5)},
        {0b00001: 0.3, 0b00011: 0.2, 0b00100: 0.2, 0b01100: 0.15, 0b10000: 0.1, 0b11111: 0.05},
    ])
    def test_underflowed_survivors_agree_with_fold(self, masses):
        # 5 * 0.2**500 underflows to 0 unless the commonalities are scaled
        m = MassFunction(_frame(5), masses)
        _assert_agree(self_fuse(m, 500), _fold(m, 500))

    @pytest.mark.parametrize("times", [1080, 5000])
    @pytest.mark.parametrize("masses", [
        {1: 0.5, 2: 0.5},
        {1 << j: 0.2 for j in range(5)},
        {0b00001: 0.3, 0b00011: 0.2, 0b00100: 0.2, 0b01100: 0.15, 0b10000: 0.1, 0b11111: 0.05},
    ])
    def test_renormalised_power_agrees_with_fold(self, masses, times):
        # the largest commonality scaled into [0.5, 1) still underflows
        # as 0.5**times, so the power is rescaled after every product
        m = MassFunction(_frame(5), masses)
        _assert_agree(self_fuse(m, times), _fold(m, times))

    def test_two_equal_singletons_return_the_input(self):
        m = MassFunction(_frame(5), {1: 0.5, 2: 0.5})
        assert self_fuse(m, 1080) == m

    def test_supports_are_found_once_per_focal_pattern(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "_intersections",
                            lambda *args: calls.append(1) or _intersections(*args))
        a = MassFunction(_frame(4), {0b0011: 0.5, 0b0110: 0.3, 0b1111: 0.2})
        b = MassFunction(_frame(4), {0b0011: 0.1, 0b0110: 0.6, 0b1111: 0.3})
        c = MassFunction(_frame(4), {0b0011: 0.7, 0b1111: 0.3})
        focal, table = core._mass_table([a, b, c, a])
        supports = {}
        for _ in range(2):
            support, fused, conflict, failed = core._self_combine_rows(focal, table, 6, 4, supports)
        assert len(supports) == 2
        assert len(calls) == 2  # two focal patterns, found in the first call only
        assert not failed.any()
        for row, m in zip(fused, (a, b, c, a)):
            # each row is bit-equal to combining its mass alone
            assert MassFunction(m.frame, dict(zip(support.tolist(), row.tolist()))) == (
                _dense_self_fuse(m, 6))

    @pytest.mark.parametrize("masses", [{0b001: 0.5, 0b010: 0.5}, {0b001: 0.25, 0b010: 0.75}])
    def test_one_operand_returns_the_input(self, masses):
        # used to raise TotalConflictError with K = 0.0: the threshold on the
        # survivor total is 1 for one operand, and the total is exactly 1
        m = MassFunction(_frame(3), masses)
        assert _dense_self_fuse(m, 1) is m
        focal, table = core._mass_table([m, m])
        support, fused, conflict, failed = core._self_combine_rows(focal, table, 1, 3, {})
        assert support.tolist() == list(m.focal_elements())
        assert fused.tolist() == [[v for _, v in m.items()]] * 2
        assert conflict.tolist() == [0.0, 0.0] and not failed.any()

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_intersection_of_n_minus_one_operands(self, n):
        # the frame minus one other event each: only all n - 1 of them
        # together leave the first event alone
        focal = np.array(sorted((1 << n) - 1 ^ 1 << k for k in range(1, n)))
        assert 1 not in _intersections(focal, n - 2, 1 << n).tolist()
        assert 1 in _intersections(focal, n - 1, 1 << n).tolist()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=9), seed=st.integers(0, 2**32 - 1),
           extra=st.integers(min_value=0, max_value=3))
    def test_intersection_closure_matches_brute_force(self, n, seed, extra):
        # from n - 1 operands on, the support is every nonempty intersection
        # of focal sets, found by one pass over the masks
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, min(12, (1 << n) - 1) + 1))
        focal = np.sort(rng.choice(np.arange(1, 1 << n), size=k, replace=False))
        closure = set(focal.tolist())
        while True:
            grown = closure | {a & b for a in closure for b in focal.tolist()}
            if grown == closure:
                break
            closure = grown
        expected = sorted(closure - {0})
        assert _intersections(focal, max(1, n - 1) + extra, 1 << n).tolist() == expected

    def test_nested_focal_sets_keep_tiny_masses(self):
        # no magnitude cut: mass of order 1e-15 on {E1} survives
        m = MassFunction(_frame(4), {0b0001: 1e-8, 0b0011: 0.5 - 1e-8, 0b1111: 0.5})
        fused = _dense_self_fuse(m, 2)
        assert fused.mass(0b0001) > 0.0
        _assert_agree(fused, _fold(m, 2))


class TestEventEvidence:
    def test_by_label_and_index(self, frame3):
        assert event_evidence(frame3, "A1") == MassFunction(frame3, {"A1": 1.0})
        assert event_evidence(frame3, 2) == MassFunction(frame3, {"A3": 1.0})

    def test_out_of_range(self, frame3):
        with pytest.raises(IndexError):
            event_evidence(frame3, 3)

    def test_pignistic_one_hot(self, frame3):
        probs = event_evidence(frame3, 1).pignistic()
        np.testing.assert_allclose(probs, [0.0, 1.0, 0.0])

    def test_full_belief_in_own_event(self, frame3):
        assert event_evidence(frame3, "A2").belief("A2") == 1.0


# randomized invariants ----------------------------------------------------

_frames = st.integers(min_value=2, max_value=5).map(
    lambda n: Frame(tuple(f"E{i + 1}" for i in range(n)))
)


@st.composite
def bbas(draw, omega_floor=0.0, frame=None):
    if frame is None:
        frame = draw(_frames)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_mass_function(np.random.default_rng(seed), frame, omega_floor=omega_floor)


@st.composite
def bba_pairs(draw, omega_floor=0.0):
    frame = draw(_frames)
    return (
        draw(bbas(omega_floor=omega_floor, frame=frame)),
        draw(bbas(omega_floor=omega_floor, frame=frame)),
    )


@st.composite
def bba_triples(draw, omega_floor=0.0):
    frame = draw(_frames)
    return tuple(draw(bbas(omega_floor=omega_floor, frame=frame)) for _ in range(3))


class TestRandomizedInvariants:
    @given(pair=bba_pairs(omega_floor=0.05))
    def test_combination_stays_normalized(self, pair):
        fused = dcr_pair(*pair)
        assert abs(sum(v for _, v in fused.items()) - 1.0) <= 1e-9

    @given(m=bbas())
    def test_bel_le_pl_everywhere(self, m):
        for mask in m.frame.subsets():
            assert m.belief(mask) <= m.plausibility(mask) + 1e-12

    @given(m=bbas())
    def test_pignistic_is_distribution(self, m):
        probs = m.pignistic()
        assert (probs >= -1e-15).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @given(pair=bba_pairs(omega_floor=0.05))
    def test_commutativity(self, pair):
        ab = dcr_pair(*pair)
        ba = dcr_pair(*reversed(pair))
        for mask in ab.focal_elements():
            assert ba.mass(mask) == pytest.approx(ab.mass(mask), abs=1e-12)

    @settings(max_examples=50)
    @given(triple=bba_triples(omega_floor=0.05))
    def test_associativity(self, triple):
        a, b, c = triple
        left = dcr_pair(dcr_pair(a, b), c)
        right = dcr_pair(a, dcr_pair(b, c))
        for mask in left.focal_elements():
            assert right.mass(mask) == pytest.approx(left.mass(mask), abs=1e-12)

    @given(m=bbas())
    def test_vacuous_is_identity(self, m):
        fused = dcr_pair(m, vacuous(m.frame))
        for mask in m.focal_elements():
            assert fused.mass(mask) == pytest.approx(m.mass(mask), abs=1e-12)
