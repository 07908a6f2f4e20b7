"""Frame, mass-function, and combination-rule behavior."""

import functools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from credfuse import core, decide, fusion
from credfuse.core import MAX_EVENTS, _intersections

from . import reference
from .conftest import random_bayesian_mass, random_mass_function


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

    @pytest.mark.parametrize("labels", [("A,B", "C"), (" A", "B"), ("A", "B\t"), (",",),
                                        ("A", "\u00a0")])
    def test_rejects_labels_that_a_subset_string_cannot_name(self, labels):
        # these used to build frames whose documents could not be read back
        with pytest.raises(ValueError, match="subset string"):
            Frame(labels)

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


def _spellings(frame, mask):
    """The keys that name the subset ``mask``: the mask, its labels in
    either order, and their comma-joined strings."""
    labels = frame.labels_of(mask)
    spellings = [mask, labels, labels[::-1], frozenset(labels)]
    if labels:
        spellings += [",".join(labels), ",".join(labels[::-1])]
    return list(dict.fromkeys(spellings))


@st.composite
def _respelled_masses(draw):
    """A frame of one to four events and a mass dict that spells its first
    subset two or three ways and may spell the others so too, with masses
    that may be negative, zero, not finite or not normalized."""
    frame = _frame(draw(st.integers(1, 4)))
    value = st.one_of(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0, math.nan, math.inf]),
                      st.floats(-2.0, 2.0))
    masses = {}
    masks = draw(st.lists(st.integers(0, frame.full_mask), min_size=1, max_size=5))
    for i, mask in enumerate(masks):
        keys = st.lists(st.sampled_from(_spellings(frame, mask)), min_size=2 if i == 0 else 1,
                        max_size=3, unique=True)
        for key in draw(keys):
            masses[key] = draw(value)
    return frame, masses


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

    def test_a_negative_mass_is_not_cancelled_by_a_second_spelling(self):
        # the constructor used to add the two spellings first and accept
        # the mass {A1}: 1, which validate_masses refused
        frame, masses = Frame(("A1", "A2")), {"A1,A2": -0.5, "A2,A1": 0.5, "A1": 1.0}
        assert isinstance(validate_masses(frame, masses), NegativeMassError)
        with pytest.raises(NegativeMassError, match="-0.5"):
            MassFunction(frame, masses)

    @settings(max_examples=300, deadline=None)
    @given(case=_respelled_masses())
    @example(case=(Frame(("A1", "A2")), {"A1,A2": -0.5, "A2,A1": 0.5, "A1": 1.0}))
    @example(case=(Frame(("A1", "A2")), {"A1": 0.25, ("A1",): 0.25, 2: 0.5}))
    @example(case=(Frame(("A1", "A2")), {0: 0.5, (): -0.5, "A2": 1.0}))
    def test_validate_masses_returns_what_the_constructor_raises(self, case):
        frame, masses = case
        error = validate_masses(frame, masses)
        try:
            MassFunction(frame, masses)
        except core.MassFunctionError as raised:
            assert type(raised) is type(error) and raised.args == error.args
        else:
            assert error is None



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

    def test_times_must_be_positive(self, monkeypatch):
        # on this mass 2.0 and 2.5 used to fail in range() inside
        # _intersections, 3.0 returned a result and True was read as 1
        m = MassFunction(_frame(4), {0b0011: 0.5, 0b0110: 0.3, 0b1111: 0.2})
        for name in ("_SelfCombination", "_self_combined"):  # refused before any work
            monkeypatch.setattr(core, name, None)
        for times in [0, -3, 2.0, 2.5, 3.0, True, False, "2", None]:
            with pytest.raises(ValueError, match=re.escape(f"got {times!r}")):
                self_fuse(m, times)

    def test_numpy_integer_times(self, fault_case):
        assert self_fuse(fault_case[0], np.int64(3)) == self_fuse(fault_case[0], 3)

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

    @pytest.mark.parametrize("shape", [(4, 3), (2, 6), (100, 12), (3,), (0,), (1536,), ()])
    def test_a_last_axis_not_a_power_of_two_is_refused(self, shape):
        # a flat view would pair entries across rows, or reshape would fail
        for transform in (superset_zeta, superset_mobius):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                transform(np.ones(shape))

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


def _oracle_zeta(v):
    return reference.butterfly(np.asarray(v, dtype=float), np.add)


def _oracle_mobius(v):
    return reference.butterfly(np.asarray(v, dtype=float), np.subtract)


def _oracle_intersections(focal, size):
    """The closure branch of ``_intersections`` on the oracle's loop."""
    common = np.full(size, 2 * size - 1)
    common[focal] = focal
    closed = reference.butterfly(common, np.bitwise_and) == np.arange(size)
    closed[0] = False
    return closed.nonzero()[0]


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _spread_values(rng, shape):
    """Signed values over many decades, so that a change in the order of
    the additions changes the rounding."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)


class TestButterflyAgainstOracle:
    """``superset_zeta``, ``superset_mobius``, the self-combination's plan
    and the ``&`` closure of ``_intersections`` run the butterfly in two
    layouts; every result has the bits of the reference loop."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), rows=st.integers(min_value=1, max_value=9),
           seed=st.integers(0, 2**32 - 1))
    @example(n=7, rows=8, seed=0)  # 1024 entries, the first to take the transposed copy
    @example(n=12, rows=9, seed=1)
    def test_every_butterfly_equals_the_loop(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        v = _spread_values(rng, (rows, 1 << n))
        zeta = reference.butterfly(v, np.add)
        _assert_same_bits(superset_zeta(v), zeta)
        _assert_same_bits(superset_mobius(v), reference.butterfly(v, np.subtract))
        # the plan runs zeta and then Moebius on its one buffer, as
        # _self_combined does, and keeps its views from run to run
        plan = core._SelfCombination(np.array([(1 << n) - 1]), 2, n).plan(rows)
        plan.v[...] = v
        _assert_same_bits(plan(np.add), zeta)
        _assert_same_bits(plan(np.subtract), reference.butterfly(zeta, np.subtract))
        masks = rng.integers(0, 2 << n, (rows, 1 << n))
        np.testing.assert_array_equal(core._butterfly(masks.copy(), np.bitwise_and),
                                      reference.butterfly(masks, np.bitwise_and))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=0, max_value=12), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_stacks_of_rows(self, n, seed, data):
        # up to 2**14 entries: small stacks take the in-place steps, larger
        # ones the transposed copy, with any count of rows
        rows = data.draw(st.integers(min_value=1, max_value=max(1, (1 << 14) >> n)))
        split = data.draw(st.sampled_from([None, 2, 3]))
        order = data.draw(st.sampled_from(["C", "F"]))
        shape = (rows, 1 << n) if split is None or rows % split else (
            split, rows // split, 1 << n)
        rng = np.random.default_rng(seed)
        v = np.asarray(_spread_values(rng, shape), order=order)
        before = v.copy()
        _assert_same_bits(superset_zeta(v), _oracle_zeta(v))
        _assert_same_bits(superset_mobius(v), _oracle_mobius(v))
        np.testing.assert_array_equal(v, before)  # the input is not touched
        masks = rng.integers(0, 2 * (1 << n), shape)
        got = core._butterfly(masks.copy(), np.bitwise_and)
        np.testing.assert_array_equal(got, reference.butterfly(masks, np.bitwise_and))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
    def test_intersection_closure(self, n, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, min(40, (1 << n) - 1) + 1))
        focal = np.sort(rng.choice(np.arange(1, 1 << n), size=k, replace=False))
        np.testing.assert_array_equal(_intersections(focal, max(1, n - 1), 1 << n),
                                      _oracle_intersections(focal, 1 << n))

    @pytest.mark.parametrize("shape", [(1, 1 << 16), (3, 1 << 16), (1 << 20,)])
    def test_wide_frames(self, shape):
        v = _spread_values(np.random.default_rng(len(shape) * 16 + shape[0]), shape)
        _assert_same_bits(superset_zeta(v), _oracle_zeta(v))
        _assert_same_bits(superset_mobius(v), _oracle_mobius(v))

    @pytest.mark.parametrize("n", [16, 20])
    def test_wide_intersection_closure(self, n):
        rng = np.random.default_rng(n)
        focal = np.sort(rng.choice(np.arange(1, 1 << n), size=30, replace=False))
        focal[-1] = (1 << n) - 1
        np.testing.assert_array_equal(_intersections(focal, n - 1, 1 << n),
                                      _oracle_intersections(focal, 1 << n))

    def test_the_ufunc_buffer_size_is_restored(self):
        with np.errstate():
            np.setbufsize(4096)
            superset_zeta(np.ones(1 << 12))
            assert np.getbufsize() == 4096


@st.composite
def _self_fuse_cases(draw):
    """A random mass on n = 1..8, on singletons only (Bayesian) in about half
    of the draws, and 1..30 operands."""
    n = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        m = random_bayesian_mass(rng, _frame(n))
    else:
        max_focals = draw(st.integers(min_value=1, max_value=6))
        m = random_mass_function(rng, _frame(n), max_focals=max_focals)
    return m, draw(st.integers(min_value=1, max_value=30))


def _combine_rows(masses, combination):
    """``(support, fused, conflict, failed)`` of the self-combination of each
    row of ``masses`` under ``combination``, read as :func:`self_fuse` reads
    its one row: :func:`core._self_combined`, the conflict K of
    :func:`core._conflict` and :meth:`core._SelfCombination.failed`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fused, totals, shift = core._self_combined(masses, combination)
        return (combination.support, fused, core._conflict(totals, shift),
                combination.failed(totals, shift))


class TestSelfFuseAgainstFold:
    """The dense k-fold combination against the pairwise oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=_self_fuse_cases())
    def test_random_frames_and_operand_counts(self, case):
        m, times = case
        reference = _fold(m, times)
        fused = self_fuse(m, times)
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
        _assert_agree(self_fuse(m, times), _fold(m, times))

    def test_near_total_conflict(self):
        # five disjoint singletons: only 5 * 0.2**24 = 8e-17 of the mass
        # survives 24 operands, yet each pairwise step keeps 1/5 of it
        m = MassFunction(_frame(5), {1 << j: 0.2 for j in range(5)})
        fused = self_fuse(m, 24)
        _assert_agree(fused, _fold(m, 24))
        skewed = MassFunction(_frame(5), {1: 0.6, 2: 0.1, 4: 0.1, 8: 0.1, 16: 0.1})
        _assert_agree(self_fuse(skewed, 24), _fold(skewed, 24))

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
        # 0.5**times underflows too, so only a largest commonality scaled
        # to exactly 1 keeps the largest power representable
        m = MassFunction(_frame(5), masses)
        _assert_agree(self_fuse(m, times), _fold(m, times))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8),
           times=st.sampled_from([2, 30, 200, 500, 1080, 2000, 5000]),
           spread=st.sampled_from([1e-4, 1e-2, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_bayesian_entries_within_times_ulps_of_exact(self, n, times, spread, seed):
        # every entry whose exact value is at least 2**-50 is within
        # ``times`` ulps of it, relative; ``spread`` sets how far apart the
        # masses lie, so that several survive even thousands of operands
        rng = np.random.default_rng(seed)
        events = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        weights = 1.0 + spread * rng.random(len(events))
        m = MassFunction(_frame(n), dict(zip((1 << events).tolist(),
                                             (weights / weights.sum()).tolist())))
        masks, masses = zip(*m.items())
        fused = self_fuse(m, times)
        ulps = times * Fraction(2) ** -52
        for mask, exact in zip(masks, reference.bayesian_self_fuse(masses, times)):
            if exact >= Fraction(2) ** -50:
                assert exact * (1 - ulps) <= Fraction(fused.mass(mask)) <= exact * (1 + ulps)

    def test_scaled_rows_keep_their_conflict(self):
        # the first row's powers are scaled: its survivor total, 5 * 0.2**500,
        # lies far below 2**-969, so K rounds to 1; the second row's largest
        # power 0.996**500 needs no scaling, and it keeps its own K
        table = np.array([[0.2] * 5, [0.996] + [0.001] * 4])
        support, fused, conflict, failed = _combine_rows(
            table, core._SelfCombination(1 << np.arange(5), 500, 5))
        assert conflict[0] == 1.0
        assert conflict[1] == pytest.approx(1.0 - 0.996**500, rel=1e-12)
        assert not failed.any()
        assert fused[0].tolist() == [0.2] * 5

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
        combination = core._SelfCombination(focal, 6, 4)
        for _ in range(2):
            support, fused, conflict, failed = _combine_rows(table, combination)
        # the call's support, on every focal set, and the mask of the one
        # partial pattern, c's; the full pattern needs none
        assert len(combination.within) == 1
        assert len(calls) == 2  # found in the first call only
        assert not failed.any()
        for row, m in zip(fused, (a, b, c, a)):
            # each row is bit-equal to combining its mass alone
            assert MassFunction(m.frame, dict(zip(support.tolist(), row.tolist()))) == (
                self_fuse(m, 6))

    @pytest.mark.parametrize("masses", [{0b001: 0.5, 0b010: 0.5}, {0b001: 0.25, 0b010: 0.75}])
    def test_one_operand_returns_the_input(self, masses):
        # used to raise TotalConflictError with K = 0.0: the threshold on the
        # survivor total is 1 for one operand, and the total is exactly 1
        m = MassFunction(_frame(3), masses)
        assert self_fuse(m, 1) is m
        focal, table = core._mass_table([m, m])
        support, fused, conflict, failed = _combine_rows(
            table, core._SelfCombination(focal, 1, 3))
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
        fused = self_fuse(m, 2)
        assert fused.mass(0b0001) > 0.0
        _assert_agree(fused, _fold(m, 2))


class TestSelfCombinationPlan:
    """A combination's one plan buffer serves every call under it, and no
    result holds any of it."""

    @pytest.mark.parametrize("times", [6, 5000])
    def test_calls_give_the_bytes_of_fresh_combinations(self, times):
        # three rows, three others, then two: the second call reuses the
        # plan, the third rebuilds it for its row count; at 5000 operands
        # every power is scaled in the buffer.  A zero entry in the first
        # row reads it on its own support.  The fresh combination's buffer
        # starts as NaN, so nothing a call leaves unwritten can count
        rng = np.random.default_rng(times)
        focal = np.array([0b0011, 0b0110, 0b1100, 0b1111])
        combination = core._SelfCombination(focal, times, 4)
        for rows in (3, 3, 2):
            masses = rng.uniform(0.1, 1.0, (rows, len(focal)))
            masses[0, 1] = 0.0
            masses /= masses.sum(axis=1, keepdims=True)
            got = core._self_combined(masses, combination)
            fresh = core._SelfCombination(focal, times, 4)
            fresh.plan(rows).v.fill(np.nan)
            want = core._self_combined(masses, fresh)
            assert (np.ndim(got[2]) == 1) == (times == 5000)  # the scaled rows' shifts
            for mine, theirs in zip(got, want):
                assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()
                assert not np.shares_memory(mine, combination.plan(rows).v)


def _singleton_table(rng, n, rows, zeros=0.3):
    """Ascending singleton masks of an n-event frame and a random table of
    masses on them, of shape ``(*rows, len(masks))``: about a fraction
    ``zeros`` of the entries zero, in several patterns, and in some tables
    masses that span hundreds of decades, so that products and powers
    underflow.  With ``zeros=0`` every entry is nonzero (the smallest
    subnormal where a power underflowed), so the table has one pattern."""
    events = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    masses = rng.random((*rows, len(events))) ** rng.choice([1, 4, 40, 300])
    masses[rng.random(masses.shape) < zeros] = 0.0
    empty = ~masses.any(axis=-1)
    masses[empty, rng.integers(len(events))] = 1.0
    masses /= masses.sum(axis=-1, keepdims=True)
    if not zeros:
        masses[masses == 0.0] = 5e-324
    return 1 << events, masses


def _with_zero_column(focal, masses, n):
    """The same masses with a zero column on a mask that is not a singleton
    (the full frame, or the empty set when n = 1), which sends a call down
    the general path and changes no row's result."""
    extra = (1 << n) - 1 if n > 1 else 0
    at = int(np.searchsorted(focal, extra))
    return np.insert(focal, at, extra), np.insert(masses, at, 0.0, axis=-1)


def _assert_same_rows(got, want, focal):
    """``got`` from the singleton branch, on the support ``focal``, gives
    each row the nonzero (mask, mass) pairs, K and ``failed`` of ``want``
    from the general path, bit for bit."""
    def pairs(support, fused):
        return [[(m, v.hex()) for m, v in zip(support.tolist(), row) if v]
                for row in fused.tolist()]

    assert got[0].tolist() == focal.tolist() and got[1].shape == (len(want[1]), len(focal))
    assert pairs(*got[:2]) == pairs(*want[:2])
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3].tolist() == want[3].tolist()


def _assert_same_fold(got, want, focal):
    """:func:`_assert_same_rows` for folds, whose failed sets are zero."""
    _assert_same_rows(got, want, focal)
    assert not got[1][got[3]].any()


_NO_TRANSFORM = dict.fromkeys(["superset_zeta", "superset_mobius", "_dcr_pair"])


class TestBayesianKernels:
    """On singletons only, ``_self_combined`` skips the power-set
    transforms and ``_dcr_fold`` multiplies elementwise; both give the bits
    of the general path (the transforms, or the per-set fold), which a zero
    column on a compound mask forces."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=MAX_EVENTS), seed=st.integers(0, 2**32 - 1),
           times=st.sampled_from([1, 2, 3, 7, 30, 500, 1080, 2000]), one_pattern=st.booleans(),
           eps=st.sampled_from([core.CONFLICT_EPS, 0.3, 0.9]))
    @example(n=20, seed=1, times=2, one_pattern=False, eps=core.CONFLICT_EPS)
    @example(n=20, seed=2, times=2000, one_pattern=False, eps=core.CONFLICT_EPS)
    @example(n=12, seed=3, times=500, one_pattern=False, eps=core.CONFLICT_EPS)
    @example(n=9, seed=4, times=1080, one_pattern=False, eps=core.CONFLICT_EPS)
    @example(n=8, seed=4, times=2, one_pattern=False, eps=core.CONFLICT_EPS)
    @example(n=8, seed=4, times=2, one_pattern=True, eps=core.CONFLICT_EPS)
    @example(n=8, seed=4, times=1080, one_pattern=False, eps=0.3)
    @example(n=20, seed=9, times=2000, one_pattern=True, eps=0.3)
    @example(n=20, seed=10, times=2, one_pattern=False, eps=0.9)
    @example(n=1, seed=11, times=3, one_pattern=True, eps=0.9)
    def test_self_combination_equals_the_transform_path(self, n, seed, times, one_pattern, eps):
        # with one pattern every entry is nonzero; at eps 0.3 and 0.9 most
        # rows of two or more masks fail; from 1080 operands on every such
        # row takes the scaled power.  Each call runs twice under one
        # combination, as the icef loop's iterations do
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 3 if n > 12 else 7))
        focal, masses = _singleton_table(rng, n, (rows,), zeros=0.0 if one_pattern else 0.3)
        # every singleton table is read on ``focal`` itself: it searches no
        # pattern and finds no support by intersection.  The combination
        # reads the threshold when it is built
        skipped = dict(_NO_TRANSFORM, _intersections=None, _focal_patterns=None)
        with mock.patch.object(core, "_LOG2_CONFLICT_EPS", math.log2(eps)):
            combination = core._SelfCombination(focal, times, n)
            with mock.patch.multiple(core, **skipped):
                got = _combine_rows(masses, combination)
                again = _combine_rows(masses, combination)
            wide_focal, wide = _with_zero_column(focal, masses, n)
            want = _combine_rows(wide, core._SelfCombination(wide_focal, times, n))
        for result in (got, again):
            assert result[0] is focal
            _assert_same_rows(result, want, focal)
        assert not combination.within

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=MAX_EVENTS), seed=st.integers(0, 2**32 - 1),
           every_event=st.booleans(), rows=st.sampled_from([(), (1,), (5,), (2, 3)]))
    @example(n=1, seed=0, every_event=True, rows=(5,))
    @example(n=20, seed=1, every_event=True, rows=(2, 3))
    @example(n=3, seed=2, every_event=False, rows=(5,))
    def test_singleton_pignistic_equals_the_membership_sum(self, n, seed, every_event, rows):
        # on the frame's n singletons the masses are placed at their events;
        # rows of NaN, as a failed self-combination's 0/0 leaves them, too
        rng = np.random.default_rng(seed)
        focal, masses = _singleton_table(rng, n, rows or (1,))
        if every_event:  # the same masses, at their events among all n singletons
            spread = np.zeros((*masses.shape[:-1], n))
            spread[..., np.bitwise_count(focal - 1)] = masses
            focal, masses = 1 << np.arange(n), spread
        masses[rng.random(masses.shape[:-1]) < 0.3] = np.nan
        if not rows:
            masses = masses[0]
        layout = core._pignistic_layout(focal, n)
        assert (layout is None) == (len(focal) == n)
        got = core._pignistic_rows(masses, layout)
        want = reference.pignistic_rows(focal, masses, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, masses)  # MassFunction.pignistic hands it out

    def test_icef_finds_the_per_call_facts_once(self, monkeypatch):
        # a Bayesian set of nonzero masses: one singleton test for the masks
        # and one for the pignistic layout, no pattern search, however many
        # iterations the loop runs
        frame = _frame(3)
        ms = [MassFunction(frame, dict(zip((1, 2, 4), masses)))
              for masses in ((0.5, 0.3, 0.2), (0.2, 0.6, 0.2), (0.1, 0.1, 0.8))]
        calls = []

        def counted(name):
            original = getattr(core, name)
            return lambda *args: calls.append(name) or original(*args)

        focal, table = core._mass_table(ms)
        for name in ("_singletons_only", "_pignistic_layout"):
            monkeypatch.setattr(core, name, counted(name))
        monkeypatch.setattr(core, "_focal_patterns", None)
        end = fusion._icef_loop(frame, focal, table[None], fusion.IcefConfig())
        assert end.n_iter[0] >= 3 and end.converged[0]
        assert sorted(calls) == ["_pignistic_layout", "_singletons_only", "_singletons_only"]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=MAX_EVENTS), seed=st.integers(0, 2**32 - 1),
           pieces=st.integers(min_value=1, max_value=7),
           eps=st.sampled_from([core.CONFLICT_EPS, 0.05, 0.3]), clash=st.booleans())
    @example(n=20, seed=5, pieces=6, eps=core.CONFLICT_EPS, clash=True)
    @example(n=12, seed=6, pieces=7, eps=0.05, clash=False)
    @example(n=9, seed=7, pieces=4, eps=0.3, clash=True)
    @example(n=5, seed=8, pieces=1, eps=core.CONFLICT_EPS, clash=False)
    def test_fold_equals_the_transform_path(self, n, seed, pieces, eps, clash):
        rng = np.random.default_rng(seed)
        focal, table = _singleton_table(rng, n, (int(rng.integers(1, 9)), pieces))
        if clash and len(focal) > 1 and pieces > 1:
            # some sets hold the first mask and not mask j until a random
            # step, where a piece on mask j alone leaves no mass: they fail
            # at that step at the latest
            for b in rng.choice(len(table), size=int(rng.integers(1, len(table) + 1))):
                step, j = int(rng.integers(1, pieces)), int(rng.integers(1, len(focal)))
                table[b, 0, j] = 0.0
                table[b, :step, 0] += 0.5
                table[b, :step] /= table[b, :step].sum(axis=-1, keepdims=True)
                table[b, step] = 0.0
                table[b, step, j] = 1.0
        frame = _frame(n)
        with mock.patch.object(core, "CONFLICT_EPS", eps):
            with mock.patch.multiple(core, **_NO_TRANSFORM):
                got = core._dcr_fold(frame, focal, table)
            wide_focal, wide = _with_zero_column(focal, table, n)
            want = core._dcr_fold(frame, wide_focal, wide)
        _assert_same_fold(got, want, focal)

    def test_failing_sets_leave_the_fold_at_their_step(self, monkeypatch):
        frame = _frame(3)
        a, b, c = (MassFunction(frame, {1: 0.6, 2: 0.4}), MassFunction(frame, {1: 0.5, 4: 0.5}),
                   MassFunction(frame, {1: 0.9, 2: 0.1}))
        clash = event_evidence(frame, 2)
        sets = [[a, b, c, clash], [a, clash, b, c], [a, b, clash, c]]  # fail at steps 3, 1, 2
        focal, table = core._mass_table([m for ms in sets for m in ms])
        table = table.reshape(3, 4, -1)
        live = []
        step = core._bayesian_step
        monkeypatch.setattr(core, "_bayesian_step", lambda vb, vc: live.append(len(vb)) or
                            step(vb, vc))
        got = core._dcr_fold(frame, focal, table)
        monkeypatch.undo()
        assert live == [3, 2, 1]
        assert got[3].tolist() == [True] * 3 and not got[1].any()
        for ms, conflict in zip(sets, got[2].tolist()):
            with pytest.raises(TotalConflictError) as error:
                dcr_n(ms)
            assert conflict == error.value.conflict == 1.0
        wide_focal, wide = _with_zero_column(focal, table, 3)
        _assert_same_fold(got, core._dcr_fold(frame, wide_focal, wide), focal)


def _dict_rows(frame, masks, table):
    """The reference for ``core._mass_rows``: the dict constructor, row by row."""
    return [MassFunction(frame, dict(zip(masks.tolist(), row.tolist()))) for row in table]


def _built(build, *args):
    try:
        return build(*args)
    except core.MassFunctionError as error:
        return error


_SPECIALS = [math.nan, math.inf, -math.inf, -0.25, -1e-300, -0.0, 0.0, 5e-324, 2.0]


@st.composite
def _mass_tables(draw):
    """Tables on ascending masks (the empty set among them at times) whose rows
    hold exact zeros, totals at 1 +- NORMALIZATION_TOL and around it, and
    entries that are NaN, infinite, negative or out of range."""
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(min_value=1, max_value=min(12, (1 << n) - 1)))
    masks = np.sort(rng.choice(np.arange(1, 1 << n), size=width, replace=False))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        masks[0] = 0  # the empty set, which may hold only an exact zero
    rows = draw(st.integers(min_value=1, max_value=6))
    table = rng.random((rows, width)) * (rng.random((rows, width)) > 0.3)
    table[table.sum(axis=1) == 0.0, -1] = 1.0
    table /= table.sum(axis=1, keepdims=True)
    tol = core.NORMALIZATION_TOL
    scale = draw(st.sampled_from([1.0, 1 + tol, 1 - tol, 1 + 2 * tol, 1 - 2 * tol, 1 + tol / 2]))
    table[int(rng.integers(rows))] *= scale
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2, 3]))):
        table[rng.integers(rows), rng.integers(width)] = draw(st.sampled_from(_SPECIALS))
    return _frame(n), masks, table


# the row checks on arrays, and the loop that small tables take
_CHECK_PATHS = pytest.mark.parametrize("loop_entries", [0, 10**6], ids=["arrays", "loop"])


class TestMassRows:
    """The row constructor against ``MassFunction(frame, dict)`` row by row."""

    @_CHECK_PATHS
    @settings(max_examples=300, deadline=None)
    @given(case=_mass_tables())
    def test_matches_dict_constructor(self, case, loop_entries):
        frame, masks, table = case
        want = _built(_dict_rows, frame, masks, table)
        with mock.patch.object(core, "_LOOP_CHECK_ENTRIES", loop_entries):
            got = _built(core._mass_rows, frame, masks, table)
        if isinstance(want, Exception):
            # the first invalid row, and in it the first broken rule
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert got == want
        for g, w in zip(got, want):
            assert g.frame is frame
            assert g.focal_elements() == w.focal_elements()
            assert g._values.tobytes() == w._values.tobytes()
            assert g.pignistic().tobytes() == w.pignistic().tobytes()
            assert hash(g) == hash(w)

    @_CHECK_PATHS
    def test_every_rule_in_order(self, monkeypatch, loop_entries):
        monkeypatch.setattr(core, "_LOOP_CHECK_ENTRIES", loop_entries)
        frame = _frame(2)
        masks = np.array([0, 1, 2, 3])
        cases = [
            ([0.0, 0.5, 0.5, 0.0], None),
            ([0.0, math.nan, -1.0, 2.0], InvalidMassValueError),
            ([0.1, 0.4, 0.5, 0.0], EmptySetFocalError),
            ([0.0, -0.5, math.inf, 1.5], NegativeMassError),
            ([0.0, 0.5, 0.5, 1e-8], NotNormalizedError),
            ([0.0, 1e308, 1e308, -1.0], NegativeMassError),
            ([0.0, 1e308, 1e308, 0.0], NotNormalizedError),  # the total overflows
        ]
        for values, error in cases:
            table = np.array([[0.0, 0.25, 0.25, 0.5], values])
            if error is None:
                assert core._mass_rows(frame, masks, table) == _dict_rows(frame, masks, table)
                continue
            with pytest.raises(error) as raised:
                core._mass_rows(frame, masks, table)
            with pytest.raises(error) as expected:
                _dict_rows(frame, masks, table)
            assert str(raised.value) == str(expected.value)

    @_CHECK_PATHS
    def test_total_is_summed_in_order(self, monkeypatch, loop_entries):
        monkeypatch.setattr(core, "_LOOP_CHECK_ENTRIES", loop_entries)
        # added in order these ten masses exceed 1 by more than the tolerance;
        # numpy's pairwise sum of them does not
        values = [float.fromhex(h) for h in (
            "0x1.d80871a6cd67ap-4", "0x1.535e2b33005dep-5", "0x1.3ab6be80cbde9p-4",
            "0x1.6071d50fdcb9bp-3", "0x1.44c3dda08e0cap-3", "0x1.316dd33546327p-3",
            "0x1.1bee6320011f8p-4", "0x1.64bc403e93145p-4", "0x1.e9a15c5ff8d81p-4",
            "0x1.5ff577cd7de80p-7")]
        table = np.array([values])
        assert abs(table.sum() - 1.0) <= core.NORMALIZATION_TOL
        with pytest.raises(NotNormalizedError) as raised:
            core._mass_rows(_frame(4), np.arange(1, 11), table)
        with pytest.raises(NotNormalizedError) as expected:
            _dict_rows(_frame(4), np.arange(1, 11), table)
        assert raised.value.total == expected.value.total

    def test_rows_of_one_pattern_share_their_masks(self):
        table = np.array([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75], [0.0, 1.0, 0.0]])
        a, b, c = core._mass_rows(_frame(2), np.array([1, 2, 3]), table)
        assert a._focal is b._focal and a.focal_elements() == (1, 3)
        assert c.focal_elements() == (2,)
        assert core._mass_rows(_frame(2), np.array([1, 2, 3]), table[:0]) == []


class TestEventEvidence:
    def test_by_label_and_index(self, frame3):
        assert event_evidence(frame3, "A1") == MassFunction(frame3, {"A1": 1.0})
        assert event_evidence(frame3, 2) == MassFunction(frame3, {"A3": 1.0})

    def test_out_of_range(self, frame3):
        with pytest.raises(IndexError):
            event_evidence(frame3, 3)

    @pytest.mark.parametrize("event", [True, False, 1.5, 1.0, None, np.float64(2.0)])
    def test_index_that_is_not_an_integer_rejected(self, frame3, event):
        # True and 1.5 used to assert event 1
        with pytest.raises(TypeError, match="integer index"):
            event_evidence(frame3, event)

    def test_numpy_integer_index(self, frame3):
        assert event_evidence(frame3, np.int64(2)) == event_evidence(frame3, 2)

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
