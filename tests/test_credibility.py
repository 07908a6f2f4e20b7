"""Difference matrices, support kernels, and credibility vectors."""

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
    InvalidMassValueError,
    MassFunction,
    PBAGDivergence,
    average_support_credibility,
    build_edmm,
    build_eem,
    conditional_credibility,
    eigenvalue_credibility,
    event_evidence,
    initial_prob_from_eem,
    initial_prob_uniform,
    pbagd,
    support_matrix,
    vacuous,
)
from credfuse import core, divergence
from credfuse.credibility import (
    EventEvaluationMatrix,
    NonpositiveTauError,
    PairwiseDifferenceMatrix,
)
from credfuse.divergence import DivergenceMeasure, register_measure

from . import reference
from .conftest import random_mass_function


class TestBuildEdmm:
    def test_identical_evidence_gives_zero_matrix(self, frame3):
        ms = [vacuous(frame3)] * 3
        edmm = build_edmm(ms, PBAGD)
        np.testing.assert_array_equal(edmm.values, np.zeros((3, 3)))

    def test_zero_diagonal_and_symmetry(self, fault_case):
        edmm = build_edmm(fault_case, PBAGD)
        np.testing.assert_array_equal(np.diag(edmm.values), np.zeros(5))
        np.testing.assert_array_equal(edmm.values, edmm.values.T)

    def test_entries_match_direct_recomputation(self, fault_case):
        edmm = build_edmm(fault_case, PBAGD)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert edmm.values[i, j] == pytest.approx(
                        pbagd(fault_case[i], fault_case[j]), abs=1e-15
                    )

    def test_permutation_equivariance(self, fault_case):
        perm = [3, 0, 4, 1, 2]
        edmm = build_edmm(fault_case, PBAGD).values
        permuted = build_edmm([fault_case[i] for i in perm], PBAGD).values
        np.testing.assert_allclose(permuted, edmm[np.ix_(perm, perm)], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), n_pieces=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           measure=st.sampled_from([PBAGD, BJS]), data=st.data())
    def test_permuting_the_evidence_permutes_the_matrix(self, n, n_pieces, seed, measure, data):
        # bit for bit, repeated pieces included; with the exact symmetry and
        # zero diagonal, this holds a matrix built any other way to the pairwise one
        rng = np.random.default_rng(seed)
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        ms = [random_mass_function(rng, frame) for _ in range(n_pieces)]
        ms[-1] = ms[int(rng.integers(n_pieces))]
        perm = data.draw(st.permutations(range(n_pieces)))
        values = build_edmm(ms, measure).values
        permuted = build_edmm([ms[i] for i in perm], measure).values
        assert permuted.tobytes() == values[np.ix_(perm, perm)].tobytes()
        assert values.tobytes() == values.T.tobytes()
        assert not values.diagonal().any()
        assert all(measure(m, m) == 0.0 for m in ms)

    def test_needs_two(self, fault_case):
        with pytest.raises(ValueError):
            build_edmm(fault_case[:1], PBAGD)


class TestBuildEem:
    def test_event_evidence_column_is_zero_at_own_event(self, frame3):
        eem = build_eem([event_evidence(frame3, 0)], frame3, PBAGD)
        assert eem.values[0, 0] == 0.0
        assert (eem.values[1:, 0] > 0).all()

    def test_fourth_report_supports_first_event_most(self, fault_case, frame3):
        eem = build_eem(fault_case, frame3, PBAGD)
        assert int(np.argmin(eem.values[0])) == 3

    def test_vacuous_evidence_equidistant_from_all_events(self, frame3):
        eem = build_eem([vacuous(frame3)], frame3, PBAGD)
        np.testing.assert_allclose(eem.values[:, 0], eem.values[0, 0])

    def test_entries_match_direct_recomputation(self, fault_case, frame3):
        eem = build_eem(fault_case, frame3, PBAGD)
        for j in range(3):
            assertion = event_evidence(frame3, j)
            for i, m in enumerate(fault_case):
                assert eem.values[j, i] == pytest.approx(pbagd(m, assertion), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12),
           n_pieces=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_closed_form_matches_pairwise_divergences(self, n, n_pieces, seed):
        # from n = 11 on, the pieces span more than one row block
        rng = np.random.default_rng(seed)
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        ms = [random_mass_function(rng, frame, max_focals=6) for _ in range(n_pieces)]
        ms.append(event_evidence(frame, int(rng.integers(n))))
        measure = PBAGDivergence()
        eem = build_eem(ms, frame, measure)
        for j in range(n):
            assertion = event_evidence(frame, j)
            for i, m in enumerate(ms):
                expected = measure(m, assertion)
                assert abs(eem.values[j, i] - expected) <= 1e-12
                if expected == 0.0:  # categorical evidence on its own event
                    assert eem.values[j, i] == 0.0

    @pytest.mark.parametrize("n", [1, 20])
    def test_many_sources_on_edge_frames(self, n):
        # 24 pieces: one row block at n = 1, one block per piece at n = 20
        rng = np.random.default_rng(n)
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        ms = [random_mass_function(rng, frame, max_focals=6) for _ in range(23)]
        ms.append(event_evidence(frame, n - 1))
        eem = build_eem(ms, frame, PBAGD)
        assert eem.values.shape == (n, 24)
        for j, i in {(0, 0), (n - 1, 23), (n // 2, 11), (n - 1, 5)}:
            expected = pbagd(ms[i], event_evidence(frame, j))
            assert abs(eem.values[j, i] - expected) <= 1e-12
        assert eem.values[n - 1, 23] == 0.0

    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_block_size_does_not_change_entries(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        ms = [random_mass_function(rng, frame, max_focals=6) for _ in range(7)]
        ms.append(event_evidence(frame, 0))
        whole = build_eem(ms, frame, PBAGD).values
        for entries in (1, 2 << n):  # one row per block; two rows per block
            monkeypatch.setattr(divergence, "_BLOCK_ENTRIES", entries)
            np.testing.assert_array_equal(build_eem(ms, frame, PBAGD).values, whole)

    def test_other_measures_evaluate_each_pair(self, fault_case, frame3):
        eem = build_eem(fault_case, frame3, BJS)
        assert eem.measure == "bjs"
        want = reference.event_divergences(BJS, fault_case, frame3)
        assert eem.values.tobytes() == want.tobytes()
        assert want[1, 0] == BJS(fault_case[0], event_evidence(frame3, 1))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6), n_pieces=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_bjs_table_gives_the_bits_of_each_pair(self, n, n_pieces, seed):
        # up to 63 focal sets a piece, where numpy may group a sum along the
        # rows of a 2-D array otherwise than along one vector; pieces that
        # share a focal pattern are read together
        rng = np.random.default_rng(seed)
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        ms = [random_mass_function(rng, frame, max_focals=int(rng.integers(1, 64)))
              for _ in range(n_pieces)]
        masks = ms[0].focal_elements()
        weights = rng.random(len(masks)) + 1e-3
        ms.append(MassFunction(frame, dict(zip(masks, weights / weights.sum()))))
        ms.append(event_evidence(frame, int(rng.integers(n))))
        table = BJS._table_event_divergences(frame, *core._mass_table(ms))
        assert table.tobytes() == reference.event_divergences(BJS, ms, frame).tobytes()
        assert build_eem(ms, frame, BJS).values.tobytes() == table.tobytes()

    @pytest.mark.parametrize("measure", [PBAGD, BJS])
    def test_frame_mismatch(self, fault_case, measure):
        with pytest.raises(FrameMismatchError):
            build_eem(fault_case, Frame(("B1", "B2", "B3")), measure)

    @pytest.mark.parametrize("name", ["pbagd", "bjs", "registered"])
    def test_every_measure_checks_each_piece_frame(self, fault_case, frame3, name, monkeypatch):
        class PairwiseBjs(DivergenceMeasure):
            name = "bjs-pairwise"

            def evaluate(self, m1, m2):
                return BJS.evaluate(m1, m2)

        monkeypatch.setattr(divergence, "_MEASURES", dict(divergence._MEASURES))
        register_measure(PairwiseBjs())
        measure = divergence.get_measure("bjs-pairwise" if name == "registered" else name)
        wider = MassFunction(Frame(("A1", "A2", "A3", "A4")), {"A1": 0.6, "A1,A4": 0.4})
        relabelled = MassFunction(Frame(("A1", "A3", "A2")), {"A1": 0.6, "A2,A3": 0.4})
        for stranger in (wider, relabelled):
            for ms in ([stranger], [fault_case[0], stranger], [stranger, fault_case[0]]):
                with pytest.raises(FrameMismatchError):
                    measure.event_divergences(ms, frame3)
                with pytest.raises(FrameMismatchError):
                    build_eem(ms, frame3, measure)
        # pbagd's closed form agrees with its pairwise calls to 1e-12, bjs
        # and a registered measure bit for bit
        np.testing.assert_allclose(measure.event_divergences(fault_case, frame3),
                                   reference.event_divergences(measure, fault_case, frame3),
                                   rtol=0.0, atol=1e-12 if name == "pbagd" else 0.0)
        assert measure.event_divergences([], frame3).shape == (3, 0)


class TestSupportMatrix:
    @pytest.fixture
    def eem(self, fault_case, frame3):
        return build_eem(fault_case, frame3, PBAGD)

    def test_zero_divergence_gives_full_support(self, frame3):
        eem = EventEvaluationMatrix(np.zeros((3, 1)), "pbagd", frame3)
        np.testing.assert_array_equal(support_matrix(eem, 200.0), np.ones((3, 1)))

    def test_doubling_tau_squares_support(self, eem):
        s1 = support_matrix(eem, 200.0)
        s2 = support_matrix(eem, 400.0)
        np.testing.assert_allclose(s2, s1**2, rtol=1e-12)

    def test_antitone_in_divergence(self, eem):
        support = support_matrix(eem, 200.0)
        order_d = np.argsort(eem.values, axis=None)
        order_s = np.argsort(-support, axis=None)
        np.testing.assert_array_equal(order_d, order_s)

    def test_rejects_nonpositive_tau(self, eem):
        with pytest.raises(NonpositiveTauError):
            support_matrix(eem, 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tau(self, eem, tau):
        # NaN gave an all-NaN matrix and inf all zeros, so NaN credibilities
        with pytest.raises(NonpositiveTauError, match="tau must be a positive finite number"):
            support_matrix(eem, tau)


    @pytest.mark.parametrize("tau", [True, "3", None, pytest.param(10 ** 400, id="10**400")])
    def test_rejects_tau_that_is_not_a_number(self, eem, tau):
        # True ran with tau = 1, and "3" ended in a bare TypeError
        with pytest.raises(NonpositiveTauError, match="tau must be a positive finite number"):
            support_matrix(eem, tau)

    def test_numpy_tau(self, eem):
        assert support_matrix(eem, np.float64(200.0)).tobytes() == (
            support_matrix(eem, 200.0).tobytes())


class TestConditionalCredibility:
    def test_single_evidence(self):
        cond = conditional_credibility(np.full((3, 1), 0.7))
        np.testing.assert_array_equal(cond, np.ones((3, 1)))

    def test_identical_columns_split_evenly(self):
        support = np.tile([[0.3], [0.5], [0.9]], (1, 2))
        cond = conditional_credibility(support)
        np.testing.assert_allclose(cond, 0.5)

    def test_rows_sum_to_one(self, fault_case, frame3):
        eem = build_eem(fault_case, frame3, PBAGD)
        cond = conditional_credibility(support_matrix(eem, 200.0))
        np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-9)
        assert ((cond >= 0) & (cond <= 1)).all()

    @pytest.mark.parametrize("support", [
        [[0.0, 0.0], [1.0, 1.0]],  # used to give a NaN row and a RuntimeWarning
        [[0.5, math.nan], [1.0, 1.0]],
        [[1.0, 1.0], [math.inf, 1.0]],
        [[1e308, 1e308], [1.0, 1.0]],  # a sum beyond float range
        [[[1.0, 1.0]], [[0.0, 0.0]]],  # the second matrix of a stack
    ])
    def test_rows_that_cannot_be_normalized_are_refused(self, support):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMassValueError, match="cannot be normalized"):
                conditional_credibility(support)


_NON_FINITE_EDMMS = [
    [[0.0, math.nan], [math.nan, 0.0]],
    [[0.0, math.inf, 0.1], [math.inf, 0.0, 0.2], [0.1, 0.2, 0.0]],
    [[0.0, 0.3], [0.3, -math.inf]],
]


@pytest.mark.parametrize("credibility", [average_support_credibility, eigenvalue_credibility])
@pytest.mark.parametrize("values", _NON_FINITE_EDMMS)
def test_non_finite_pairwise_matrices_are_refused(credibility, values):
    # both used to return NaN credibilities, silently or with a RuntimeWarning
    edmm = PairwiseDifferenceMatrix(np.array(values), "blind")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMassValueError, match=re.escape(
                "measure 'blind' gave a non-finite divergence between two pieces")):
            credibility(edmm)


@pytest.mark.parametrize("value, n", [
    (1e308, 3),  # the row sums overflow; it used to give [nan nan nan]
    (5e307, 4),  # only their total overflows; it used to give 1/3 each, 4/3 in all
])
def test_pairwise_matrices_whose_sums_overflow_are_refused(value, n):
    edmm = PairwiseDifferenceMatrix(value * (1.0 - np.eye(n)), "blind")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMassValueError, match=re.escape(
                "measure 'blind' gave divergences whose sums are beyond float range")):
            average_support_credibility(edmm)


@pytest.mark.parametrize("value, n", [(1e307, 3), (1e307, 4), (0.25, 5)])
def test_pairwise_matrices_with_finite_sums_keep_their_bits(value, n):
    values = value * (1.0 - np.eye(n))
    values[0, 1] = values[1, 0] = value / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = average_support_credibility(PairwiseDifferenceMatrix(values, "blind"))
    row_sums = values.sum(axis=1)
    assert got.tobytes() == ((1.0 - row_sums / row_sums.sum()) / (n - 1)).tobytes()


class TestAverageSupportCredibility:
    def test_all_identical_fall_back_uniform(self, frame3):
        edmm = build_edmm([vacuous(frame3)] * 4, PBAGD)
        np.testing.assert_allclose(average_support_credibility(edmm), 0.25)

    def test_two_evidence_split_evenly(self, fault_case):
        edmm = build_edmm(fault_case[:2], PBAGD)
        np.testing.assert_allclose(average_support_credibility(edmm), [0.5, 0.5])

    def test_matches_direct_formula(self, fault_case):
        edmm = build_edmm(fault_case[:3], PBAGD)
        cred = average_support_credibility(edmm)
        d = edmm.values
        total = sum(d[j, h] for j in range(3) for h in range(3) if h != j)
        for i in range(3):
            share = sum(d[i, h] for h in range(3) if h != i) / total
            assert cred[i] == pytest.approx((1.0 - share) / 2, abs=1e-15)

    def test_similarity_variant_inverts_ranking(self, fault_case):
        # the evidence farthest from the others gets the least credibility
        edmm = build_edmm(fault_case, PBAGD)
        similarity = average_support_credibility(edmm)
        assert similarity.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(np.argsort(similarity, kind="stable"),
                                      np.argsort(-edmm.values.sum(axis=1), kind="stable"))
        # the disturbed fifth report is far from the cluster: low similarity
        assert np.argmin(similarity) == 4


class TestEigenvalueCredibility:
    def test_zero_matrix_falls_back_uniform(self):
        edmm = PairwiseDifferenceMatrix(np.zeros((4, 4)), "pbagd")
        np.testing.assert_allclose(eigenvalue_credibility(edmm), 0.25)

    def test_sums_to_one_nonnegative(self, fault_case):
        cred = eigenvalue_credibility(build_edmm(fault_case, PBAGD))
        assert cred.sum() == pytest.approx(1.0)
        assert (cred >= 0).all()

    def test_principal_scores_peak_at_one(self, fault_case):
        edmm = build_edmm(fault_case, PBAGD)
        _, vecs = np.linalg.eigh(edmm.values)
        principal = np.abs(vecs[:, -1])
        scores = principal / principal.max()
        np.testing.assert_allclose(
            eigenvalue_credibility(edmm), scores / scores.sum(), atol=1e-12
        )
        assert scores.max() == 1.0


class TestInitialProbabilities:
    def test_uniform(self, frame3):
        np.testing.assert_allclose(initial_prob_uniform(frame3), [1 / 3] * 3)
        np.testing.assert_allclose(initial_prob_uniform(Frame(("only",))), [1.0])

    def test_equal_rows_give_uniform(self, frame3):
        eem = EventEvaluationMatrix(np.full((3, 4), 0.2), "pbagd", frame3)
        np.testing.assert_allclose(initial_prob_from_eem(eem), [1 / 3] * 3)

    def test_sums_to_one(self, fault_case, frame3):
        eem = build_eem(fault_case, frame3, PBAGD)
        probs = initial_prob_from_eem(eem)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()

    def test_better_supported_event_gets_higher_mass(self, fault_case, frame3):
        # four of five reports back the first event; its EEM row is smallest
        eem = build_eem(fault_case, frame3, PBAGD)
        probs = initial_prob_from_eem(eem)
        assert int(np.argmax(probs)) == int(np.argmin(eem.values.sum(axis=1)))

    def test_zero_rows_take_all_probability(self, frame3):
        values = np.array([[0.0, 0.0], [0.1, 0.2], [0.0, 0.0]])
        probs = initial_prob_from_eem(EventEvaluationMatrix(values, "pbagd", frame3))
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.5])

    @pytest.mark.parametrize("values", [
        [[math.inf, 1.0], [1.0, math.inf], [math.inf, 0.0]],
        [[1e308, 1e308], [1e308, 1e308], [1e308, 1e308]],  # every sum beyond float range
        [[math.nan, 0.1], [0.2, 0.3], [0.1, 0.1]],
        [[1e-310, 1e-310], [1e-310, 1e-310], [1e-310, 1e-310]],  # 1 / sum overflows
    ])
    def test_rows_that_give_no_finite_probabilities_are_refused(self, frame3, values):
        eem = EventEvaluationMatrix(np.array(values), "blind", frame3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow and 0/0 among them
            with pytest.raises(InvalidMassValueError, match="starting probabilities"):
                initial_prob_from_eem(eem)

    def test_an_infinite_row_takes_no_probability(self, frame3):
        values = np.array([[math.inf, 1.0], [1.0, 1.0], [2.0, 2.0]])
        probs = initial_prob_from_eem(EventEvaluationMatrix(values, "pbagd", frame3))
        np.testing.assert_allclose(probs, [0.0, 2 / 3, 1 / 3])

    def test_all_zero_matrix_uniform(self, frame3):
        eem = EventEvaluationMatrix(np.zeros((3, 2)), "pbagd", frame3)
        np.testing.assert_allclose(initial_prob_from_eem(eem), [1 / 3] * 3)
