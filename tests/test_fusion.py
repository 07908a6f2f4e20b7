"""Open-loop and iterative fusion against the benchmark evidence sets."""

import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credfuse import (
    BJS,
    PBAGD,
    Frame,
    FrameMismatchError,
    FusionResult,
    IcefConfig,
    InvalidConfigError,
    InvalidMassValueError,
    MassFunction,
    NegativeMassError,
    NotNormalizedError,
    TooFewPiecesError,
    TotalConflictError,
    average_support_credibility,
    build_edmm,
    build_eem,
    cef_fuse,
    dcr_fuse,
    decide,
    eigenvalue_credibility,
    event_evidence,
    fit_interval_model,
    fuse,
    icef,
    initial_prob_from_eem,
    load_dataset,
    murphy_fuse,
    pbagd,
    self_fuse,
    vacuous,
    weighted_average,
)
from credfuse import classify, core, divergence, fusion
from credfuse.classify import stratified_head_indices
from credfuse.core import _intersections
from credfuse.divergence import DivergenceMeasure
from credfuse.divergence import LengthMismatchError as DivergenceLengthMismatchError
from credfuse.fusion import LengthMismatchError

from . import reference
from .conftest import random_bayesian_mass, random_mass_function

# converged credibilities for the five-sensor fault case (tau=200)
FAULT_CRED = np.array([0.2349, 0.2874, 0.1588, 0.3180, 0.0009])
# first-iteration credibilities under each initialization
FAULT_STEP1_UNIFORM = np.array([0.1277, 0.1049, 0.2676, 0.1101, 0.3897])
FAULT_STEP1_EEM = np.array([0.1706, 0.1807, 0.2144, 0.1966, 0.2378])
# converged credibilities for the conflicting-sensors case
CONFLICT_CRED = np.array([0.0091, 0.0001, 0.3663, 0.3123, 0.3123])


def _same_average(ms, weights):
    """``weighted_average`` and the dictionary oracle give the same mass,
    bit for bit, or raise the same type of error; returns the mass or error."""
    try:
        with np.errstate(all="ignore"):  # the loop's sums of non-finite weights
            want = reference.weighted_average(ms, weights)
    except (ValueError, TypeError) as error:
        with pytest.raises(type(error)):
            weighted_average(ms, weights)
        return error
    got = weighted_average(ms, weights)
    assert got == want and got.frame == want.frame
    assert got._focal == want._focal and got._values.tobytes() == want._values.tobytes()
    return got


_WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-2.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, math.nan, math.inf, -math.inf]),
)


@st.composite
def _averaged_sets(draw):
    """Evidence on one frame of up to 4 events, and weights: normalized, some
    exactly 0, or any floats (negative, huge, tiny, NaN or infinite)."""
    n = draw(st.integers(min_value=1, max_value=4))
    n_pieces = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms = _random_set(rng, _frame(n), n_pieces)
    if draw(st.booleans()):
        weights = rng.random(n_pieces)
        weights[draw(st.lists(st.integers(0, n_pieces - 1), max_size=n_pieces - 1))] = 0.0
        return ms, weights / weights.sum()
    return ms, draw(st.lists(_WEIGHTS, min_size=n_pieces, max_size=n_pieces))


class TestWeightedAverage:
    """The table average against the dictionary loop of ``reference``."""

    def test_single_evidence_unchanged(self, fault_case):
        assert _same_average(fault_case[:1], [1.0]) == fault_case[0]

    def test_identical_evidence_any_weights(self, fault_case):
        ms = [fault_case[0]] * 3
        assert _same_average(ms, [0.2, 0.5, 0.3]) == fault_case[0]

    def test_uniform_average_masses(self, fault_case):
        avg = _same_average(fault_case, np.full(5, 0.2))
        assert avg.mass("A1") == pytest.approx(0.56)
        assert avg.mass("A2") == pytest.approx(0.09)
        assert avg.mass("A3") == pytest.approx(0.17)
        assert avg.mass("A1,A2,A3") == pytest.approx(0.18)

    def test_length_mismatch(self, fault_case):
        with pytest.raises(LengthMismatchError):
            weighted_average(fault_case, [0.5, 0.5])
        assert LengthMismatchError is DivergenceLengthMismatchError

    def test_one_focal_set_and_nine_pieces_add_in_order(self, frame3):
        # numpy's pairwise sum of nine ninths gives exactly 1; adding them in
        # piece order, as the loop does, gives the next float up
        ms = [event_evidence(frame3, 0)] * 9
        avg = _same_average(ms, np.full(9, 1.0 / 9.0))
        assert avg.mass("A1").hex() == "0x1.0000000000001p+0"

    @settings(max_examples=400, deadline=None)
    @given(case=_averaged_sets())
    def test_random_sets_and_weights(self, case):
        _same_average(*case)


class TestOpenLoopFusion:
    def test_murphy_fault_case(self, fault_case):
        result = murphy_fuse(fault_case)
        assert result.mass.mass("A1") == pytest.approx(0.9715, abs=1e-3)
        assert result.mass.mass("A2") == pytest.approx(0.0055, abs=1e-3)
        assert result.mass.mass("A3") == pytest.approx(0.0222, abs=1e-3)
        assert result.mass.mass("A1,A2,A3") == pytest.approx(0.0008, abs=1e-3)
        assert result.decision == "A1"

    def test_murphy_conflict_case(self, conflict_case):
        result = murphy_fuse(conflict_case)
        assert result.mass.mass("A1") == pytest.approx(0.9694, abs=1e-3)
        assert result.mass.mass("A2") == pytest.approx(0.0175, abs=1e-3)
        assert result.mass.mass("A3") == pytest.approx(0.0110, abs=1e-3)
        assert result.mass.mass("A1,A3") == pytest.approx(0.0021, abs=1e-3)

    def test_murphy_equals_uniform_cef(self, fault_case):
        murphy = murphy_fuse(fault_case)
        cef = cef_fuse(fault_case, np.full(5, 0.2))
        assert murphy.mass == cef.mass

    def test_murphy_identical_inputs_reduce_to_self_fusion(self, frame3):
        m = MassFunction(frame3, {"A1": 0.6, "A1,A2,A3": 0.4})
        assert murphy_fuse([m, m, m]).mass == self_fuse(m, 3)

    def test_cef_two_identical_categorical(self, frame3):
        m = MassFunction(frame3, {"A2": 1.0})
        result = cef_fuse([m, m], [0.5, 0.5])
        assert result.mass == m

    def test_cef_with_converged_credibilities_matches_iterative(self, fault_case):
        result = cef_fuse(fault_case, FAULT_CRED / FAULT_CRED.sum())
        assert result.mass.mass("A1") == pytest.approx(0.9974, abs=2e-3)

    def test_dcr_counterintuitive_decision(self, fault_case):
        result = dcr_fuse(fault_case)
        assert result.decision == "A3"

    @pytest.mark.parametrize("weights, error", [
        ([0.5, 0.5], LengthMismatchError),
        ([[0.2] * 5], LengthMismatchError),
        ([0.2, 0.2, math.nan, 0.2, 0.2], InvalidMassValueError),
        ([0.2, 0.2, math.inf, 0.2, 0.2], InvalidMassValueError),
        ([-0.5, 1.5, 0.0, 0.0, 0.0], NegativeMassError),
        ([0.3] * 5, NotNormalizedError),
        ([[0.2]] * 5, LengthMismatchError),
        ([[0.1, 0.1]] * 5, LengthMismatchError),
        (0.2, LengthMismatchError),
    ])
    def test_bad_weights_raise_what_weighted_average_raises(self, fault_case, weights, error):
        with pytest.raises(error) as raised:
            weighted_average(fault_case, weights)
        with pytest.raises(error) as again:
            cef_fuse(fault_case, weights)
        assert str(raised.value) == str(again.value)
        if error is LengthMismatchError:
            assert str(np.shape(weights)) in str(raised.value)

    def test_weights_that_average_to_a_mass_are_accepted(self, fault_case):
        # a negative weight on a copy of the same report still averages to a mass
        ms = [fault_case[0], fault_case[0], fault_case[1]]
        _assert_same_result(cef_fuse(ms, [1.5, -0.5, 0.0]), _reference(ms, [1.5, -0.5, 0.0]))


def _reference(ms, weights, method="cef"):
    """Credibility-weighted fusion through the dictionary average and the
    single-mass self-combination, or the total conflict it raises."""
    try:
        mass = self_fuse(reference.weighted_average(ms, weights), len(ms))
    except TotalConflictError as error:
        return error
    probs = mass.pignistic()
    return FusionResult(mass, probs, decide(mass), method, np.asarray(weights, dtype=float))


def _weights(ms, method):
    """The open-loop weights, from the credibility functions themselves."""
    if method == "murphy":
        return np.full(len(ms), 1.0 / len(ms))
    edmm = build_edmm(ms, PBAGD)
    return (average_support_credibility if method == "cef-avg" else eigenvalue_credibility)(edmm)


@st.composite
def _weighted_sets(draw):
    """An evidence set and weights summing to 1, some of them exactly 0."""
    n = draw(st.integers(min_value=1, max_value=6))
    n_pieces = draw(st.integers(min_value=2, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms = _random_set(rng, _frame(n), n_pieces)
    weights = rng.random(n_pieces) + 1e-3
    zeros = draw(st.lists(st.integers(0, n_pieces - 1), max_size=n_pieces - 1))
    weights[zeros] = 0.0
    return ms, weights / weights.sum()


class TestCefFuseAgainstReference:
    """``cef_fuse`` against the dictionary average self-combined, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=_weighted_sets())
    def test_random_sets_and_weights(self, case):
        ms, weights = case
        want = _reference(ms, weights)
        try:
            got = cef_fuse(ms, weights)
        except TotalConflictError as error:
            got = error
        _assert_same_outcome(got, want)

    @pytest.mark.parametrize("method", ["murphy", "cef-avg", "cef-eig"])
    def test_fuse_on_the_builtin_sets(self, fault_case, conflict_case, method):
        for ms in (fault_case, conflict_case):
            _assert_same_outcome(fuse(ms, method), _reference(ms, _weights(ms, method), method))


@pytest.fixture(scope="module")
def uniform_run(fault_case):
    return icef(fault_case, IcefConfig(init="uniform"))


@pytest.fixture(scope="module")
def eem_run(fault_case):
    return icef(fault_case, IcefConfig(init="eem"))


@pytest.fixture(scope="module")
def conflict_run(conflict_case):
    return icef(conflict_case, IcefConfig())


class TestIcefFaultCase:
    def test_converges_quickly(self, uniform_run):
        _, trace = uniform_run
        assert trace.converged
        assert len(trace.steps) <= 15

    def test_first_step_credibilities_uniform_init(self, uniform_run):
        _, trace = uniform_run
        np.testing.assert_allclose(trace.steps[0].credibilities, FAULT_STEP1_UNIFORM, atol=5e-5)

    def test_first_step_credibilities_eem_init(self, eem_run):
        _, trace = eem_run
        np.testing.assert_allclose(trace.steps[0].credibilities, FAULT_STEP1_EEM, atol=5e-5)

    def test_fixed_point_credibilities(self, uniform_run):
        _, trace = uniform_run
        np.testing.assert_allclose(trace.final.credibilities, FAULT_CRED, atol=1e-3)

    def test_fused_support(self, uniform_run):
        result, _ = uniform_run
        assert result.mass.mass("A1") == pytest.approx(0.9974, abs=2e-3)
        assert result.decision == "A1"

    def test_init_independence(self, uniform_run, eem_run):
        _, t_uniform = uniform_run
        _, t_eem = eem_run
        gap = np.abs(t_uniform.final.credibilities - t_eem.final.credibilities).max()
        assert gap < 1e-3

    def test_eem_init_converges_in_fewer_steps(self, uniform_run, eem_run):
        assert len(eem_run[1].steps) < len(uniform_run[1].steps)

    def test_trace_rows_are_distributions(self, uniform_run):
        _, trace = uniform_run
        for step in trace.steps:
            assert step.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert step.credibilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_delta_sequence_ends_below_threshold(self, uniform_run):
        _, trace = uniform_run
        assert trace.final.delta <= 1e-6

    def test_fixed_point_self_consistency(self, fault_case, uniform_run):
        # rerunning the loop body from the converged probabilities moves
        # nothing by more than the termination threshold
        result, trace = uniform_run
        rerun, rerun_trace = icef(fault_case, IcefConfig(init="uniform", max_iter=1))
        assert rerun_trace.steps[0].delta > 1e-6  # sanity: step 1 is not converged
        final_probs = trace.final.probabilities
        from credfuse import conditional_credibility, support_matrix

        frame = fault_case[0].frame
        cond = conditional_credibility(
            support_matrix(build_eem(fault_case, frame, IcefConfig().measure), 200.0)
        )
        cred = cond.T @ final_probs
        fused = self_fuse(weighted_average(fault_case, cred), len(fault_case))
        assert np.abs(fused.pignistic() - final_probs).sum() < 1e-6

    def test_disturbed_report_gets_negligible_credibility(self, uniform_run):
        _, trace = uniform_run
        assert trace.final.credibilities[4] < 0.01

    def test_credibility_ranking_matches_distance_to_fusion(self, fault_case, uniform_run):
        result, trace = uniform_run
        distances = [pbagd(m, result.mass) for m in fault_case]
        assert int(np.argmax(trace.final.credibilities)) == int(np.argmin(distances))


class TestIcefConflictCase:
    def test_fused_support(self, conflict_run):
        result, _ = conflict_run
        assert result.mass.mass("A1") == pytest.approx(0.9953, abs=2e-3)

    def test_credibility_values_and_ranking(self, conflict_run):
        _, trace = conflict_run
        cred = trace.final.credibilities
        assert cred[2] == pytest.approx(0.3663, abs=2e-3)
        assert cred[3] == pytest.approx(cred[4], abs=1e-9)  # twin reports
        assert cred[2] > cred[3] > cred[0] > cred[1]


class TestIcefMechanics:
    def test_requires_two_pieces(self, fault_case):
        with pytest.raises(ValueError):
            icef(fault_case[:1])

    def test_max_iter_reports_non_convergence(self, fault_case):
        _, trace = icef(fault_case, IcefConfig(max_iter=2))
        assert not trace.converged
        assert len(trace.steps) == 2

    def test_self_combination_support_found_once_per_call(self, monkeypatch):
        # 8 pieces on n = 8: the averages take the dense self-combination
        rng = np.random.default_rng(8)
        frame = Frame(tuple(f"E{i + 1}" for i in range(8)))
        ms = [random_mass_function(rng, frame, max_focals=5, omega_floor=0.05) for _ in range(8)]
        result, trace = icef(ms)
        calls = []
        monkeypatch.setattr(core, "_intersections",
                            lambda *args: calls.append(1) or _intersections(*args))
        again, again_trace = icef(ms)
        assert len(trace.steps) > 1
        assert len(calls) == 1
        assert again.mass == result.mass and len(again_trace.steps) == len(trace.steps)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IcefConfig(tau=0.0)
        with pytest.raises(ValueError):
            IcefConfig(delta=-1.0)
        with pytest.raises(ValueError):
            IcefConfig(max_iter=0)
        with pytest.raises(ValueError):
            IcefConfig(init="somewhere")

    @pytest.mark.parametrize("knobs", [
        {"tau": math.nan}, {"tau": math.inf}, {"delta": math.nan}, {"delta": math.inf},
    ])
    def test_config_rejects_non_finite_knobs(self, knobs):
        with pytest.raises(InvalidConfigError):
            IcefConfig(**knobs)

    def test_config_rejects_fractional_max_iter(self):
        # used to pass and then fail with a TypeError in range()
        with pytest.raises(InvalidConfigError, match="max_iter"):
            IcefConfig(max_iter=2.5)

    def test_config_rejects_bool_max_iter(self):
        with pytest.raises(InvalidConfigError, match="max_iter"):
            IcefConfig(max_iter=True)

    def test_config_rejects_bool_tau(self):
        with pytest.raises(InvalidConfigError, match="tau"):
            IcefConfig(tau=True)

    def test_config_rejects_bool_delta(self):
        with pytest.raises(InvalidConfigError, match="delta"):
            IcefConfig(delta=True)

    def test_config_rejects_integer_beyond_float_range(self):
        with pytest.raises(InvalidConfigError, match="tau"):
            IcefConfig(tau=10**400)

    @pytest.mark.parametrize("measure", ["pbagd", None, 3, PBAGD.__class__, pbagd])
    def test_config_rejects_a_measure_that_is_no_divergence_measure(self, measure):
        # a name, None or a number used to build a config on which icef died
        # with an AttributeError and fuse(..., "cef-avg", config) on .symmetric
        with pytest.raises(InvalidConfigError, match=re.escape(f"got {measure!r}")):
            IcefConfig(measure=measure)
        with pytest.raises(InvalidConfigError):
            replace(IcefConfig(), measure=measure)

    @pytest.mark.parametrize("config", [{"tau": 1}, {}, 200.0, "default"])
    @pytest.mark.parametrize("method", ["icef-pbagd", "cef-avg", "cef-eig", "murphy", "dcr"])
    def test_a_config_that_is_no_icef_config_is_refused(self, fault_case, config, method):
        # a dict used to raise TypeError from replace() under icef-* and
        # AttributeError under cef-*, and to be ignored under murphy and dcr;
        # an empty one was read as the default
        with pytest.raises(InvalidConfigError, match=re.escape(f"got {config!r}")):
            fuse(fault_case, method, config=config)
        with pytest.raises(InvalidConfigError, match=re.escape(f"got {config!r}")):
            icef(fault_case, config)

    def test_config_accepts_integers_and_numpy_scalars(self):
        config = IcefConfig(tau=200, delta=np.float64(1e-6), max_iter=np.int64(5))
        assert (config.tau, config.max_iter) == (200, 5)

    def test_bjs_measure_also_converges(self, fault_case):
        result, trace = icef(fault_case, IcefConfig(measure=BJS, tau=5.0))
        assert trace.converged
        assert result.method == "icef-bjs"
        assert result.decision == "A1"

    def test_table_rows_layout(self, fault_case, frame3):
        _, trace = icef(fault_case)
        header, rows = trace.table_rows(frame3, [f"m{i}" for i in range(1, 6)])
        assert header[0] == "step"
        assert header[1:4] == ["p(A1)", "p(A2)", "p(A3)"]
        assert header[-1] == "delta"
        assert len(rows) == len(trace.steps)
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("names", [["m1"], [f"m{i}" for i in range(1, 7)]])
    def test_table_rows_need_one_name_per_piece(self, fault_case, frame3, names):
        # one name for five pieces used to give a 6-column header over
        # 10-column rows
        _, trace = icef(fault_case)
        with pytest.raises(LengthMismatchError, match=f"5 pieces but {len(names)} evidence names"):
            trace.table_rows(frame3, names)

    @pytest.mark.parametrize("frame", [Frame(("A1", "A2", "A3", "A4")),
                                       Frame(("B1", "B2", "B3"))])
    def test_table_rows_refuse_a_frame_that_is_not_the_traces(self, fault_case, frame):
        # a 4-event frame used to give an 11-column header over 10-column rows
        _, trace = icef(fault_case)
        with pytest.raises(FrameMismatchError):
            trace.table_rows(frame)

    def test_every_step_is_read_on_the_call_support(self, frame3, monkeypatch):
        # the last two pieces get credibility 0 at this tau, so the average
        # holds the singletons only; its rows are read on the support of
        # all five pieces' focal sets (they used to be read on [1, 2, 4]),
        # and every step's mass is built from them in one call, after the
        # result's from the last row
        calls = []
        mass_rows = core._mass_rows
        monkeypatch.setattr(core, "_mass_rows", lambda frame, masks, table:
                            calls.append((masks, table)) or mass_rows(frame, masks, table))
        ms = [event_evidence(frame3, j) for j in range(3)] + [
            MassFunction(frame3, {0b011: 0.5, 0b110: 0.3, 0b111: 0.2}),
            MassFunction(frame3, {0b101: 0.6, 0b111: 0.4})]
        result, trace = icef(ms, IcefConfig(tau=1e5))
        assert trace.steps[0].credibilities[3:].tolist() == [0.0, 0.0]
        (result_masks, last), (masks, rows) = calls
        assert result_masks.tolist() == masks.tolist() == list(range(1, 8))
        assert len(rows) == len(trace.steps) and last.tolist() == rows[-1:].tolist()
        assert not rows[:, masks > 4].any()
        for step, row in zip(trace.steps, rows):
            assert step.fused == mass_rows(frame3, masks, row[None])[0]
        assert result.mass == MassFunction(frame3, {1: 1 / 3, 2: 1 / 3, 4: 1 / 3})


class TestConvergenceBoundary:
    """A step whose change equals ``delta`` exactly ends the loop as converged."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_single_call_stops_at_the_step(self, fault_case, k):
        _, trace = icef(fault_case)
        deltas = [step.delta for step in trace.steps]
        assert len(deltas) > k and min(deltas[:k - 1]) > deltas[k - 1]
        result, again = icef(fault_case, IcefConfig(delta=deltas[k - 1]))
        assert (result.converged, result.n_iter, again.converged) == (True, k, True)
        assert [step.delta for step in again.steps] == deltas[:k]

    @pytest.mark.parametrize("k", [2, 4])
    def test_batched_sets_stop_at_the_step(self, fault_case, conflict_case, k):
        _, trace = icef(fault_case)
        delta = trace.steps[k - 1].delta
        config = IcefConfig(delta=delta)
        sets = [conflict_case, fault_case, fault_case[::-1]]
        focal, table = core._mass_table([m for ms in sets for m in ms])
        out = fusion._fuse_tables(fault_case[0].frame, focal, table.reshape(3, 5, -1),
                                  "icef-pbagd", config)
        assert (bool(out.converged[1]), int(out.n_iter[1])) == (True, k)
        for b, ms in enumerate(sets):
            want, _ = icef(ms, config)
            assert (bool(out.converged[b]), int(out.n_iter[b])) == (
                want.converged, want.n_iter)
            assert out.probs[b].tobytes() == want.pignistic.tobytes()


class TestDecide:
    def test_maximum_pignistic(self, fault_case):
        result = murphy_fuse(fault_case)
        assert decide(result.mass) == "A1"

    def test_vacuous_ties_break_to_first(self, frame3):
        assert decide(vacuous(frame3)) == "A1"

    def test_two_way_tie(self, frame3):
        m = MassFunction(frame3, {"A2": 0.5, "A3": 0.5})
        assert decide(m) == "A2"


class TestFuseDispatcher:
    @pytest.mark.parametrize("method", ["dcr", "murphy", "icef-pbagd", "cef-avg", "cef-eig"])
    def test_all_methods_run_and_label_results(self, fault_case, method):
        result = fuse(fault_case, method=method)
        assert result.method == method
        total = sum(v for _, v in result.mass.items())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_credibility_weighted_methods_pick_first_event(self, fault_case):
        for method in ("murphy", "icef-pbagd", "cef-avg", "cef-eig"):
            assert fuse(fault_case, method=method).decision == "A1"

    def test_unknown_method(self, fault_case):
        with pytest.raises(InvalidConfigError, match="unknown fusion method 'magic'"):
            fuse(fault_case, method="magic")
        # a name that is not a str used to end in AttributeError on .lower()
        for method in (None, 3, b"murphy"):
            with pytest.raises(InvalidConfigError,
                               match=re.escape(f"unknown fusion method {method!r}")):
                fuse(fault_case, method=method)
        with pytest.raises(KeyError, match="unknown divergence measure 'nope'"):
            fuse(fault_case, method="icef-nope")

    @pytest.mark.parametrize("method", ["murphy", "cef-avg", "cef-eig", "icef-pbagd"])
    @pytest.mark.parametrize("pieces", [0, 1])
    def test_too_few_pieces(self, fault_case, method, pieces):
        # murphy's 1/N weight used to divide by zero on an empty set
        ms = fault_case[:pieces]
        with pytest.raises(ValueError, match="need at least two pieces of evidence"):
            fuse(ms, method=method)
        if method == "murphy":
            with pytest.raises(ValueError, match="need at least two pieces of evidence"):
                murphy_fuse(ms)

    def test_too_few_pieces_raise_one_typed_error(self, fault_case):
        # the CLI maps it to exit 2; it stays a ValueError for older callers
        calls = [lambda ms, method=method: fuse(ms, method) for method in
                 ("murphy", "cef-avg", "cef-eig", "icef-pbagd", "icef-bjs")]
        calls += [icef, lambda ms: cef_fuse(ms, [1.0]), lambda ms: build_edmm(ms, PBAGD)]
        for call in calls:
            with pytest.raises(TooFewPiecesError) as error:
                call(fault_case[:1])
            assert isinstance(error.value, ValueError)
        assert fuse(fault_case[:1], "dcr").mass == fault_case[0]

    @pytest.mark.parametrize("method", ["cef-avg", "cef-eig"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_divergences_are_refused_before_the_weights(self, fault_case, method,
                                                                   value):
        class Broken(DivergenceMeasure):
            name = "broken"

            def evaluate(self, m1, m2):
                return value

        config = IcefConfig(measure=Broken())
        # cef-eig used to end in numpy's LinAlgError, and a batch of cef-avg
        # fusions to flag every set as a total conflict
        with pytest.raises(InvalidMassValueError, match="'broken'"):
            fuse(fault_case, method, config)
        with pytest.raises(InvalidMassValueError, match="'broken'"):
            _fuse_sets([fault_case, fault_case[::-1]], method, config)

    def test_icef_bjs_via_dispatcher(self, fault_case):
        result = fuse(fault_case, method="icef-bjs", config=IcefConfig(tau=5.0))
        assert result.method == "icef-bjs"

    @pytest.mark.parametrize("method", ["dcr", "murphy", "cef-avg", "cef-eig"])
    def test_open_loop_results_read_converged_after_one_pass(self, fault_case, method):
        result = fuse(fault_case, method=method)
        assert (result.converged, result.n_iter) == (True, 1)

    @pytest.mark.parametrize("max_iter", [2, 200])
    def test_icef_keeps_convergence_and_iteration_count(self, fault_case, max_iter):
        config = IcefConfig(max_iter=max_iter)
        result = fuse(fault_case, method="icef-pbagd", config=config)
        _, trace = icef(fault_case, config)
        assert (result.converged, result.n_iter) == (trace.converged, len(trace.steps))
        assert result.converged == (max_iter == 200)

    @pytest.mark.parametrize("method", ["dcr", "murphy", "cef-avg", "icef-pbagd"])
    def test_pignistic_computed_once_per_fused_mass(self, fault_case, monkeypatch, method):
        # counts the helper that MassFunction.pignistic and the icef loop share
        calls = []
        pignistic_rows = core._pignistic_rows
        monkeypatch.setattr(core, "_pignistic_rows",
                            lambda *args: calls.append(1) or pignistic_rows(*args))
        result = fuse(fault_case, method=method)
        assert len(calls) == result.n_iter
        probs = result.pignistic
        first_max = np.flatnonzero(probs == probs.max())[0]
        assert result.decision == fault_case[0].frame.events[first_max]


def _frame(n):
    return Frame(tuple(f"E{i + 1}" for i in range(n)))


def _random_set(rng, frame, n_pieces):
    return [random_mass_function(rng, frame, max_focals=int(rng.integers(1, 5)))
            for _ in range(n_pieces)]


def _singleton_sets(rng, n, n_sets, n_pieces):
    """Sets of pieces on the singletons of n events, each holding every
    event, as the classifier's evidence does."""
    frame, masks = _frame(n), (1 << np.arange(n)).tolist()
    return [[MassFunction(frame, dict(zip(masks, rng.dirichlet(np.ones(n)))))
             for _ in range(n_pieces)] for _ in range(n_sets)]


class TestIcefSteps:
    def test_steps_are_built_for_a_trace_only(self, fault_case, monkeypatch):
        # icef builds every step's mass in one call of the row constructor,
        # a row per step, after its result's, and none by the dict
        # constructor; fuse builds no step and asks the loop for no history
        # (it used to build both and drop them)
        rows, inits, steps, histories = [], [], [], []
        mass_rows, init = core._mass_rows, MassFunction.__init__
        step, loop = fusion.IcefStep, fusion._icef_loop
        monkeypatch.setattr(core, "_mass_rows", lambda frame, masks, table:
                            rows.append(len(table)) or mass_rows(frame, masks, table))
        monkeypatch.setattr(MassFunction, "__init__",
                            lambda self, *args: inits.append(1) or init(self, *args))
        monkeypatch.setattr(fusion, "IcefStep", lambda *args: steps.append(1) or step(*args))
        monkeypatch.setattr(fusion, "_icef_loop",
                            lambda *args: histories.append(args[4:]) or loop(*args))
        fused = fuse(fault_case, "icef-pbagd")
        assert steps == [] and histories == [()]
        assert rows == [1] and inits == []
        rows.clear()
        result, trace = icef(fault_case)
        assert len(trace.steps) > 1
        assert rows == [1, len(trace.steps)] and inits == [] and len(steps) == len(trace.steps)
        assert trace.final.fused == result.mass
        _assert_same_result(fused, result)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6), n_pieces=st.integers(min_value=2, max_value=10),
           seed=st.integers(0, 2**32 - 1))
    def test_each_step_is_the_scalar_average_self_combined(self, n, n_pieces, seed):
        # the loop's average is bit-equal to weighted_average, its combination
        # to self_fuse, and its probabilities to the fused pignistic; every
        # step is combined on the loop's one plan buffer, and a fresh fusion
        # under the step's credibilities gives its mass
        ms = _random_set(np.random.default_rng(seed), _frame(n), n_pieces)
        _, trace = icef(ms, IcefConfig(max_iter=6))
        for step in trace.steps:
            fused = self_fuse(weighted_average(ms, step.credibilities), n_pieces)
            assert step.fused == fused == cef_fuse(ms, step.credibilities).mass
            assert step.probabilities.tobytes() == fused.pignistic().tobytes()


@st.composite
def _batches(draw):
    """Evidence sets of equal size on one frame, with loop settings that make
    sets stop at different steps, reach zero credibilities or total conflict,
    start from the EEM, or use the bjs measure."""
    n = draw(st.integers(min_value=1, max_value=5))
    n_pieces = draw(st.integers(min_value=2, max_value=6))
    n_sets = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = _frame(n)
    zero_credibility = draw(st.booleans()) and n_pieces > n
    sets = []
    for _ in range(n_sets):
        ms = _random_set(rng, frame, n_pieces)
        if zero_credibility:
            # categorical reports on every event keep each support row nonzero
            # while exp(-tau * d) underflows for the other pieces
            ms[:n] = [event_evidence(frame, j) for j in range(n)]
        sets.append(ms)
    method = draw(st.sampled_from(["icef-pbagd", "icef-bjs"]))
    tau = 1e5 if zero_credibility else (5.0 if method == "icef-bjs" else 200.0)
    config = IcefConfig(tau=tau, max_iter=draw(st.sampled_from([1, 2, 3, 200])),
                        init=draw(st.sampled_from(["uniform", "eem"])))
    conflict = draw(st.booleans())
    return sets, method, config, conflict


def _fuse_sets(sets, method="icef-pbagd", config=None):
    """What ``fuse(ms, method, config)`` gives for each set ``ms`` of one
    frame and size, or the total conflict it raises: one mass table of every
    set, fused by the array core, a result per set."""
    out = _fuse_raw(sets, method, config)
    return fusion._results(sets[0][0].frame, fusion._checked_method(method), out)


def _fuse_raw(sets, method="icef-pbagd", config=None):
    """The raw ``fusion._fuse_tables`` arrays of one mass table of every set."""
    focal, table = core._mass_table([m for ms in sets for m in ms])
    return fusion._fuse_tables(sets[0][0].frame, focal,
                               table.reshape(len(sets), len(sets[0]), -1), method.lower(),
                               config or IcefConfig())


#: The raw arrays of a batched call that do not depend on the call's support.
_PER_SET_FIELDS = ("conflict", "failed", "converged", "n_iter", "credibilities")


def _assert_same_result(got, want):
    assert got.credibilities.tobytes() == want.credibilities.tobytes()
    assert got.pignistic.tobytes() == want.pignistic.tobytes()
    assert (got.n_iter, got.converged, got.decision, got.method) == (
        want.n_iter, want.converged, want.decision, want.method)
    assert got.mass == want.mass


class TestFuseBatch:
    """A batch of evidence sets against one ``icef`` call per set, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(case=_batches())
    def test_batch_equals_single_calls(self, case):
        sets, method, config, conflict = case
        single_config = replace(config, measure=fusion.get_measure(method[len("icef-"):]))
        with mock.patch.object(core, "_LOG2_CONFLICT_EPS",
                               -1.0 if conflict else core._LOG2_CONFLICT_EPS):
            batch = _fuse_sets(sets, method, config)
            assert len(batch) == len(sets)
            # each set's raw arrays, K of a set that converged among them,
            # are those of its own one-set call, by bytes
            raw = _fuse_raw(sets, method, config)
            for b, ms in enumerate(sets):
                own = _fuse_raw([ms], method, config)
                for field in _PER_SET_FIELDS:
                    assert getattr(raw, field)[b:b + 1].tobytes() == (
                        getattr(own, field).tobytes()), field
            for ms, got in zip(sets, batch):
                try:
                    want, _ = icef(ms, single_config)
                except TotalConflictError as error:
                    assert isinstance(got, TotalConflictError)
                    assert got.conflict == error.conflict
                    continue
                _assert_same_result(got, want)
            # permuting the sets permutes the results, bit for bit
            again = _fuse_sets(sets[::-1], method, config)[::-1]
            for got, want in zip(again, batch):
                if isinstance(want, TotalConflictError):
                    assert got.conflict == want.conflict
                else:
                    _assert_same_result(got, want)

    def _mixed_sets(self):
        rng = np.random.default_rng(31)
        frame = _frame(3)
        sets = [_random_set(rng, frame, 4) for _ in range(9)]
        sets[2] = [event_evidence(frame, j) for j in range(3)] + sets[2][3:]
        return sets

    def test_sets_stop_at_different_steps(self):
        sets = self._mixed_sets()
        batch = _fuse_sets(sets, "icef-pbagd")
        assert len({result.n_iter for result in batch}) > 1
        for ms, got in zip(sets, batch):
            _assert_same_result(got, icef(ms)[0])

    @pytest.mark.parametrize("singletons", [True, False])
    def test_the_loop_returns_arrays_that_share_no_memory(self, singletons):
        # one set stops at one iteration, whose arrays are returned as they
        # stand; on singleton masks its probabilities are its fused rows
        rng = np.random.default_rng(43)
        one = (_singleton_sets(rng, 3, 1, 4) if singletons
               else [_wide_set(rng, _frame(4), 5, 3)])
        for sets in (one, self._mixed_sets()):
            raw = _fuse_raw(sets)
            arrays = [getattr(raw, field) for field in ("fused", "probs", *_PER_SET_FIELDS)]
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)

    def test_sets_reach_zero_credibility(self):
        # every event has a categorical report, and exp(-tau * d) underflows
        # for the pieces off the assertions
        rng = np.random.default_rng(37)
        frame = _frame(3)
        sets = [[event_evidence(frame, j) for j in range(3)] + _random_set(rng, frame, 2)
                for _ in range(5)]
        config = IcefConfig(tau=1e5)
        batch = _fuse_sets(sets, "icef-pbagd", config)
        zeros = [(result.credibilities == 0.0).any() for result in batch]
        assert sum(zeros) > 1 and not all(zeros)  # so the averages' focal sets differ
        for ms, got in zip(sets, batch):
            _assert_same_result(got, icef(ms, config)[0])

    def test_total_conflict_is_flagged_per_set(self, monkeypatch):
        monkeypatch.setattr(core, "_LOG2_CONFLICT_EPS", -1.0)
        sets = self._mixed_sets()
        batch = _fuse_sets(sets, "icef-pbagd")
        flagged = [isinstance(result, TotalConflictError) for result in batch]
        assert any(flagged) and not all(flagged)
        for ms, got in zip(sets, batch):
            if isinstance(got, TotalConflictError):
                with pytest.raises(TotalConflictError) as excinfo:
                    icef(ms)
                assert excinfo.value.conflict == got.conflict
            else:
                _assert_same_result(got, icef(ms)[0])

    def test_one_loop_per_table(self, monkeypatch):
        sizes = []
        loop = fusion._icef_loop
        monkeypatch.setattr(fusion, "_icef_loop",
                            lambda frame, focal, table, *args: sizes.append(len(table))
                            or loop(frame, focal, table, *args))
        sets = _singleton_sets(np.random.default_rng(29), 8, 45, 4)
        batch = _fuse_sets(sets, "icef-pbagd")
        assert sizes == [45]
        assert len({result.n_iter for result in batch}) > 1
        for ms, got in zip(sets, batch):
            _assert_same_result(got, icef(ms)[0])

    def test_dcr_fuses_set_by_set(self, fault_case, conflict_case):
        sets = [fault_case, conflict_case]
        for got, ms in zip(_fuse_sets(sets, "dcr"), sets):
            want = dcr_fuse(ms)
            assert (got.mass, got.decision) == (want.mass, want.decision)
            assert got.pignistic.tobytes() == want.pignistic.tobytes()
        frame = fault_case[0].frame
        clash = [event_evidence(frame, 0), event_evidence(frame, 1)]
        assert isinstance(_fuse_sets([clash], "dcr")[0], TotalConflictError)

    def test_a_registered_measure_reads_pieces_built_once(self, monkeypatch):
        class PairwiseBjs(DivergenceMeasure):
            name = "bjs-pairwise"

            def evaluate(self, m1, m2):
                return BJS.evaluate(m1, m2)

        monkeypatch.setitem(divergence._MEASURES, PairwiseBjs.name, PairwiseBjs())
        rng = np.random.default_rng(47)
        sets = [_random_set(rng, _frame(3), 4) for _ in range(5)]
        config = IcefConfig(tau=5.0)
        expected = _fuse_sets(sets, "icef-bjs", config)
        built = []
        mass_rows = core._mass_rows
        monkeypatch.setattr(core, "_mass_rows", lambda frame, masks, table:
                            built.append(len(table)) or mass_rows(frame, masks, table))
        batch = _fuse_sets(sets, "icef-bjs-pairwise", config)
        assert built == [20, 5]  # the 20 pieces for the EEM, then the 5 results
        for got, want in zip(batch, expected):
            assert got.method == "icef-bjs-pairwise"
            _assert_same_result(got, replace(want, method=got.method))

    def test_unsupported_events_are_refused(self, frame3):
        # no piece supports the third event at this tau: the credibilities
        # would be NaN, and numpy's warning for the 0/0 used to come first
        ms = [MassFunction(frame3, {"A1": 0.9, "A2": 0.1}), MassFunction(frame3, {"A1": 1.0})]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(core.InvalidMassValueError):
                icef(ms, IcefConfig(tau=1e6))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_starting_probabilities_that_are_not_finite_are_refused(self, monkeypatch):
        # each categorical piece lies infinitely far from the other events'
        # assertions, so every EEM row sums to infinity and the EEM start is
        # 0/0: the loop used to run on NaN and raise TotalConflictError(nan),
        # and the public start function returned NaN with numpy's warning
        class Blind(DivergenceMeasure):
            name = "blind"

            def evaluate(self, m1, m2):
                shared = set(m1.focal_elements()) & set(m2.focal_elements())
                return 0.0 if shared else math.inf

        monkeypatch.setitem(divergence._MEASURES, Blind.name, Blind())
        frame = Frame(("A", "B", "C"))
        ms = [event_evidence(frame, j) for j in range(3)]
        config = IcefConfig(init="eem")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's warning for the 0/0 among them
            for call in (lambda: initial_prob_from_eem(build_eem(ms, frame, Blind())),
                         lambda: fuse(ms, "icef-blind", config),
                         lambda: icef(ms, replace(config, measure=Blind()))):
                with pytest.raises(InvalidMassValueError, match="starting probabilities"):
                    call()
            # the uniform start needs no EEM row sum
            assert fuse(ms, "icef-blind").converged


class TestFuseAgainstIcef:
    """``fuse(ms, "icef-*", config)`` runs the set through the batched call
    and gives what ``icef`` gives, bit for bit, without its trace."""

    @settings(max_examples=80, deadline=None)
    @given(case=_batches())
    def test_fuse_equals_icef(self, case):
        sets, method, config, conflict = case
        single_config = replace(config, measure=fusion.get_measure(method[len("icef-"):]))
        with mock.patch.object(core, "_LOG2_CONFLICT_EPS",
                               -1.0 if conflict else core._LOG2_CONFLICT_EPS):
            for ms in sets:
                try:
                    want, _ = icef(ms, single_config)
                except TotalConflictError as error:
                    with pytest.raises(TotalConflictError) as raised:
                        fuse(ms, method, config)
                    assert raised.value.conflict.hex() == error.conflict.hex()
                    continue
                got = fuse(ms, method, config)
                _assert_same_result(got, want)
                assert got.mass._values.tobytes() == want.mass._values.tobytes()

    def test_method_is_icef_and_the_measure_name(self, fault_case, monkeypatch):
        class Loud(DivergenceMeasure):
            name = "PBAGD-Loud"

            def evaluate(self, m1, m2):
                return PBAGD.evaluate(m1, m2)

        measure = Loud()
        monkeypatch.setitem(divergence._MEASURES, "pbagd-loud", measure)
        want, _ = icef(fault_case, IcefConfig(measure=measure))
        for spelling in ("icef-pbagd-loud", "ICEF-PBAGD-LOUD"):
            got = fuse(fault_case, spelling)
            assert got.method == want.method == "icef-PBAGD-Loud"
            _assert_same_result(got, want)


@st.composite
def _open_loop_batches(draw):
    """Evidence sets of equal size on one frame with mixed focal patterns,
    some made of clashing categorical reports, plus an open-loop method and
    whether to raise the conflict threshold so that some self-combinations
    fail."""
    n = draw(st.integers(min_value=1, max_value=6))
    n_pieces = draw(st.integers(min_value=2, max_value=8))
    n_sets = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = _frame(n)
    sets = [_random_set(rng, frame, n_pieces) for _ in range(n_sets)]
    for b in draw(st.lists(st.integers(0, n_sets - 1), max_size=3)):
        sets[b] = [event_evidence(frame, int(rng.integers(n))) for _ in range(n_pieces)]
    method = draw(st.sampled_from(["murphy", "cef-avg", "cef-eig"]))
    return sets, method, draw(st.booleans())


def _assert_same_outcome(got, want):
    if isinstance(want, TotalConflictError):
        assert isinstance(got, TotalConflictError)
        assert got.conflict == want.conflict
    else:
        _assert_same_result(got, want)


@st.composite
def _dcr_batches(draw):
    """Sets for one dcr table: compound focal sets on n = 1..6, or in about
    half of the tables singletons only (Bayesian), one frame and one size
    of 1..6 pieces, a clash that ends the fold at its first, a middle or its
    last step, masses whose products underflow to zero, and a conflict
    threshold at which random steps fail."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = _frame(draw(st.integers(1, 6)))
    n_pieces = draw(st.integers(1, 6))
    clash = draw(st.sampled_from([None, "first", "middle", "last"]))
    bayesian = draw(st.booleans())
    masks = 1 << np.arange(frame.n) if bayesian else np.arange(1, 1 << frame.n)
    sets = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        floor = float(rng.choice([0.0, 0.3]))
        ms = [random_bayesian_mass(rng, frame, floor) if bayesian else
              random_mass_function(rng, frame, max_focals=6, omega_floor=floor)
              for _ in range(n_pieces)]
        if draw(st.booleans()) and frame.n > 1 and n_pieces > 2:
            # two pieces with a 1e-170 mass: a product of 1e-340 is exactly 0
            a, b = rng.choice(masks, size=2, replace=False).tolist()
            tiny = MassFunction(frame, {a: 1e-170, b: 1.0})
            ms[1] = ms[2] = tiny
        if clash and frame.n > 1 and n_pieces > 1:
            step = {"first": 1, "middle": n_pieces // 2, "last": n_pieces - 1}[clash]
            ms[0] = event_evidence(frame, 0)
            ms[1:step] = [random_bayesian_mass(rng, frame, 0.3) if bayesian else
                          random_mass_function(rng, frame, omega_floor=0.3)
                          for _ in range(step - 1)]
            ms[step] = (event_evidence(frame, int(rng.integers(1, frame.n))) if bayesian else
                        MassFunction(frame, {frame.full_mask ^ 1: 1.0}))
        sets.append(ms)
    return sets, draw(st.sampled_from([core.CONFLICT_EPS, 0.05, 0.3]))


def _assert_dcr_n(got, ms):
    """``got`` is what ``dcr_n(ms)`` gives, bit for bit, or its total conflict."""
    try:
        want = core.dcr_n(ms)
    except TotalConflictError as error:
        assert isinstance(got, TotalConflictError)
        assert got.conflict.hex() == error.conflict.hex()
        return
    assert got.mass == want and got.mass.frame == want.frame
    assert got.mass.focal_elements() == want.focal_elements()
    assert got.mass._values.tobytes() == want._values.tobytes()
    assert got.pignistic.tobytes() == want.pignistic().tobytes()
    assert (got.decision, got.method, got.credibilities) == (decide(want), "dcr", None)
    assert (got.converged, got.n_iter) == (True, 1)


def _same_outcome(got, want):
    if isinstance(want, TotalConflictError):
        return isinstance(got, TotalConflictError) and got.conflict.hex() == want.conflict.hex()
    return (got.mass == want.mass and got.mass._values.tobytes() == want.mass._values.tobytes()
            and got.pignistic.tobytes() == want.pignistic.tobytes()
            and got.decision == want.decision)


class TestDcrBatch:
    """The batched Dempster fold against ``dcr_n`` set by set, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_dcr_batches())
    def test_batch_equals_dcr_n(self, case):
        sets, eps = case
        with mock.patch.object(core, "CONFLICT_EPS", eps):
            batch = _fuse_sets(sets, "dcr")
            assert len(batch) == len(sets)
            for got, ms in zip(batch, sets):
                _assert_dcr_n(got, ms)
            again = _fuse_sets(sets[::-1], "dcr")[::-1]
            assert all(_same_outcome(g, w) for g, w in zip(again, batch))

    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    def test_total_conflict_ends_the_fold_at_its_step(self, frame3, step):
        rng = np.random.default_rng(step)
        pieces = [random_mass_function(rng, frame3, omega_floor=0.3) for _ in range(5)]
        clash = pieces[:]
        clash[0] = event_evidence(frame3, 0)
        clash[step] = MassFunction(frame3, {"A2,A3": 1.0})
        with pytest.raises(TotalConflictError) as error:
            core.dcr_n(clash)
        batch = _fuse_sets([pieces, clash, pieces[::-1]], "dcr")
        assert isinstance(batch[1], TotalConflictError)
        assert batch[1].conflict == error.value.conflict == 1.0
        _assert_dcr_n(batch[0], pieces)
        _assert_dcr_n(batch[2], pieces[::-1])

    @settings(max_examples=100, deadline=None)
    @given(case=_dcr_batches())
    def test_conflict_of_each_live_set_is_its_last_combination(self, case):
        sets, eps = case
        frame = sets[0][0].frame
        focal, table = core._mass_table([m for ms in sets for m in ms])
        with mock.patch.object(core, "CONFLICT_EPS", eps):
            out = fusion._fuse_tables(frame, focal, table.reshape(len(sets), len(sets[0]), -1),
                                      "dcr", IcefConfig())
            for ms, conflict, failed in zip(sets, out.conflict.tolist(), out.failed.tolist()):
                if not failed:
                    assert conflict.hex() == reference.dcr_conflict(ms).hex()

    def test_one_fold_per_table_and_one_pair_per_step_only_on_compound_sets(self, monkeypatch):
        folds, pairs = [], []
        fold, pair = core._dcr_fold, core._dcr_pair
        monkeypatch.setattr(core, "_dcr_fold", lambda frame, focal, table:
                            folds.append(table.shape[:2]) or fold(frame, focal, table))
        monkeypatch.setattr(core, "_dcr_pair", lambda m1, m2:
                            pairs.append(m2) or pair(m1, m2))
        monkeypatch.setattr(core, "dcr_pair", None)
        rng = np.random.default_rng(5)
        sets = [_wide_set(rng, _frame(12), 4, 3) for _ in range(3)]
        batch = _fuse_sets(sets, "dcr")
        assert folds == [(3, 4)]  # (sets, pieces)
        assert pairs == [m for ms in sets for m in ms[1:]]  # no set fails
        bayesian = _singleton_sets(rng, 8, 45, 4)
        folds.clear()
        pairs.clear()
        singletons = _fuse_sets(bayesian, "dcr")
        assert folds == [(45, 4)] and pairs == []
        monkeypatch.undo()
        for got, ms in zip(batch + singletons, sets + bayesian):
            _assert_dcr_n(got, ms)


class TestMurphyBatch:
    """A batch of murphy, cef-avg or cef-eig fusions against the dictionary
    average self-combined per set, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_open_loop_batches())
    def test_batch_equals_single_calls(self, case):
        sets, method, conflict = case
        with mock.patch.object(core, "_LOG2_CONFLICT_EPS",
                               -1.0 if conflict else core._LOG2_CONFLICT_EPS):
            batch = _fuse_sets(sets, method)
            assert len(batch) == len(sets)
            for ms, got in zip(sets, batch):
                _assert_same_outcome(got, _reference(ms, _weights(ms, method), method))
            # reversing the sets reverses the results, bit for bit
            for got, want in zip(_fuse_sets(sets[::-1], method)[::-1], batch):
                _assert_same_outcome(got, want)

    def test_total_conflict_is_flagged_per_set(self, monkeypatch):
        monkeypatch.setattr(core, "_LOG2_CONFLICT_EPS", -1.0)
        rng = np.random.default_rng(41)
        frame = _frame(3)
        sets = [_random_set(rng, frame, 4) for _ in range(6)]
        sets[1] = [event_evidence(frame, j % 3) for j in range(4)]
        batch = _fuse_sets(sets, "murphy")
        flagged = [isinstance(result, TotalConflictError) for result in batch]
        assert flagged[1] and not all(flagged)
        for ms, got in zip(sets, batch):
            _assert_same_outcome(got, _reference(ms, _weights(ms, "murphy"), "murphy"))

    def test_one_focal_set_in_the_whole_table(self, frame3):
        # the weights add in piece order, as the dictionary average adds
        # them, also from 8 pieces on, where numpy's ``sum`` pairs them: nine
        # ninths make 1 + 2**-52, whose 1 - total of about -2e-15 is
        # clamped to a conflict K of 0
        for n_pieces in (3, 9):
            sets = [[event_evidence(frame3, 1)] * n_pieces] * 2
            for ms, got in zip(sets, _fuse_sets(sets, "murphy")):
                _assert_same_result(got, _reference(ms, _weights(ms, "murphy"), "murphy"))
            focal, table = core._mass_table([m for ms in sets for m in ms])
            batch = fusion._fuse_tables(frame3, focal, table.reshape(2, n_pieces, -1),
                                        "murphy", IcefConfig())
            focal, table = core._mass_table(sets[0])
            single = fusion._fuse_tables(frame3, focal, table[None], "murphy", IcefConfig())
            average = reference.weighted_average(sets[0], _weights(sets[0], "murphy"))
            _, totals, shift = core._self_combined(
                np.array([[average.mass(0b010)]]), core._SelfCombination(focal, n_pieces, 3))
            conflict = core._conflict(totals, shift)
            assert batch.conflict.tobytes() == np.repeat(single.conflict, 2).tobytes()
            assert single.conflict.tobytes() == conflict.tobytes()
            assert (batch.conflict >= 0.0).all()

    def test_one_array_step_per_table(self, monkeypatch):
        sizes = []
        step = fusion._fusion_step
        monkeypatch.setattr(fusion, "_fusion_step",
                            lambda table, cred, *args: sizes.append(cred.shape[1])
                            or step(table, cred, *args))
        sets = _singleton_sets(np.random.default_rng(43), 8, 45, 4)
        batch = _fuse_sets(sets, "murphy")
        assert sizes == [45]
        for ms, got in zip(sets, batch):
            _assert_same_result(got, _reference(ms, _weights(ms, "murphy"), "murphy"))


class TestOneFusionStep:
    """Every credibility-weighted fusion runs through ``fusion._fusion_step``:
    once for an open-loop call, once per iteration of ``icef``, and once
    for a whole table of sets."""

    @pytest.fixture
    def widths(self, monkeypatch):
        """The number of sets of each step taken, in call order."""
        widths = []
        step = fusion._fusion_step
        monkeypatch.setattr(fusion, "_fusion_step",
                            lambda table, cred, *args: widths.append(cred.shape[1])
                            or step(table, cred, *args))
        return widths

    @pytest.mark.parametrize("method", ["murphy", "cef-avg", "cef-eig"])
    def test_an_open_loop_fuse_takes_one_step(self, fault_case, widths, method):
        fuse(fault_case, method)
        assert widths == [1]

    def test_cef_fuse_takes_one_step(self, fault_case, widths):
        cef_fuse(fault_case, np.full(len(fault_case), 1 / len(fault_case)))
        assert widths == [1]

    def test_icef_takes_one_step_per_iteration(self, fault_case, widths):
        result = fuse(fault_case, "icef-pbagd")
        assert result.n_iter > 1 and widths == [1] * result.n_iter
        widths.clear()
        result, trace = icef(fault_case)
        assert widths == [1] * result.n_iter == [1] * len(trace.steps)

    def test_one_step_fuses_an_iris_split(self, iris_path, widths):
        iris = load_dataset(iris_path, label_column="species")
        train = stratified_head_indices(iris, 0.7)
        test = np.setdiff1d(np.arange(len(iris.features)), train)
        model = fit_interval_model(iris.subset(train), 5.0)
        focal, masses = classify._split_masses(model, iris.features[test])
        out = fusion._fuse_tables(model.frame, focal, masses, "murphy", IcefConfig())
        assert len(out.fused) == 45 and widths == [45]


@st.composite
def _tables(draw):
    """A (B, N, F) mass table of sets on one frame, some of clashing
    categorical reports, with any method and whether to raise the conflict
    thresholds so that some sets hit total conflict."""
    n = draw(st.integers(min_value=1, max_value=5))
    n_pieces = draw(st.integers(min_value=2, max_value=6))
    n_sets = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = _frame(n)
    sets = [_random_set(rng, frame, n_pieces) for _ in range(n_sets)]
    for b in draw(st.lists(st.integers(0, n_sets - 1), max_size=3)):
        sets[b] = [event_evidence(frame, int(rng.integers(n))) for _ in range(n_pieces)]
    method = draw(st.sampled_from(
        ["dcr", "murphy", "cef-avg", "cef-eig", "icef-pbagd", "icef-bjs"]))
    config = IcefConfig(tau=5.0 if method == "icef-bjs" else 200.0,
                        max_iter=draw(st.sampled_from([1, 3, 200])))
    return sets, method, config, draw(st.booleans())


@st.composite
def _wide_support_sets(draw):
    """Two to four sets whose supports hold 8 or more masks: Bayesian sets
    on n = 8..12, each holding 8 or more singletons of its own, so that the
    table has several focal patterns; or compound sets on n = 4..6 whose
    pieces all hold the same 8 to 12 focal sets, so that it has one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sets, n_pieces = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        n = draw(st.integers(8, 12))
        held = [1 << rng.choice(n, size=int(rng.integers(8, n + 1)), replace=False)
                for _ in range(n_sets)]
    else:
        n = draw(st.integers(4, 6))
        size = int(rng.integers(8, min(12, (1 << n) - 1) + 1))
        held = [rng.choice(np.arange(1, 1 << n), size=size, replace=False)] * n_sets
    frame = _frame(n)
    return [[MassFunction(frame, dict(zip(masks.tolist(), rng.dirichlet(np.ones(len(masks))))))
             for _ in range(n_pieces)] for masks in held]


def _assert_rows_equal_fuse(sets, method, config):
    """Each set's row of ``_fuse_tables`` on one table of all ``sets``, and
    its result, has the bits of its own ``fuse(ms, method, config)``."""
    frame = sets[0][0].frame
    focal, table = core._mass_table([m for ms in sets for m in ms])
    out = fusion._fuse_tables(frame, focal, table.reshape(len(sets), len(sets[0]), -1),
                              method, config or IcefConfig())
    batch = _fuse_sets(sets, method, config)
    for b, (ms, got) in enumerate(zip(sets, batch)):
        try:
            want = fuse(ms, method, config)
        except TotalConflictError as error:
            assert isinstance(got, TotalConflictError)
            assert out.failed[b]
            assert out.conflict[b].hex() == got.conflict.hex() == error.conflict.hex()
            continue
        assert not isinstance(got, TotalConflictError)
        assert (got.mass, got.mass._values.tobytes(), got.pignistic.tobytes()) == (
            want.mass, want.mass._values.tobytes(), want.pignistic.tobytes())
        assert (got.decision, got.method, got.converged, got.n_iter) == (
            want.decision, want.method, want.converged, want.n_iter)
        assert not out.failed[b]
        row = out.fused[b]
        assert out.support[row != 0.0].tolist() == list(want.mass.focal_elements())
        assert row[row != 0.0].tobytes() == want.mass._values.tobytes()
        assert out.probs[b].tobytes() == want.pignistic.tobytes()
        assert frame.events[out.probs[b].argmax()] == want.decision
        if want.credibilities is None:
            assert out.credibilities is got.credibilities is None
        else:
            assert out.credibilities[b].tobytes() == got.credibilities.tobytes() == (
                want.credibilities.tobytes())
        assert (bool(out.converged[b]), int(out.n_iter[b])) == (want.converged, want.n_iter)


class TestFuseTables:
    """The array core's rows and results against ``fuse``, set by set, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_tables())
    def test_rows_equal_the_results_of_the_pieces(self, case):
        sets, method, config, conflict = case
        with mock.patch.object(core, "_LOG2_CONFLICT_EPS",
                               -1.0 if conflict else core._LOG2_CONFLICT_EPS), \
                mock.patch.object(core, "CONFLICT_EPS", 0.3 if conflict else core.CONFLICT_EPS):
            _assert_rows_equal_fuse(sets, method, config)

    @pytest.mark.parametrize("method", ["murphy", "cef-avg", "cef-eig", "icef-pbagd"])
    def test_compound_rows_are_read_on_the_call_support(self, method):
        # three sets of different focal patterns on n = 4: each row is on
        # the support of the table's focal sets, which holds intersections
        # that no set's own support holds (0b0100 = 0b0110 & 0b1100), and
        # is zero outside its own
        frame = _frame(4)
        sets = [
            [MassFunction(frame, {0b0011: 0.5, 0b0110: 0.3, 0b1111: 0.2}),
             MassFunction(frame, {0b0011: 0.1, 0b0110: 0.6, 0b1111: 0.3})],
            [MassFunction(frame, {0b0011: 0.7, 0b1111: 0.3})] * 2,
            [MassFunction(frame, {0b1100: 0.6, 0b1111: 0.4}),
             MassFunction(frame, {0b0011: 0.2, 0b1100: 0.5, 0b1111: 0.3})],
        ]
        focal, table = core._mass_table([m for ms in sets for m in ms])
        out = fusion._fuse_tables(frame, focal, table.reshape(3, 2, -1), method, IcefConfig())
        assert out.support.tolist() == _intersections(focal, 2, 16).tolist()
        assert 0b0100 in out.support.tolist()
        for ms, row in zip(sets, out.fused):
            own = _intersections(core._mass_table(ms)[0], 2, 16)
            assert not row[~np.isin(out.support, own)].any()
        _assert_rows_equal_fuse(sets, method, None)

    @pytest.mark.parametrize("method", ["dcr", "murphy", "cef-avg", "cef-eig", "icef-pbagd",
                                        "icef-bjs"])
    @settings(max_examples=50, deadline=None)
    @given(sets=_wide_support_sets())
    def test_rows_on_supports_of_eight_or_more_masks(self, sets, method):
        # a row's totals add in one order whether it is fused alone or in a
        # table, and whatever its focal pattern shares with the others
        _assert_rows_equal_fuse(sets, method, IcefConfig(tau=5.0))


def _relabelled(m, perm):
    def image(mask):
        return sum(1 << perm[j] for j in range(m.frame.n) if mask >> j & 1)
    return MassFunction(m.frame, {image(mask): value for mask, value in m.items()})


def _same_decision(probs, other, event_map=None):
    """Whether two runs decide alike, when the first has a clear winner."""
    top = np.sort(probs)[-2:]
    if len(top) == 2 and top[1] - top[0] < 1e-6:
        return True
    winner = int(np.argmax(probs))
    return int(np.argmax(other)) == (winner if event_map is None else event_map[winner])


class TestMetamorphic:
    """Relations between runs on transformed evidence, single and batched."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=5), n_pieces=st.integers(min_value=2, max_value=7),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuting_the_evidence(self, n, n_pieces, seed, data):
        frame = _frame(n)
        ms = _random_set(np.random.default_rng(seed), frame, n_pieces)
        perm = data.draw(st.permutations(range(n_pieces)))
        permuted = [ms[i] for i in perm]
        eem = build_eem(ms, frame, IcefConfig().measure).values
        assert build_eem(permuted, frame, IcefConfig().measure).values.tobytes() == (
            eem[:, perm].tobytes())
        (result, trace), (other, other_trace) = icef(ms), icef(permuted)
        np.testing.assert_allclose(other_trace.steps[0].credibilities,
                                   trace.steps[0].credibilities[perm], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(other.credibilities, result.credibilities[perm], atol=1e-6)
        assert _same_decision(result.pignistic, other.pignistic)
        batched = _fuse_sets([ms, permuted, ms])
        np.testing.assert_allclose(batched[1].credibilities, batched[0].credibilities[perm],
                                   atol=1e-6)
        assert batched[2].credibilities.tobytes() == batched[0].credibilities.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=5), n_pieces=st.integers(min_value=2, max_value=6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_relabelling_events(self, n, n_pieces, seed, data):
        frame = _frame(n)
        ms = _random_set(np.random.default_rng(seed), frame, n_pieces)
        perm = data.draw(st.permutations(range(n)))
        relabelled = [_relabelled(m, perm) for m in ms]
        eem = build_eem(ms, frame, IcefConfig().measure).values
        other_eem = build_eem(relabelled, frame, IcefConfig().measure).values
        np.testing.assert_allclose(other_eem[perm], eem, rtol=1e-9, atol=1e-15)
        (result, trace), (other, other_trace) = icef(ms), icef(relabelled)
        np.testing.assert_allclose(other_trace.steps[0].probabilities[perm],
                                   trace.steps[0].probabilities, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(other.pignistic[perm], result.pignistic, atol=1e-6)
        assert _same_decision(result.pignistic, other.pignistic, perm)
        batched = _fuse_sets([relabelled, ms])
        np.testing.assert_allclose(batched[0].pignistic[perm], batched[1].pignistic, atol=1e-6)


def _wide_set(rng, frame, n_pieces, n_focal):
    """Pieces with a few compound focal sets, each holding event 0 and
    hedging on the frame, so that no method meets total conflict."""
    pieces = []
    for _ in range(n_pieces):
        masks = {int(rng.integers(0, 1 << frame.n)) | 1 for _ in range(n_focal)}
        masks.add(frame.full_mask)
        weights = rng.random(len(masks)) + 0.1
        pieces.append(MassFunction(frame, dict(zip(sorted(masks), weights / weights.sum()))))
    return pieces


class TestLargeFrames:
    """The array core against ``fuse``, bit for bit, on a wide frame
    (n = 13), on the widest frame (n = 20), and on one event."""

    @pytest.mark.parametrize("method", ["dcr", "murphy", "cef-avg", "cef-eig",
                                        "icef-pbagd", "icef-bjs"])
    @pytest.mark.parametrize("n, n_sets", [(1, 3), (13, 3), (20, 1)])
    def test_batch_equals_single_calls(self, n, n_sets, method):
        rng = np.random.default_rng(n * 10 + n_sets)
        frame = _frame(n)
        sets = [_wide_set(rng, frame, 3, 3) for _ in range(n_sets)]
        config = IcefConfig(tau=5.0) if method == "icef-bjs" else None
        wants = [fuse(ms, method, config) for ms in sets]
        for got, want in zip(_fuse_sets(sets, method, config), wants):
            assert (got.mass, got.mass._values.tobytes(), got.pignistic.tobytes()) == (
                want.mass, want.mass._values.tobytes(), want.pignistic.tobytes())
            assert (got.decision, got.method, got.converged, got.n_iter) == (
                want.decision, want.method, want.converged, want.n_iter)
            if want.credibilities is None:
                assert got.credibilities is None
            else:
                assert got.credibilities.tobytes() == want.credibilities.tobytes()
