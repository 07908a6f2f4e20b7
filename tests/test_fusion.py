"""Open-loop and iterative fusion against the benchmark evidence sets."""

import math
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
    FusionResult,
    IcefConfig,
    InvalidConfigError,
    InvalidMassValueError,
    MassFunction,
    NegativeMassError,
    NotNormalizedError,
    TotalConflictError,
    average_support_credibility,
    build_edmm,
    build_eem,
    cef_fuse,
    dcr_fuse,
    decide,
    eigenvalue_credibility,
    event_evidence,
    fuse,
    icef,
    murphy_fuse,
    pbagd,
    self_fuse,
    vacuous,
    weighted_average,
)
from credfuse import core, fusion
from credfuse.core import _intersections
from credfuse.divergence import LengthMismatchError as DivergenceLengthMismatchError
from credfuse.fusion import LengthMismatchError, _fuse_batch

from .conftest import random_mass_function

# converged credibilities for the five-sensor fault case (tau=200)
FAULT_CRED = np.array([0.2349, 0.2874, 0.1588, 0.3180, 0.0009])
# first-iteration credibilities under each initialization
FAULT_STEP1_UNIFORM = np.array([0.1277, 0.1049, 0.2676, 0.1101, 0.3897])
FAULT_STEP1_EEM = np.array([0.1706, 0.1807, 0.2144, 0.1966, 0.2378])
# converged credibilities for the conflicting-sensors case
CONFLICT_CRED = np.array([0.0091, 0.0001, 0.3663, 0.3123, 0.3123])


class TestWeightedAverage:
    def test_single_evidence_unchanged(self, fault_case):
        assert weighted_average(fault_case[:1], [1.0]) == fault_case[0]

    def test_identical_evidence_any_weights(self, fault_case):
        ms = [fault_case[0]] * 3
        assert weighted_average(ms, [0.2, 0.5, 0.3]) == fault_case[0]

    def test_uniform_average_masses(self, fault_case):
        avg = weighted_average(fault_case, np.full(5, 0.2))
        assert avg.mass("A1") == pytest.approx(0.56)
        assert avg.mass("A2") == pytest.approx(0.09)
        assert avg.mass("A3") == pytest.approx(0.17)
        assert avg.mass("A1,A2,A3") == pytest.approx(0.18)

    def test_length_mismatch(self, fault_case):
        with pytest.raises(LengthMismatchError):
            weighted_average(fault_case, [0.5, 0.5])
        assert LengthMismatchError is DivergenceLengthMismatchError


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
    ])
    def test_bad_weights_raise_what_weighted_average_raises(self, fault_case, weights, error):
        with pytest.raises(error):
            weighted_average(fault_case, weights)
        with pytest.raises(error):
            cef_fuse(fault_case, weights)

    def test_weights_that_average_to_a_mass_are_accepted(self, fault_case):
        # a negative weight on a copy of the same report still averages to a mass
        ms = [fault_case[0], fault_case[0], fault_case[1]]
        _assert_same_result(cef_fuse(ms, [1.5, -0.5, 0.0]), _reference(ms, [1.5, -0.5, 0.0]))


def _reference(ms, weights, method="cef"):
    """Credibility-weighted fusion through the dictionary average and the
    single-mass self-combination, or the total conflict it raises."""
    try:
        mass = self_fuse(weighted_average(ms, weights), len(ms))
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
        with pytest.raises(ValueError):
            fuse(fault_case, method="magic")

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


class TestIcefSteps:
    def test_fused_masses_built_when_read(self, fault_case, monkeypatch):
        calls = []
        init = MassFunction.__init__
        monkeypatch.setattr(MassFunction, "__init__",
                            lambda self, *args: calls.append(1) or init(self, *args))
        result, trace = icef(fault_case)
        assert len(trace.steps) > 1
        assert len(calls) == 1  # the final fused mass only
        assert trace.final.fused is result.mass
        first = trace.steps[0].fused
        assert len(calls) == 2 and trace.steps[0].fused is first

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6), n_pieces=st.integers(min_value=2, max_value=10),
           seed=st.integers(0, 2**32 - 1))
    def test_each_step_is_the_scalar_average_self_combined(self, n, n_pieces, seed):
        # the loop's average is bit-equal to weighted_average, its combination
        # to self_fuse, and its probabilities to the fused pignistic
        ms = _random_set(np.random.default_rng(seed), _frame(n), n_pieces)
        _, trace = icef(ms, IcefConfig(max_iter=6))
        for step in trace.steps:
            fused = self_fuse(weighted_average(ms, step.credibilities), n_pieces)
            assert step.fused == fused
            assert step.probabilities.tobytes() == fused.pignistic().tobytes()


@st.composite
def _batches(draw):
    """Evidence sets of equal size on one frame, with loop settings that make
    sets stop at different steps, reach zero credibilities or total conflict,
    start from the EEM, use the bjs measure, or span several chunks."""
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
    chunk = draw(st.sampled_from([None, 1, 2, 3]))
    conflict = draw(st.booleans())
    return sets, method, config, chunk, conflict


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
        sets, method, config, chunk, conflict = case
        single_config = replace(config, measure=fusion.get_measure(method[len("icef-"):]))
        with mock.patch.object(fusion, "_BLOCK_ENTRIES",
                               fusion._BLOCK_ENTRIES if chunk is None
                               else chunk << sets[0][0].frame.n), \
                mock.patch.object(core, "_LOG2_CONFLICT_EPS",
                                  -1.0 if conflict else core._LOG2_CONFLICT_EPS):
            batch = _fuse_batch(sets, method, config)
            assert len(batch) == len(sets)
            for ms, got in zip(sets, batch):
                try:
                    want, _ = icef(ms, single_config)
                except TotalConflictError as error:
                    assert isinstance(got, TotalConflictError)
                    assert got.conflict == error.conflict
                    continue
                _assert_same_result(got, want)
            # permuting the sets permutes the results, bit for bit
            again = _fuse_batch(sets[::-1], method, config)[::-1]
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
        batch = _fuse_batch(sets, "icef-pbagd")
        assert len({result.n_iter for result in batch}) > 1
        for ms, got in zip(sets, batch):
            _assert_same_result(got, icef(ms)[0])

    def test_sets_reach_zero_credibility(self):
        # every event has a categorical report, and exp(-tau * d) underflows
        # for the pieces off the assertions
        rng = np.random.default_rng(37)
        frame = _frame(3)
        sets = [[event_evidence(frame, j) for j in range(3)] + _random_set(rng, frame, 2)
                for _ in range(5)]
        config = IcefConfig(tau=1e5)
        batch = _fuse_batch(sets, "icef-pbagd", config)
        zeros = [(result.credibilities == 0.0).any() for result in batch]
        assert sum(zeros) > 1 and not all(zeros)  # so the averages' focal sets differ
        for ms, got in zip(sets, batch):
            _assert_same_result(got, icef(ms, config)[0])

    def test_total_conflict_is_flagged_per_set(self, monkeypatch):
        monkeypatch.setattr(core, "_LOG2_CONFLICT_EPS", -1.0)
        sets = self._mixed_sets()
        batch = _fuse_batch(sets, "icef-pbagd")
        flagged = [isinstance(result, TotalConflictError) for result in batch]
        assert any(flagged) and not all(flagged)
        for ms, got in zip(sets, batch):
            if isinstance(got, TotalConflictError):
                with pytest.raises(TotalConflictError) as excinfo:
                    icef(ms)
                assert excinfo.value.conflict == got.conflict
            else:
                _assert_same_result(got, icef(ms)[0])

    def test_chunks_bound_the_sets_per_loop(self, monkeypatch):
        sizes = []
        loop = fusion._icef_loop
        monkeypatch.setattr(fusion, "_icef_loop",
                            lambda sets, *args: sizes.append(len(sets)) or loop(sets, *args))
        monkeypatch.setattr(fusion, "_BLOCK_ENTRIES", 4 << 3)  # 4 sets of n = 3 per chunk
        sets = self._mixed_sets()
        batch = _fuse_batch(sets, "icef-pbagd")
        assert sizes == [4, 4, 1]
        for ms, got in zip(sets, batch):
            _assert_same_result(got, icef(ms)[0])

    def test_dcr_fuses_set_by_set(self, fault_case, conflict_case, close_pair):
        # sets of any size or frame, as dcr needs no common arrays
        sets = [fault_case, conflict_case[:3], list(close_pair)]
        for got, ms in zip(_fuse_batch(sets, "dcr"), sets):
            want = dcr_fuse(ms)
            assert (got.mass, got.decision) == (want.mass, want.decision)
            assert got.pignistic.tobytes() == want.pignistic.tobytes()
        frame = fault_case[0].frame
        clash = [event_evidence(frame, 0), event_evidence(frame, 1)]
        assert isinstance(_fuse_batch([clash], "dcr")[0], TotalConflictError)

    def test_sets_must_agree_in_size_and_frame(self, fault_case, close_pair):
        for method in ("icef-pbagd", "murphy", "cef-avg", "cef-eig"):
            assert _fuse_batch([], method) == []
            with pytest.raises(LengthMismatchError):
                _fuse_batch([fault_case, fault_case[:4]], method)
            with pytest.raises(core.FrameMismatchError):
                _fuse_batch([fault_case[:2], list(close_pair)], method)
            with pytest.raises(ValueError):
                _fuse_batch([fault_case[:1]], method)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    def test_unsupported_events_are_refused(self, frame3):
        # no piece supports the third event at this tau: the credibilities
        # would be NaN
        ms = [MassFunction(frame3, {"A1": 0.9, "A2": 0.1}), MassFunction(frame3, {"A1": 1.0})]
        with pytest.raises(core.InvalidMassValueError):
            icef(ms, IcefConfig(tau=1e6))


@st.composite
def _open_loop_batches(draw):
    """Evidence sets of equal size on one frame with mixed focal patterns,
    some made of clashing categorical reports, plus an open-loop method, a
    chunk size and whether to raise the conflict threshold so that some
    self-combinations fail."""
    n = draw(st.integers(min_value=1, max_value=6))
    n_pieces = draw(st.integers(min_value=2, max_value=8))
    n_sets = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = _frame(n)
    sets = [_random_set(rng, frame, n_pieces) for _ in range(n_sets)]
    for b in draw(st.lists(st.integers(0, n_sets - 1), max_size=3)):
        sets[b] = [event_evidence(frame, int(rng.integers(n))) for _ in range(n_pieces)]
    method = draw(st.sampled_from(["murphy", "cef-avg", "cef-eig"]))
    return sets, method, draw(st.sampled_from([None, 1, 2, 3])), draw(st.booleans())


def _assert_same_outcome(got, want):
    if isinstance(want, TotalConflictError):
        assert isinstance(got, TotalConflictError)
        assert got.conflict == want.conflict
    else:
        _assert_same_result(got, want)


class TestMurphyBatch:
    """A batch of murphy, cef-avg or cef-eig fusions against the dictionary
    average self-combined per set, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_open_loop_batches())
    def test_batch_equals_single_calls(self, case):
        sets, method, chunk, conflict = case
        with mock.patch.object(fusion, "_BLOCK_ENTRIES",
                               fusion._BLOCK_ENTRIES if chunk is None
                               else chunk << sets[0][0].frame.n), \
                mock.patch.object(core, "_LOG2_CONFLICT_EPS",
                                  -1.0 if conflict else core._LOG2_CONFLICT_EPS):
            batch = _fuse_batch(sets, method)
            assert len(batch) == len(sets)
            for ms, got in zip(sets, batch):
                _assert_same_outcome(got, _reference(ms, _weights(ms, method), method))
            # reversing the sets reverses the results, bit for bit
            for got, want in zip(_fuse_batch(sets[::-1], method)[::-1], batch):
                _assert_same_outcome(got, want)

    def test_total_conflict_is_flagged_per_set(self, monkeypatch):
        monkeypatch.setattr(core, "_LOG2_CONFLICT_EPS", -1.0)
        rng = np.random.default_rng(41)
        frame = _frame(3)
        sets = [_random_set(rng, frame, 4) for _ in range(6)]
        sets[1] = [event_evidence(frame, j % 3) for j in range(4)]
        batch = _fuse_batch(sets, "murphy")
        flagged = [isinstance(result, TotalConflictError) for result in batch]
        assert flagged[1] and not all(flagged)
        for ms, got in zip(sets, batch):
            _assert_same_outcome(got, _reference(ms, _weights(ms, "murphy"), "murphy"))

    def test_one_focal_set_in_the_whole_table(self, frame3):
        sets = [[event_evidence(frame3, 1)] * n_pieces for n_pieces in (3, 3)]
        for ms, got in zip(sets, _fuse_batch(sets, "murphy")):
            _assert_same_result(got, _reference(ms, _weights(ms, "murphy"), "murphy"))

    def test_one_array_step_per_chunk(self, monkeypatch):
        sizes = []
        cef_rows = fusion._cef_rows
        monkeypatch.setattr(fusion, "_cef_rows",
                            lambda focal, table, *args: sizes.append(len(table))
                            or cef_rows(focal, table, *args))
        monkeypatch.setattr(fusion, "_BLOCK_ENTRIES", 4 << 3)  # 4 sets of n = 3 per chunk
        rng = np.random.default_rng(43)
        sets = [_random_set(rng, _frame(3), 4) for _ in range(9)]
        batch = _fuse_batch(sets, "murphy")
        assert sizes == [4, 4, 1]
        for ms, got in zip(sets, batch):
            _assert_same_result(got, _reference(ms, _weights(ms, "murphy"), "murphy"))


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
        batched = _fuse_batch([ms, permuted, ms])
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
        batched = _fuse_batch([relabelled, ms])
        np.testing.assert_allclose(batched[0].pignistic[perm], batched[1].pignistic, atol=1e-6)
