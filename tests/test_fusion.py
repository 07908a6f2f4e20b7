"""Open-loop and iterative fusion against the benchmark evidence sets."""

import math

import numpy as np
import pytest

from credfuse import (
    BJS,
    Frame,
    IcefConfig,
    InvalidConfigError,
    MassFunction,
    cef_fuse,
    dcr_fuse,
    decide,
    fuse,
    icef,
    murphy_fuse,
    pbagd,
    vacuous,
    weighted_average,
)
from credfuse import core
from credfuse.core import _intersections
from credfuse.divergence import LengthMismatchError as DivergenceLengthMismatchError
from credfuse.fusion import LengthMismatchError

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
        from credfuse import self_fuse

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
        from credfuse import build_eem, conditional_credibility, self_fuse, support_matrix

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
        calls = []
        pignistic = MassFunction.pignistic
        monkeypatch.setattr(MassFunction, "pignistic",
                            lambda m: calls.append(m) or pignistic(m))
        result = fuse(fault_case, method=method)
        assert len(calls) == result.n_iter
        probs = result.pignistic
        first_max = np.flatnonzero(probs == probs.max())[0]
        assert result.decision == fault_case[0].frame.events[first_max]
