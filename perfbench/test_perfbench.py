"""Self-checks of the benchmark: ``python3 -m pytest perfbench``.

They cover what the benchmark's numbers rest on: the same seed gives the
same inputs and exactly the same work counts, the tracer leaves the library
as it found it, op times are scaled by the probes around them, and the
frozen-reference gate holds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import credfuse  # noqa: E402
import gate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from credfuse import core, fusion  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def traced_counts(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name](seed, ROOT)
    tracer = Tracer()
    _, failures = worker.run_pass(wl, wl.trace_ops, tracer)
    assert failures == []
    return {k: v for k, v in tracer.summary().items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_exactly_for_one_seed(name):
    first = traced_counts(name, 7)
    assert first == traced_counts(name, 7)
    assert first["fusion.fuse.calls"] > 0 or first["classify.monte_carlo_evaluate.calls"] > 0


def test_generated_inputs_depend_only_on_the_seed():
    a, b = workloads.ManySources(3, ROOT), workloads.ManySources(3, ROOT)
    assert a.texts == b.texts and a.truths == b.truths
    assert workloads.ManySources(4, ROOT).texts != a.texts
    w1, w2 = workloads.WideFrame(3, ROOT), workloads.WideFrame(3, ROOT)
    assert w1.combos == w2.combos
    assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(w1.inputs, w2.inputs))


def test_tracer_restores_every_original():
    before = {(id(owner), attr): owner.__dict__.get(attr) for _, owner, attr, _, _ in TARGETS}
    fuse_in_classify = credfuse.classify.fuse
    with Tracer() as tracer:
        assert credfuse.classify.fuse is not fuse_in_classify  # importer's name wrapped too
        assert credfuse.core.self_fuse is credfuse.fusion.self_fuse
        fusion.fuse(credfuse.builtin_document("fault-sensors").mass_functions, method="murphy")
    after = {(id(owner), attr): owner.__dict__.get(attr) for _, owner, attr, _, _ in TARGETS}
    assert before == after
    assert credfuse.classify.fuse is fuse_in_classify
    assert tracer.summary()["fusion.cef_fuse.calls"] == 1


def test_self_time_excludes_children_and_conflicts_are_counted():
    frame = core.Frame(("A", "B"))
    a = core.MassFunction(frame, {"A": 1.0})
    b = core.MassFunction(frame, {"B": 1.0})
    tracer = Tracer()
    with tracer:
        with pytest.raises(core.TotalConflictError):
            core.dcr_n([a, a, b])
    summary = tracer.summary()
    assert summary["core.total_conflicts"] == 1
    assert summary["core.dcr_pair.calls"] == 2
    assert summary["core.focal_pairs"] == 2
    (dcr_n,) = [s for s in tracer.spans if s[0] == "core.dcr_n"]
    assert 0.0 <= summary["core.dcr_n.self_s"] <= dcr_n[2] - dcr_n[1]
    assert all(s[3] == tracer.spans.index(dcr_n) for s in tracer.spans
               if s[0] == "core.dcr_pair")


def test_frozen_reference_gate_holds():
    assert gate.check() == []


def test_op_times_scale_by_the_probes_around_each_op():
    ref = worker.PROBE_REF_S
    # op 0 ran between two probes at half the reference speed, op 1 between
    # one at half and one at the reference speed
    assert worker.speed_scales([2 * ref, 2 * ref, ref]) == pytest.approx([0.5, 2 / 3])
