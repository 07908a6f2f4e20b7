"""One benchmark process: set up a workload, check the gate, measure.

Started by ``run.py`` with BLAS threads pinned to 1 and ``src`` on the
import path; prints one JSON object as its last line of output.

Modes:

* ``setup``: set up and check the gate, then report the set-up time only.
* ``measure``: closed loop, one caller, one thread.  Op ``i + 1`` starts
  when op ``i`` and the CPU probe after it return, until ``--seconds`` have
  passed, at least ``MIN_OPS`` ops have run and the last block of the
  workload's op mix is complete.  No tracer is installed.
* ``trace``: repeats the workload's first ``trace_ops`` ops as pairs of
  passes, one untraced and one under the span tracer, until ``--seconds``
  have passed; per-layer values are medians over the traced passes and the
  spans of the last traced pass are written to ``--spans``.
"""

import time

T0 = time.perf_counter()  # set-up wall time counts from here: imports included

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from credfuse import core  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

MIN_OPS = 100  # the p90 then has at least 10 samples beyond it
# The CPU is shared with other tenants.  They take it away from the
# benchmark for tenths of a second at a time, and while they run on the
# same core it runs at about half speed, in phases of a fraction of a second
# to minutes.  Raw wall times of one program therefore spread from run to
# run by more than the bound of any timing metric.  So ops are timed on the
# thread's CPU clock, which leaves out the time other tenants hold the CPU,
# and every CPU time is reported at a fixed reference CPU speed: a short
# fixed probe runs before every op and after the last, and each op's time
# is scaled by PROBE_REF_S over the mean of the probes just before and just
# after it.  The probe does the kind of work the library does (small numpy
# arrays, dictionaries of floats) and never calls the library, so a change
# to the library moves the scaled times as much as the raw ones.
PROBE_REF_S = 2.0e-3  # the probe's median time on the reference machine
# a run that is far slower than planned stops at this multiple of --seconds
OVERRUN = 3.0


def run_op(wl, i):
    """Time one op; return (CPU seconds, wall seconds, Outcome).

    Only the library call is timed.
    """
    call, check = wl.op(i)
    start, start_cpu = time.perf_counter(), time.thread_time()
    try:
        out = call()
    except core.TotalConflictError as exc:
        out = exc
    except Exception as exc:  # any other failure is an error the run reports
        out = exc
    cpu, wall = time.thread_time() - start_cpu, time.perf_counter() - start
    return cpu, wall, check(out)


def set_up(name: str, seed: int, root: Path, tracer: Tracer | None = None):
    if tracer is None:
        wl = workloads.WORKLOADS[name](seed, root)
    else:
        with tracer:
            wl = workloads.WORKLOADS[name](seed, root)
    failures = gate.check()
    # the process's CPU time covers interpreter start-up, imports and set-up
    return wl, failures, time.process_time(), time.perf_counter() - T0


_PROBE_ARRAY = np.linspace(0.1, 1.0, 8)


def probe_s() -> float:
    """Time a fixed computation on the CPU clock: how fast the CPU runs now.

    Garbage collection is held off during the probe, so that it never pays
    for the library's garbage.
    """
    gc.disable()
    start = time.thread_time()
    a, acc = _PROBE_ARRAY, 0.0
    for _ in range(150):
        b = a * 1.5
        c = np.maximum(b, 0.3)
        acc += float(c.sum()) / float(np.abs(b - c).max() + 1.0)
    for r in range(60):
        d: dict[int, float] = {}
        for k in range(1, 9):
            mask = (k * 2654435761 + r) & 255
            d[mask] = d.get(mask, 0.0) + k / 36.0
        acc += sum(v for _, v in sorted(d.items()))
    elapsed = time.thread_time() - start
    gc.enable()
    return elapsed


def speed_scales(probes) -> list[float]:
    """Per op, PROBE_REF_S over the mean of the probes before and after it.

    ``probes[i]`` ran just before op ``i`` and ``probes[i + 1]`` just after
    it; a scale below 1 means the CPU ran slower than the reference then.
    """
    return [2.0 * PROBE_REF_S / (before + after) for before, after in zip(probes, probes[1:])]


def percentile_ms(latencies, q):
    return float(np.percentile(latencies, q)) * 1e3


def properties(outcomes) -> dict:
    """The input and result properties of the ops run, for claims that cite them."""
    focal = Counter()
    for o in outcomes:
        focal.update(o.focal_counts)
    pieces = sum(o.n_evidence for o in outcomes)
    fused = [o.fused_focals for o in outcomes if o.fused_focals is not None]
    return {
        "ops": len(outcomes),
        "n": dict(sorted(Counter(o.n for o in outcomes).items())),
        "N": dict(sorted(Counter(o.n_evidence for o in outcomes).items())),
        "focal_count_distribution": dict(sorted(focal.items())),
        "singleton_only_share": sum(o.singleton_only for o in outcomes) / pieces if pieces else 0.0,
        "fused_focal_count_mean": float(np.mean(fused)) if fused else None,
        "total_conflict_share": sum(o.conflict for o in outcomes) / len(outcomes),
    }


def accuracy(outcomes) -> dict:
    tally = {m: [0, 0] for m in workloads.ACCURACY_METHODS}
    for o in outcomes:
        for method, (right, seen) in o.decisions.items():
            if method in tally:
                tally[method][0] += right
                tally[method][1] += seen
    return {m: right / seen if seen else None for m, (right, seen) in tally.items()}


def measure(wl, seconds: float) -> dict:
    latencies, walls, outcomes, probes = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        probes.append(probe_s())
        cpu, elapsed, outcome = run_op(wl, i)
        latencies.append(cpu)
        walls.append(elapsed)
        outcomes.append(outcome)
        i += 1
        wall = time.perf_counter() - start
        if wall >= OVERRUN * seconds or (
                wall >= seconds and i >= MIN_OPS and i % wl.block == 0):
            break
    probes.append(probe_s())
    window_s = time.perf_counter() - start
    scaled = [t * k for t, k in zip(latencies, speed_scales(probes))]
    timed = list(outcomes)
    # accuracy covers the first accuracy_ops ops of the seed's sequence, so
    # it does not depend on how many ops fit in the window
    for j in range(i, wl.accuracy_ops):
        outcomes.append(run_op(wl, j)[2])
    decided = outcomes[:wl.accuracy_ops]
    if hasattr(wl, "untimed_decisions"):
        decided = decided + [wl.untimed_decisions(j) for j in range(wl.accuracy_ops)]
    checked = decided + outcomes[wl.accuracy_ops:]
    if isinstance(wl, workloads.IrisMonteCarlo):
        replay = wl.replay()
        checked = checked + replay
        record = properties(replay)
    else:
        record = properties(timed)
    errors = [o.detail for o in checked if not o.ok]
    return {
        "ops": i,
        "attempted": len(checked),
        "failed": len(errors),
        "errors": errors[:5],
        "ops_per_s": i / sum(scaled),
        "op_ms_p50": percentile_ms(scaled, 50),
        "op_ms_p90": percentile_ms(scaled, 90),
        # wall-clock times, neither on the CPU clock nor scaled
        "raw": {"ops_per_s": i / sum(walls), "op_ms_p50": percentile_ms(walls, 50),
                "op_ms_p90": percentile_ms(walls, 90)},
        "ok_frac": 1.0 - sum(not o.ok for o in timed) / i,
        "error_frac": sum(not o.ok for o in timed) / i,
        "total_conflicts": sum(o.conflict for o in timed),
        "accuracy": accuracy(decided),
        "window_s": window_s,
        "properties": record,
        "latencies_s": latencies,
        "wall_latencies_s": walls,
        "probes_s": probes,
    }


def run_pass(wl, k: int, tracer: Tracer | None = None):
    """Run ops 0 .. k-1, under ``tracer`` if given; return (busy seconds, failures)."""
    busy, failures = 0.0, []
    with tracer or contextlib.nullcontext():
        for i in range(k):
            if tracer:
                tracer.begin_op(i)
            elapsed, _, outcome = run_op(wl, i)
            busy += elapsed
            if not outcome.ok:
                failures.append(outcome.detail)
    return busy, failures


def trace(wl, seconds: float, setup_tracer: Tracer, spans_path: Path) -> dict:
    k = wl.trace_ops
    summaries, overheads, errors = [], [], []
    last = None
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        # alternate which pass goes first, so a drift in machine speed
        # does not bias the overhead one way
        busy = {}
        for traced in sorted((False, True), reverse=len(summaries) % 2 == 1):
            tracer = Tracer() if traced else None
            busy[traced], failures = run_pass(wl, k, tracer)
            errors.extend(failures)
            if tracer:
                summaries.append(tracer.summary())
                last = tracer
        overheads.append(busy[True] / busy[False] - 1.0)

    counts = [{key: v for key, v in s.items() if not key.endswith(".self_s")} for s in summaries]
    if any(c != counts[0] for c in counts):
        errors.append("work counts differ between traced passes of the same ops")
    layer = dict(counts[0])
    for name in SPAN_NAMES:
        key = f"{name}.self_s"
        layer[key] = statistics.median(s[key] for s in summaries)
    parse = setup_tracer.summary()
    for key in ("documents.parse.calls", "documents.parse.self_s"):
        layer[key] = parse[key]
    calls = layer["divergence.pb_transform.calls"]
    distinct = layer.pop("divergence.pb_transform.distinct")
    layer["divergence.pb_transform.distinct_frac"] = distinct / calls if calls else 0.0
    layer["trace.overhead_frac"] = statistics.median(overheads)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": last.spans}, fh)
    return {
        "passes": len(summaries),
        "ops_per_pass": k,
        "attempted": 2 * k * len(summaries),
        "failed": len(errors),
        "errors": errors[:5],
        "layer": layer,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    setup_tracer = Tracer() if args.mode == "trace" else None
    # set-up is scaled like an op, by probes just before and after it; the
    # first runs after the imports, which it cannot gauge, and counts in set-up
    before = probe_s()
    wl, gate_failures, setup_cpu_s, setup_wall_s = set_up(args.workload, args.seed, args.root,
                                                          setup_tracer)
    setup_s = setup_cpu_s * speed_scales([before, probe_s()])[0]
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "gate_failures": gate_failures}
    if args.mode == "measure":
        out.update(measure(wl, args.seconds))
    elif args.mode == "trace":
        out.update(trace(wl, args.seconds, setup_tracer, args.spans))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
