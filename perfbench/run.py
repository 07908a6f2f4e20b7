"""credfuse benchmark: batch evidence fusion, one caller in a closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide-frame --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics from a separate traced run.  Every metric is
printed by name and unit, followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero when
an output check or the frozen-reference gate fails, or when the checkout
holds no credfuse sources.

All work runs in child processes (``worker.py``) whose environment pins
BLAS to one thread.  An untraced run starts ``SETUP_REPEATS`` set-up-only
children before the measuring one; ``setup_s`` is the median set-up time of
all of them.  Timings are CPU times reported at a fixed reference CPU
speed (see ``worker.PROBE_REF_S``); the wall-clock values are printed and
recorded too.
A record of each run, with the environment and the workload properties, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("iris-montecarlo", "wide-frame", "many-sources")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, args, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--root", str(ROOT), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (the checkout is not a git repository)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_PIN,
        "note": ("CPU shared with other tenants; frequency not controlled; "
                 "no machine setting was changed for the run"),
    }


def end_to_end(args) -> tuple[dict, dict]:
    children = [run_child("setup", args) for _ in range(SETUP_REPEATS - 1)]
    res = run_child("measure", args)
    children.append(res)
    setups = [c["setup_s"] for c in children]
    res["raw"]["setup_s"] = statistics.median(c["setup_wall_s"] for c in children)
    values = {
        "ops_per_s": res["ops_per_s"],
        "op_ms_p50": res["op_ms_p50"],
        "op_ms_p90": res["op_ms_p90"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": res["ok_frac"],
    }
    for method, value in res["accuracy"].items():
        values[f"accuracy.{method}"] = value
    res["setup_samples_s"] = setups
    return values, res


def per_layer(args) -> tuple[dict, dict]:
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    res = run_child("trace", args, ("--spans", str(spans)))
    return res["layer"], res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="credfuse batch-fusion benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "credfuse" / "__init__.py").is_file():
        print(f"error: no credfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # the metrics, their order and units are those BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values, res = per_layer(args) if args.trace else end_to_end(args)
    failures = res["gate_failures"] + res["errors"]
    correct = not res["gate_failures"] and res["failed"] == 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "correct": correct,
              "result": res}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env: sha={env['git_sha']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} BLAS threads=1; {env['note']}")
    if args.trace:
        print(f"# {res['passes']} traced passes of {res['ops_per_pass']} ops, "
              f"each paired with an untraced pass")
    else:
        raw = res["raw"]
        print(f"# {res['ops']} timed ops in {res['window_s']:.2f} s; p50 and p90 over all "
              f"{res['ops']}; times scaled to the reference CPU speed")
        print(f"# wall clock, unscaled: ops_per_s={raw['ops_per_s']:.4g} op_ms_p50={raw['op_ms_p50']:.4g} "
              f"op_ms_p90={raw['op_ms_p90']:.4g} setup_s={raw['setup_s']:.4g}")
        print(f"# error_frac={res['error_frac']:g}; total conflicts={res['total_conflicts']}")
        print(f"# properties: {json.dumps(res['properties'])}")
    for failure in failures:
        print(f"# FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name:42s} {values[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"] + len(res["gate_failures"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
