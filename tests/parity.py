"""One sha256 over the library's results on a fixed set of inputs.

Two checkouts that print the same digest give every result below the same
bits, so a change that must not move any number compares its digest with
its parent's.  Usage, from the root of a checkout::

    python tests/parity.py

It prints the number of records and the digest over all of them, then one
line per record group: its name, its number of records and a digest over
them alone, so a change that must move some numbers can show which groups
kept their bits.  ``--records GROUP`` then prints one line per record of
that group, its key and a digest over it alone, so such a change can show
which records moved::

    python tests/parity.py --records iris-reports

``--against REV`` extracts the ``src``, ``tests``, ``perfbench`` and
``data`` trees of the git revision ``REV`` of this checkout (``git
archive``) into a temporary directory, runs that tree's own parity script,
and then prints one line per group, ``same`` or ``moved``: a group whose
digest or record count differs, or that only one side has, moved.  It
exits 1 if any group moved::

    python tests/parity.py --against HEAD~1

The groups are:

* ``builtin``: every builtin document under the six methods;
* ``trace``: its traced ``icef`` steps (pbagd with uniform start, bjs with
  the EEM start);
* ``wide-frame`` and ``many-sources``: the first 60 ``wide-frame`` inputs
  and the first 80 ``many-sources`` documents of the benchmark (seed 5),
  read through ``perfbench/workloads.py``, under the six methods;
* ``iris-reports``: the iris Monte-Carlo report (20 trials, seed 3) and
  the 51-point sweep reports, for the six methods;
* ``iris-split``: the raw ``fusion._fuse_tables`` arrays of 20 seeded
  70/30 iris splits, for the six methods;
* ``many-operands``: ``self_fuse`` of three masses on five events at 500,
  1080 and 5000 operands, which take the scaled powers of the many-operand
  self-combination in its Bayesian and its compound form;
* ``wide-classes``: the raw ``fusion._fuse_tables`` arrays of seeded wide
  batches: splits of 45 samples of 4 singleton pieces at 8 and 13
  classes, and 5 sets of 3 compound pieces at n = 12, under dcr, murphy,
  cef-avg and icef-pbagd;
* ``wide-classes-results``: the ``fusion._results`` of those batches, the
  results and errors a caller reads, which keep their bits when the raw
  arrays only gain zero columns;
* ``icef-stops``: the raw ``fusion._fuse_tables`` arrays of the 20 iris
  splits and of the compound ``wide-classes`` batch under icef-pbagd and
  icef-bjs, with ``max_iter`` 1, 2 and 3 and with the EEM start, so that
  sets stop at the iteration cap as well as on convergence;
* ``divergences``: the PB-AGD event evaluation matrix of seeded compound
  pieces with each event's categorical evidence among them, at n = 1..16,
  and ``ag_divergence`` and ``pbagd`` of near-equal pairs and of pairs at
  the ends of the float range;
* ``bjs``: ``bjs`` of seeded compound pairs at n = 1..6, of near-equal
  pairs and of pairs where one piece holds a subnormal mass (5e-324 or
  1e-320) on a focal set the other lacks, with the BJS event evaluation
  matrix of those subnormal pieces, and the BJS event evaluation matrix
  of seeded compound pieces with each event's categorical evidence among
  them, at n = 1..8.

The groups from ``icef-stops`` on come after all the others, in the order
they were added, so the digests of the groups before them do not depend on
them.

Floats are recorded by their bits, so a NaN or a signed zero counts.  The
file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from credfuse import (  # noqa: E402
    BJS,
    BUILTIN_DOCUMENTS,
    PBAGD,
    Frame,
    IcefConfig,
    MassFunction,
    ag_divergence,
    bjs,
    builtin_document,
    classify,
    core,
    fusion,
    load_dataset,
    monte_carlo_evaluate,
    pbagd,
    self_fuse,
    sweep_evaluate,
)

import workloads  # noqa: E402

METHODS = ("dcr", "murphy", "cef-avg", "cef-eig", "icef-pbagd", "icef-bjs")
SEED = 5

#: Masses on five events, as ``TestSelfFuseAgainstFold`` combines them
#: hundreds and thousands of times.
MANY_OPERANDS = (
    {0b00001: 0.5, 0b00010: 0.5},
    {1 << j: 0.2 for j in range(5)},
    {0b00001: 0.3, 0b00011: 0.2, 0b00100: 0.2, 0b01100: 0.15, 0b10000: 0.1, 0b11111: 0.05},
)

#: The methods of the ``wide-classes`` group.
WIDE_METHODS = ("dcr", "murphy", "cef-avg", "icef-pbagd")

#: The methods and loop settings of the ``icef-stops`` group.
STOP_METHODS = ("icef-pbagd", "icef-bjs")
STOP_CONFIGS = {**{f"max_iter={k}": IcefConfig(tau=200.0, max_iter=k) for k in (1, 2, 3)},
                "eem": IcefConfig(tau=200.0, init="eem")}

#: The group of a record whose key starts with a name other than its group's.
GROUPS = {"monte-carlo": "iris-reports", "sweep": "iris-reports"}


def canon(value) -> str:
    """A text that differs whenever two values differ in any bit."""
    if isinstance(value, np.ndarray):
        return f"array({value.dtype.str},{value.shape},{value.tobytes().hex()})"
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes().hex()
    if isinstance(value, MassFunction):
        return canon([(mask, mass) for mask, mass in value.items()])
    if isinstance(value, BaseException):
        return f"{type(value).__name__}{canon(list(value.args))}"
    if dataclasses.is_dataclass(value):
        return canon({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(canon, value)) + "]"
    return repr(value)


def fused(ms, method: str, config: IcefConfig | None = None):
    try:
        return fusion.fuse(ms, method=method, config=config)
    except Exception as error:  # the error is part of the result
        return error


def traced(ms, config: IcefConfig):
    try:
        result, trace = fusion.icef(ms, config)
    except Exception as error:  # the error is part of the result
        return error
    steps = [(s.index, s.credibilities, s.probabilities, s.delta, s.fused) for s in trace.steps]
    return result, steps, trace.converged


def caught(function, *args):
    try:
        return function(*args)
    except Exception as error:  # the error is part of the result
        return error


def divergence_records():
    """The records of the ``divergences`` group."""
    rng = np.random.default_rng(SEED)
    for n in range(1, 17):
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        pieces = []
        for _ in range(3):
            masks = sorted({int(rng.integers(1, 1 << n)) for _ in range(3)} | {frame.full_mask})
            weights = rng.uniform(0.1, 1.0, len(masks))
            pieces.append(MassFunction(frame, dict(zip(masks, weights / weights.sum()))))
        pieces += [core.event_evidence(frame, j) for j in range(n)]
        yield ("divergences", "eem", n), caught(PBAGD.event_divergences, pieces, frame)
    for i in range(40):  # relative gaps from 1e-12 to 1e-4
        p = rng.uniform(0.01, 1.0, 8)
        q = p * (1.0 + rng.uniform(-1.0, 1.0, 8) * 10.0 ** -rng.uniform(4, 12))
        yield ("divergences", "ag-near", i), caught(ag_divergence, p / p.sum(), q / q.sum())
    for i, scale in enumerate((1e-308, 1e-300, 1e-290, 1e290, 1e300, 1e307)):
        p, q = rng.uniform(0.0, 1.0, (2, 8)) * scale
        p[0], q[0], p[1], q[2] = 0.0, 0.0, q[1], 0.0  # both zero, equal, one zero
        yield ("divergences", "ag-ends", i), caught(ag_divergence, p, q)
        yield ("divergences", "ag-ends", i, "finite"), caught(ag_divergence, p[3:], q[3:])
    frame = Frame(tuple(f"E{i + 1}" for i in range(5)))
    for i in range(20):
        masks = sorted({int(rng.integers(1, 1 << 5)) for _ in range(4)})
        weights = rng.uniform(0.1, 1.0, len(masks))
        near = weights * (1.0 + rng.uniform(-1.0, 1.0, len(masks)) * 1e-9)
        tiny = np.where(np.arange(len(masks)) == 0, 1e-300, weights)
        near_pair = [MassFunction(frame, dict(zip(masks, w / w.sum()))) for w in (weights, near)]
        yield ("divergences", "pbagd-near", i), caught(pbagd, *near_pair)
        yield ("divergences", "pbagd-ends", i), caught(
            pbagd, near_pair[0], MassFunction(frame, dict(zip(masks, tiny / tiny.sum()))))


def compound_piece(rng, frame: Frame, focals: int, extra=()) -> MassFunction:
    """A piece on ``focals`` seeded masks, the ``extra`` ones and the whole
    frame, with uniform weights from 0.1 to 1 scaled to a unit sum."""
    masks = sorted({int(rng.integers(1, 1 << frame.n)) for _ in range(focals)}
                   | {*extra, frame.full_mask})
    weights = rng.uniform(0.1, 1.0, len(masks))
    return MassFunction(frame, dict(zip(masks, weights / weights.sum())))


def bjs_records():
    """The records of the ``bjs`` group."""
    rng = np.random.default_rng(SEED)
    for n in range(1, 7):
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        for i in range(5):
            pair = [compound_piece(rng, frame, 3) for _ in range(2)]
            yield ("bjs", "pair", n, i), caught(bjs, *pair)
    frame = Frame(tuple(f"E{i + 1}" for i in range(5)))
    for i in range(20):  # relative gaps from 1e-12 to 1e-4
        piece = compound_piece(rng, frame, 4)
        masks, weights = zip(*piece.items())
        near = np.array(weights) * (1.0 + rng.uniform(-1.0, 1.0, len(masks))
                                    * 10.0 ** -rng.uniform(4, 12))
        yield ("bjs", "near", i), caught(
            bjs, piece, MassFunction(frame, dict(zip(masks, near / near.sum()))))
    for i, tiny in enumerate((5e-324, 1e-320) * 5):
        frame = Frame(tuple(f"E{j + 1}" for j in range(2 + i // 2)))
        other = compound_piece(rng, frame, 1)
        lone = [mask for mask in frame.subsets() if mask not in other.masses]
        mask = lone[int(rng.integers(len(lone)))]
        # one subnormal on a set the other lacks, its rest a compound piece
        piece = compound_piece(rng, frame, 2)
        held = {k: v for k, v in piece.items() if k != mask}
        held[frame.full_mask] += 1.0 - sum(held.values())
        piece = MassFunction(frame, {**held, mask: tiny})
        yield ("bjs", "subnormal", i), caught(bjs, piece, other)
        yield ("bjs", "subnormal", i, "swapped"), caught(bjs, other, piece)
        yield ("bjs", "subnormal", i, "eem"), caught(BJS.event_divergences, [piece, other],
                                                     frame)
    for n in range(1, 9):
        frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
        pieces = [compound_piece(rng, frame, 3) for _ in range(3)]
        pieces += [core.event_evidence(frame, j) for j in range(n)]
        yield ("bjs", "eem", n), caught(BJS.event_divergences, pieces, frame)


def records():
    for name in BUILTIN_DOCUMENTS:
        doc = builtin_document(name)
        ms, config = doc.mass_functions, IcefConfig(**doc.overrides)
        for method in METHODS:
            yield ("builtin", name, method), fused(ms, method, config)
        yield ("trace", name, "pbagd"), traced(ms, config)
        yield ("trace", name, "bjs-eem"), traced(ms, dataclasses.replace(
            config, init="eem", measure=BJS))

    wide = workloads.WideFrame(SEED, ROOT)
    for i, (evidence, _) in enumerate(wide.inputs[:60]):
        for method in METHODS:
            yield ("wide-frame", i, method), fused(evidence, method)
    many = workloads.ManySources(SEED, ROOT)
    for i, doc in enumerate(many.docs[:80]):
        for method in METHODS:
            yield ("many-sources", i, method), fused(doc.mass_functions, method)

    iris = load_dataset(ROOT / "data" / "iris.csv", label_column="species", name="iris")
    config = IcefConfig(tau=200.0)
    stop_tables = []  # (name, frame, focal, masses) of each table of the icef-stops group
    yield ("monte-carlo",), monte_carlo_evaluate(iris, METHODS, lam=5.0, config=config,
                                                 trials=20, seed=3)
    yield ("sweep",), sweep_evaluate(iris, METHODS, lam=5.0, config=config)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        train, test = [], []
        for label in iris.class_labels:
            idx = rng.permutation(iris.class_indices(label))
            k = round(0.7 * len(idx))
            train.extend(idx[:k])
            test.extend(idx[k:])
        model = classify.fit_interval_model(iris.subset(sorted(train)), 5.0)
        focal, masses = classify._split_masses(model, iris.features[sorted(test)])
        stop_tables.append((f"iris-{seed}", model.frame, focal, masses))
        for method in METHODS:
            yield ("iris-split", seed, method), fusion._fuse_tables(
                model.frame, focal, masses, method, config)

    frame = Frame(tuple(f"E{i + 1}" for i in range(5)))
    for i, masses in enumerate(MANY_OPERANDS):
        for times in (500, 1080, 5000):
            yield ("many-operands", i, times), self_fuse(MassFunction(frame, masses), times)

    rng = np.random.default_rng(SEED)
    batches = []  # (key, frame, raw arrays) of each wide-classes record
    for n_classes in (8, 13):
        lows = rng.normal(0.0, 3.0, (n_classes, 4))
        model = classify.IntervalModel(tuple(f"C{i + 1}" for i in range(n_classes)), lows,
                                       lows + rng.uniform(0.5, 2.0, lows.shape), 5.0)
        focal, masses = classify._split_masses(model, rng.normal(0.0, 3.0, (45, 4)))
        for method in WIDE_METHODS:
            out = fusion._fuse_tables(model.frame, focal, masses, method, config)
            batches.append(((n_classes, method), model.frame, out))
            yield ("wide-classes", n_classes, method), out
    frame = Frame(tuple(f"E{i + 1}" for i in range(12)))
    pieces = []
    for _ in range(5 * 3):  # compound sets that each hold event 1, so none clashes
        masks = sorted({int(rng.integers(1 << 12)) | 1 for _ in range(3)} | {frame.full_mask})
        weights = rng.uniform(0.1, 1.0, len(masks))
        pieces.append(MassFunction(frame, dict(zip(masks, weights / weights.sum()))))
    focal, table = core._mass_table(pieces)
    stop_tables.append(("compound", frame, focal, table.reshape(5, 3, -1)))
    for method in WIDE_METHODS:
        out = fusion._fuse_tables(frame, focal, table.reshape(5, 3, -1), method, config)
        batches.append((("compound", method), frame, out))
        yield ("wide-classes", "compound", method), out
    for (name, method), frame, out in batches:
        yield ("wide-classes-results", name, method), fusion._results(frame, method, out)
    for name, frame, focal, masses in stop_tables:
        for method in STOP_METHODS:
            for setting, stop_config in STOP_CONFIGS.items():
                yield ("icef-stops", name, method, setting), caught(
                    fusion._fuse_tables, frame, focal, masses, method, stop_config)
    yield from divergence_records()
    yield from bjs_records()


#: A group's line in the output: its name, its number of records and its digest.
GROUP_LINE = re.compile(r"^(\S+): (\d+) records ([0-9a-f]{64})$")


def group_digests(output: str) -> dict[str, tuple[str, str]]:
    """``{name: (records, digest)}`` of the group lines of a parity output."""
    return {match[1]: (match[2], match[3])
            for match in map(GROUP_LINE.match, output.splitlines()) if match}


def compare(ours: str, theirs: str) -> list[tuple[str, str]]:
    """``(group, "same" or "moved")`` for each group of two parity outputs,
    theirs first, in order; a group that only one output has moved."""
    mine, other = group_digests(ours), group_digests(theirs)
    return [(name, "same" if name in mine and mine[name] == other.get(name) else "moved")
            for name in dict.fromkeys([*other, *mine])]


def output_at(rev: str) -> str:
    """The output of the parity script of git revision ``rev`` of this
    checkout, run on that revision's trees in a temporary directory."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "tests", "perfbench",
         "data"], capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        return subprocess.run([sys.executable, str(Path(tree) / "tests" / "parity.py")],
                              cwd=tree, capture_output=True, text=True, check=True).stdout


def main() -> None:
    parser = argparse.ArgumentParser(description="Digest the library's results.")
    parser.add_argument("--records", metavar="GROUP",
                        help="also print the key and digest of each record of GROUP")
    parser.add_argument("--against", metavar="REV",
                        help="compare each group with the parity script of git revision REV; "
                             "exit 1 if any group moved")
    args = parser.parse_args()
    digest = hashlib.sha256()
    groups: dict[str, list] = {}  # name -> [digest, records]
    picked = []  # (key, digest) of each record of the --records group
    count = 0
    for key, value in records():
        line = f"{canon(key)}={canon(value)}\n".encode()
        digest.update(line)
        name = GROUPS.get(key[0], key[0])
        group = groups.setdefault(name, [hashlib.sha256(), 0])
        group[0].update(line)
        group[1] += 1
        count += 1
        if name == args.records:
            picked.append((canon(key), hashlib.sha256(line).hexdigest()))
    if args.records is not None and args.records not in groups:
        parser.error(f"no group {args.records!r}; the groups are {', '.join(groups)}")
    lines = [f"{count} records", digest.hexdigest()]
    lines += [f"{name}: {records_in_group} records {group.hexdigest()}"
              for name, (group, records_in_group) in groups.items()]
    lines += [f"{key} {record_digest}" for key, record_digest in picked]
    print("\n".join(lines))
    if args.against is None:
        return
    try:
        theirs = output_at(args.against)
    except subprocess.CalledProcessError as error:
        stderr = error.stderr if isinstance(error.stderr, str) else error.stderr.decode()
        parser.error(f"could not run the parity script of {args.against!r}:\n{stderr}")
    print(f"against {args.against}:")
    verdicts = compare("\n".join(lines), theirs)
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    sys.exit(1 if any(verdict == "moved" for _, verdict in verdicts) else 0)


if __name__ == "__main__":
    main()
