"""Workload inputs, operations and output checks of the credfuse benchmark.

Every workload is a closed loop over a numbered op sequence: op ``i`` is a
single call into the library, fully determined by the workload seed and
``i``.  Inputs are generated (and, for ``many-sources``, serialised to JSON
and parsed back through :mod:`credfuse.documents`) during set-up, so the
timed call receives ready-made library objects and nothing else.

Library functions are always looked up through their module at call time
(``fusion.fuse``, not a name bound at import), so the span tracer's
wrappers take effect without this file knowing about them.

Generated evidence plants a true event ``t``: honest sources put all their
mass on subsets that contain ``t``, disturbed sources on subsets that do
not.  The planted event is kept beside the input, never passed to the
library, and scores the ``accuracy.*`` metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from credfuse import classify, core, documents, fusion

#: The three fusion methods every workload decides with; they name the
#: ``accuracy.*`` metrics.
ACCURACY_METHODS = ("dcr", "murphy", "icef-pbagd")

SUM_TOL = 1e-9


# independent random streams drawn from one workload seed
INPUTS, ORDER, REPLAY = range(3)


def op_rng(seed: int, i: int, stream: int = INPUTS) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, INPUTS, i]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one op produced, as judged by the benchmark's output check."""

    ok: bool
    conflict: bool = False
    # method -> (correct decisions, decisions); a total conflict is a miss
    decisions: dict = field(default_factory=dict)
    # property record of the op's input and result
    n: int = 0
    n_evidence: int = 0
    focal_counts: tuple = ()
    singleton_only: int = 0
    fused_focals: int | None = None
    detail: str = ""


def check_fusion(result, frame: core.Frame, method: str) -> str:
    """Empty string when a FusionResult passes the per-op check, else why not."""
    p = np.asarray(result.pignistic, dtype=float)
    if p.shape != (frame.n,) or not np.isfinite(p).all():
        return f"{method}: pignistic vector not finite or of wrong shape"
    if abs(p.sum() - 1.0) > SUM_TOL:
        return f"{method}: pignistic sums to {p.sum()!r}"
    first_max = int(np.flatnonzero(p == p.max())[0])
    if result.decision != frame.events[first_max]:
        return f"{method}: decision {result.decision!r} is not the lowest-index argmax"
    if abs(sum(v for _, v in result.mass.items()) - 1.0) > SUM_TOL:
        return f"{method}: fused masses do not sum to 1"
    if method.startswith("icef-"):
        cred = result.credibilities
        if cred is None or not np.isfinite(cred).all() or abs(cred.sum() - 1.0) > SUM_TOL:
            return f"{method}: credibilities missing, not finite, or not summing to 1"
    return ""


def _is_singleton_only(m: core.MassFunction) -> bool:
    return all(mask.bit_count() == 1 for mask in m.focal_elements())


def _fusion_outcome(out, method: str, evidence, truth: int) -> Outcome:
    frame = evidence[0].frame
    outcome = Outcome(
        ok=True,
        n=frame.n,
        n_evidence=len(evidence),
        focal_counts=tuple(len(m.focal_elements()) for m in evidence),
        singleton_only=sum(_is_singleton_only(m) for m in evidence),
    )
    if isinstance(out, core.TotalConflictError):
        outcome.conflict = True
        outcome.decisions = {method: (0, 1)}
        return outcome
    if isinstance(out, BaseException):
        outcome.ok = False
        outcome.detail = f"{method}: raised {type(out).__name__}: {out}"
        return outcome
    outcome.detail = check_fusion(out, frame, method)
    outcome.ok = not outcome.detail
    outcome.fused_focals = len(out.mass.focal_elements())
    outcome.decisions = {method: (int(out.decision == frame.events[truth]), 1)}
    return outcome


def _random_subset(rng, n: int, include: int, exclude: int, min_size: int) -> int:
    """A uniformly drawn mask holding ``include`` and none of ``exclude``."""
    while True:
        mask = (int(rng.integers(1, 1 << n)) | include) & ~exclude
        if mask.bit_count() >= min_size:
            return mask


def _masses(rng, masks, frame_mass: float = 0.0, full: int = 0) -> dict[int, float]:
    weights = rng.random(len(masks)) + 0.05
    weights = weights / weights.sum() * (1.0 - frame_mass)
    masses: dict[int, float] = {}
    for mask, w in zip(masks, weights):
        masses[mask] = masses.get(mask, 0.0) + float(w)
    if frame_mass:
        masses[full] = masses.get(full, 0.0) + frame_mass
    return masses


def _distinct_masks(rng, k: int, draw) -> list[int]:
    masks: list[int] = []
    for _ in range(50 * k):
        mask = draw()
        if mask not in masks:
            masks.append(mask)
        if len(masks) == k:
            break
    return masks


class IrisMonteCarlo:
    """The paper's classifier experiment: one Monte-Carlo trial per op.

    ``data/iris.csv``, lambda = 5, tau = 200; each op scores 45 held-out
    samples, each with 4 singleton-only pieces of evidence on 3 classes,
    under dcr, murphy and icef-pbagd.
    """

    name = "iris-montecarlo"
    block = 1
    accuracy_ops = 60
    trace_ops = 5

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.dataset = classify.load_dataset(root / "data" / "iris.csv",
                                             label_column="species", name="iris")
        self.config = fusion.IcefConfig(tau=200.0)
        self.lam = 5.0

    def op(self, i: int):
        trial_seed = op_seed(self.seed, i)

        def call():
            return classify.monte_carlo_evaluate(
                self.dataset, ACCURACY_METHODS, lam=self.lam, config=self.config,
                trials=1, seed=trial_seed,
            )

        return call, self._check

    def _check(self, out) -> Outcome:
        if isinstance(out, BaseException):
            return Outcome(ok=False, detail=f"raised {type(out).__name__}: {out}")
        outcome = Outcome(ok=True)
        if set(out) != set(ACCURACY_METHODS):
            return Outcome(ok=False, detail=f"reports for {sorted(out)}")
        for method, report in out.items():
            n_test = self.dataset.n_records - report.n_train
            acc = report.total_accuracy
            correct = round(acc * n_test)
            if (not np.isfinite(acc) or not 0.0 <= acc <= 1.0
                    or abs(correct - acc * n_test) > 1e-9
                    or report.trial_accuracies != (acc,)
                    or not all(0.0 <= v <= 1.0 for v in report.per_class_accuracy.values())):
                return Outcome(ok=False, detail=f"{method}: inconsistent report {report!r}")
            outcome.decisions[method] = (correct, n_test)
        return outcome

    def replay(self) -> list[Outcome]:
        """Fuse one seeded 70/30 split sample by sample through the public calls.

        ``monte_carlo_evaluate`` returns only accuracies, so the per-result
        check (finite pignistic summing to 1, lowest-index argmax decision,
        icef credibilities summing to 1) and the property record run here,
        on a split of this benchmark's own, outside the timed loop.
        """
        ds = self.dataset
        rng = op_rng(self.seed, 0, REPLAY)
        train, test = [], []
        for label in ds.class_labels:
            idx = rng.permutation(ds.class_indices(label))
            k = round(0.7 * len(idx))
            train.extend(idx[:k])
            test.extend(idx[k:])
        model = classify.fit_interval_model(ds.subset(sorted(train)), self.lam)
        frame = model.frame
        outcomes = []
        for row in sorted(test):
            sample = ds.features[row]
            evidence = [classify.attribute_evidence(model, sample, a)
                        for a in range(model.n_attributes)]
            truth = frame.index(ds.labels[row])
            for method in ACCURACY_METHODS:
                try:
                    out = fusion.fuse(evidence, method=method, config=self.config)
                except core.TotalConflictError as exc:
                    out = exc
                outcomes.append(_fusion_outcome(out, method, evidence, truth))
        return outcomes


class WideFrame:
    """Few pieces of evidence with many compound focal sets on wide frames.

    Each op fuses a fresh seeded set of 8 pieces (6 compound focal sets
    each; one disturbed piece has 5 and hedges with mass on the whole
    frame) on n in {6, 8, 10, 12} with murphy, cef-avg or icef-pbagd.  The
    ops come in blocks of 13, in a seeded order: every (n, method) pair
    once plus a second icef-pbagd op at n = 12, so every run has the same
    mix.  The costs of the pairs differ by two orders of magnitude and form
    clusters; with this block the median latency falls among the ops of
    murphy and cef-avg at n = 10 and icef at n = 6, and the p90 among the
    icef ops at n = 12 rather than in the tail of the cluster below them.
    Plain dcr is not part of the timed mix; it decides the accuracy set
    after the clock stops.
    """

    name = "wide-frame"
    sizes = (6, 8, 10, 12)
    methods = ("murphy", "cef-avg", "icef-pbagd")
    n_evidence = 8
    # a fixed count: the focal count drives the cost of self_fuse as F^2,
    # so a drawn count spreads the op costs and with them the p90
    focal_sets = 6
    block = len(sizes) * len(methods) + 1
    pool = 520
    accuracy_ops = 16 * block
    trace_ops = block

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.frames = {n: core.Frame(tuple(f"E{j + 1}" for j in range(n))) for n in self.sizes}
        combos = [(n, m) for n in self.sizes for m in self.methods]
        combos.append((self.sizes[-1], "icef-pbagd"))
        self.combos = []
        for b in range(self.pool // self.block):
            order = op_rng(seed, b, ORDER).permutation(len(combos))
            self.combos.extend(combos[k] for k in order)
        self.inputs = [self._evidence_set(i) for i in range(self.pool)]

    def _evidence_set(self, i: int):
        n, _ = self.combos[i]
        rng = op_rng(self.seed, i)
        frame = self.frames[n]
        truth = int(rng.integers(n))
        t = 1 << truth
        disturbed = int(rng.integers(self.n_evidence))
        evidence = []
        for e in range(self.n_evidence):
            k = self.focal_sets
            if e == disturbed:
                masks = _distinct_masks(rng, k - 1, lambda: _random_subset(rng, n, 0, t, 2))
                masses = _masses(rng, masks, frame_mass=0.1, full=frame.full_mask)
            else:
                masks = _distinct_masks(rng, k, lambda: _random_subset(rng, n, t, 0, 2))
                masses = _masses(rng, masks)
            evidence.append(core.MassFunction(frame, masses))
        return evidence, truth

    def op(self, i: int):
        j = i % self.pool
        evidence, truth = self.inputs[j]
        _, method = self.combos[j]

        def call():
            return fusion.fuse(evidence, method=method)

        return call, lambda out: _fusion_outcome(out, method, evidence, truth)

    def untimed_decisions(self, i: int) -> Outcome:
        """The dcr decision on op ``i``'s input, for ``accuracy.dcr``."""
        evidence, truth = self.inputs[i % self.pool]
        try:
            out = fusion.fuse(evidence, method="dcr")
        except core.TotalConflictError as exc:
            out = exc
        return _fusion_outcome(out, "dcr", evidence, truth)


class ManySources:
    """Many sources on a small frame, read from JSON evidence documents.

    Each document has N in 12..24 sources on n in {4, 5} with compound
    focal sets.  Documents cycle through four kinds of disturbance: one
    hedging source, two hedging sources, one source that contradicts the
    planted event outright, and one categorical source disjoint from every
    honest focal set, which drives plain ``dcr`` into total conflict.  Ops
    cycle through the five fusion methods.
    """

    name = "many-sources"
    methods = ("dcr", "murphy", "cef-avg", "cef-eig", "icef-pbagd")
    block = 20  # lcm of 5 methods and 4 document kinds
    pool = 399  # prime to the 5 methods, so each document meets every method
    accuracy_ops = 100 * block  # the first 1995 ops pair each document with each method
    trace_ops = 2 * block

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.texts, self.truths = zip(*(self._document_text(j) for j in range(self.pool)))
        self.docs = [documents.parse_evidence_document(text) for text in self.texts]

    def _document_text(self, j: int):
        rng = op_rng(self.seed, j)
        kind = j % 4
        n = 4 + int(rng.integers(2))
        n_sources = int(rng.integers(12, 25))
        labels = [f"H{e + 1}" for e in range(n)]
        full = (1 << n) - 1
        truth = int(rng.integers(n))
        t = 1 << truth
        others = [e for e in range(n) if e != truth]
        outsider = 1 << others[int(rng.integers(len(others)))]
        n_disturbed = 2 if kind == 1 else 1
        slots = rng.choice(n_sources, size=n_disturbed, replace=False)
        sources = []
        for s in range(n_sources):
            if s not in slots:
                exclude = outsider if kind == 3 else 0
                k = int(rng.integers(2, 5))
                masks = _distinct_masks(rng, k, lambda: _random_subset(rng, n, t, exclude, 1))
                if all(m.bit_count() == 1 for m in masks):
                    masks[-1] = _random_subset(rng, n, t, exclude, 2)
                masses = _masses(rng, masks)
            elif kind == 3:
                masses = {outsider: 1.0}
            else:
                k = int(rng.integers(1, 4))
                masks = _distinct_masks(rng, k, lambda: _random_subset(rng, n, 0, t, 1))
                hedge = 0.1 if kind in (0, 1) else 0.0
                masses = _masses(rng, masks, frame_mass=hedge, full=full)
            sources.append({
                "name": f"s{s + 1}",
                "masses": {",".join(labels[e] for e in range(n) if mask >> e & 1): v
                           for mask, v in masses.items()},
            })
        return json.dumps({"frame": labels, "evidence": sources}), truth

    def op(self, i: int):
        j = i % self.pool
        evidence = self.docs[j].mass_functions
        method = self.methods[i % len(self.methods)]
        truth = self.truths[j]

        def call():
            return fusion.fuse(evidence, method=method)

        return call, lambda out: _fusion_outcome(out, method, evidence, truth)


WORKLOADS = {w.name: w for w in (IrisMonteCarlo, WideFrame, ManySources)}
