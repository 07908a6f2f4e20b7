"""Interval-number base classifier and benchmark evaluation harnesses.

Each attribute of a test sample becomes one piece of evidence: the training
data yields a [min, max] interval per (class, attribute), the sample's
distance to each class interval becomes a similarity, and the normalized
similarities form a singleton-focal mass function over the class frame.
Fusing the per-attribute evidence and taking the maximum pignistic
probability gives the predicted class.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .core import Frame, LengthMismatchError, MassFunction, _is_number, _is_positive_finite
from .fusion import IcefConfig, InvalidConfigError, _checked_method, _fuse_tables, fuse
from .fusion import _read_config


class DatasetError(ValueError):
    pass


class SchemaError(DatasetError):
    """The requested label/feature columns do not match the file header."""


class ParseError(DatasetError):
    def __init__(self, row: int, column: str, detail: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {detail}")


class EmptyDatasetError(DatasetError):
    pass


class MissingClassError(DatasetError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """Numeric feature matrix with one categorical label per row."""

    name: str
    feature_names: tuple[str, ...]
    features: np.ndarray
    labels: tuple[str, ...]
    class_labels: tuple[str, ...]

    @property
    def n_records(self) -> int:
        return len(self.labels)

    @property
    def n_attributes(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _label_array(self) -> np.ndarray:
        """The labels as one array, built once."""
        return np.array(self.labels)

    def class_indices(self, label: str) -> np.ndarray:
        """Row indices of one class, in file order."""
        return np.flatnonzero(self._label_array == label)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            self.name,
            self.feature_names,
            self.features[indices],
            tuple(self._label_array[indices].tolist()),
            self.class_labels,
        )


def load_dataset(
    path,
    label_column: str,
    feature_columns: Sequence[str] | None = None,
    name: str | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Read a delimiter-separated file with a header row into a Dataset.

    ``label_column`` names the class column; all other columns are numeric
    features unless ``feature_columns`` narrows them.  Missing, non-numeric
    or non-finite feature cells, and missing labels or labels with a comma,
    raise :class:`ParseError` with the 1-based data row number and column
    name.  So do more classes than a frame holds (``core.MAX_EVENTS``), at
    the row where the first class beyond them appears.  A name repeated in
    the header or in ``feature_columns``, the label among them, or a named
    column the header lacks, raises :class:`SchemaError`.  A ``delimiter``
    that is not a 1-character string raises :class:`InvalidConfigError`.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise InvalidConfigError(f"a delimiter must be one character, got {delimiter!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        repeated = _repeated(header)
        if repeated:
            raise SchemaError(f"column names {repeated} repeated in header {header}")
        if label_column not in header:
            raise SchemaError(f"label column {label_column!r} not in header {header}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != label_column]
        repeated = _repeated(feature_columns)
        if repeated:
            raise SchemaError(f"feature columns {repeated} repeated in {list(feature_columns)}")
        if label_column in feature_columns:
            raise SchemaError(f"label column {label_column!r} named as a feature column")
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise SchemaError(f"feature columns {missing} not in header {header}")
        label_pos = header.index(label_column)
        feature_pos = [header.index(c) for c in feature_columns]

        rows: list[list[float]] = []
        labels: list[str] = []
        first_rows: dict[str, int] = {}  # each class, in first-appearance order
        for row_number, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            values = []
            for col, pos in zip(feature_columns, feature_pos):
                cell = row[pos].strip() if pos < len(row) else ""
                if not cell:
                    raise ParseError(row_number, col, "missing value")
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(row_number, col, f"not numeric: {cell!r}") from None
                if not math.isfinite(value):  # float() reads "nan" and "inf"
                    raise ParseError(row_number, col, "not finite")
                values.append(value)
            label = row[label_pos].strip() if label_pos < len(row) else ""
            if not label:
                raise ParseError(row_number, label_column, "missing label")
            if "," in label:  # a class is a frame event, whose label cannot hold one
                raise ParseError(row_number, label_column, f"a comma in the label {label!r}")
            rows.append(values)
            labels.append(label)
            first_rows.setdefault(label, row_number)

    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    if len(first_rows) > core.MAX_EVENTS:  # a class is a frame event
        extra = list(first_rows)[core.MAX_EVENTS]
        raise ParseError(first_rows[extra], label_column,
                         f"{len(first_rows)} classes, but a frame holds at most "
                         f"{core.MAX_EVENTS} events; {extra!r} is the first beyond them")
    return Dataset(
        name or str(path),
        tuple(feature_columns),
        np.array(rows, dtype=float),
        tuple(labels),
        tuple(first_rows),
    )


def _repeated(names) -> list[str]:
    """The names that occur more than once in ``names``, in first-occurrence order."""
    counts = Counter(names)
    return [name for name, count in counts.items() if count > 1]


@dataclass(frozen=True, eq=False)
class IntervalModel:
    """Per (class, attribute) training intervals plus the similarity scale."""

    class_labels: tuple[str, ...]
    lows: np.ndarray  # (classes, attributes)
    highs: np.ndarray
    lam: float

    @cached_property
    def frame(self) -> Frame:
        return Frame(self.class_labels)

    @property
    def n_attributes(self) -> int:
        return self.lows.shape[1]


def fit_interval_model(train: Dataset, lam: float) -> IntervalModel:
    """Intervals are the per-class min/max of each attribute over the training rows."""
    if not _is_positive_finite(lam):
        raise InvalidConfigError(f"lam must be a positive finite number, got {lam!r}")
    n_classes = len(train.class_labels)
    lows = np.empty((n_classes, train.n_attributes))
    highs = np.empty((n_classes, train.n_attributes))
    for c, label in enumerate(train.class_labels):
        idx = train.class_indices(label)
        if len(idx) == 0:
            raise MissingClassError(f"no training records for class {label!r}")
        block = train.features[idx]
        lows[c] = block.min(axis=0)
        highs[c] = block.max(axis=0)
    return IntervalModel(train.class_labels, lows, highs, float(lam))


def interval_distance(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Distance between two intervals via midpoint and half-width offsets.

    ``sqrt((mid1 - mid2)^2 + (half1 - half2)^2 / 3)``; for two identical
    intervals this is 0, and for degenerate (point) intervals it reduces to
    the absolute midpoint difference.  The bounds may be arrays, which
    broadcast against each other; for floats the result is a NumPy float.
    """
    mid = (lo1 + hi1) / 2.0 - (lo2 + hi2) / 2.0
    half = (hi1 - lo1) / 2.0 - (hi2 - lo2) / 2.0
    return np.sqrt(mid * mid + half * half / 3.0)


def attribute_evidence(model: IntervalModel, sample, attribute: int) -> MassFunction:
    """Evidence from one attribute: normalized interval similarities per class.

    Similarity to class c is ``1 / (1 + lam * dist)`` between the class
    interval and the sample's point interval; masses go to the class
    singletons only.  This is one entry of :func:`_split_evidence`.
    ``attribute`` is a 0-based index: one that is not an integer, a bool
    among them, raises ``TypeError``, and one outside ``0 ..
    model.n_attributes - 1``, a negative one among them, ``IndexError``.
    """
    if not _is_number(attribute, numbers.Integral):
        raise TypeError(f"an attribute is an integer index, got {attribute!r}")
    if not 0 <= attribute < model.n_attributes:
        raise IndexError(f"attribute index {attribute} out of range for a model of "
                         f"{model.n_attributes} attributes")
    return _split_evidence(model, [sample])[0][attribute]


def _similarities(model: IntervalModel, samples) -> np.ndarray:
    """The (S, A, C) similarities ``1 / (1 + lam * dist)`` of each of the S
    samples' A attribute values, as point intervals, to each of the C class
    intervals, through :func:`interval_distance` on arrays."""
    x = np.asarray(samples, dtype=float)[:, :, None]
    # C-ordered (A, C) bounds give a C-ordered table, whose sum over the last
    # axis adds as the sum of one sample's (C,) similarities does
    lo, hi = np.ascontiguousarray(model.lows.T), np.ascontiguousarray(model.highs.T)
    # as in float arithmetic, a huge lam sends a far class's similarity to 0
    # and an infinite value gives NaN, which the mass rules refuse
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / (1.0 + model.lam * interval_distance(lo, hi, x, x))


def _split_masses(model: IntervalModel, samples) -> tuple[np.ndarray, np.ndarray]:
    """The class singleton masks and the (S, A, C) mass table of the
    samples' evidence, one piece per attribute: each similarity over the
    sum of its piece's; the rows are not checked."""
    similarities = _similarities(model, samples)
    # a value far from every class interval can have all its similarities
    # at 0, and then its masses are 0/0 = NaN, which the mass rules refuse
    with np.errstate(invalid="ignore"):
        return (1 << np.arange(similarities.shape[2]),
                similarities / similarities.sum(axis=2, keepdims=True))


def _split_evidence(model: IntervalModel, samples) -> list[list[MassFunction]]:
    """Per sample, one piece of evidence per attribute, all from one
    similarity table and built in one :func:`core._mass_rows` call.  Each
    sample must be one row of ``model.n_attributes`` values, else
    :class:`LengthMismatchError`."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.n_attributes:
        raise LengthMismatchError(f"a sample must be one row of {model.n_attributes} "
                                  f"attribute values, got values of shape {samples.shape[1:]}")
    focal, masses = _split_masses(model, samples)
    n_samples, n_attributes, n_classes = masses.shape
    pieces = core._mass_rows(model.frame, focal, masses.reshape(-1, n_classes))
    return [pieces[s * n_attributes:(s + 1) * n_attributes] for s in range(n_samples)]


def classify_sample(
    model: IntervalModel,
    sample,
    method: str = "icef-pbagd",
    config: IcefConfig | None = None,
):
    """Fuse the per-attribute evidence and decide; returns (label, FusionResult).

    Total conflict during fusion propagates to the caller; the evaluation
    harnesses count such samples as misclassified.
    """
    result = fuse(_split_evidence(model, [sample])[0], method=method, config=config)
    return result.decision, result


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Accuracy summary of one evaluation run.

    ``conflict_samples`` counts test samples whose fusion hit total conflict
    (scored as misclassified) and ``unconverged_samples`` those whose
    iterative fusion stopped at ``max_iter`` (scored by their last decision),
    summed over every split of the run.
    """

    method: str
    dataset: str
    params: dict
    per_class_accuracy: dict[str, float]
    total_accuracy: float
    n_train: int
    trial_accuracies: tuple[float, ...] | None = None
    conflict_samples: int = 0
    unconverged_samples: int = 0


@dataclass
class _Score:
    """One method's tallies over one test split."""

    correct: dict[str, int]
    conflicts: int = 0
    unconverged: int = 0


def _evaluate_model(model, test: Dataset, methods, config) -> dict[str, _Score]:
    """Score every method on the test split.

    The split's evidence is one (S, A, C) mass table, from one similarity
    table; its rows are checked by the mass rules once.  Each method fuses
    the whole table in one :func:`~credfuse.fusion._fuse_tables` call, and
    the fused rows of the samples that did not hit total conflict are
    checked by the same rules before their decisions are read.
    """
    frame = model.frame
    focal, masses = _split_masses(model, test.features)
    core._check_rows(frame, focal, masses.reshape(-1, masses.shape[2]))
    events = np.array(frame.events)
    labels = test._label_array
    of_class = {label: labels == label for label in test.class_labels}
    scores = {}
    for method in methods:
        out = _fuse_tables(frame, focal, masses, method.lower(), config)
        core._check_rows(frame, out.support, out.fused[~out.failed])
        hits = ~out.failed & (events[out.probs.argmax(axis=1)] == labels)
        scores[method] = _Score(
            {label: int(np.count_nonzero(hits & rows)) for label, rows in of_class.items()},
            conflicts=int(np.count_nonzero(out.failed)),  # and counted as errors
            unconverged=int(np.count_nonzero(~out.failed & ~out.converged)))
    return scores


def _run_splits(splits, methods, lam, config) -> list[EvaluationReport]:
    """One report per method per split, split by split, names and config checked first.

    ``splits`` yields ``(params, train, test)``: each split's interval model
    is fit on ``train`` and scored on ``test`` by :func:`_evaluate_model`,
    whose scores are keyed by method, so a method named twice gives one
    report per split.  A class with no test rows scores 0.  A ``str`` is
    refused as ``methods``: its characters are no method names.
    """
    if isinstance(methods, str):
        raise InvalidConfigError(f"methods must be a sequence of names, not the str {methods!r}")
    for method in methods:
        _checked_method(method)
    config = _read_config(config)
    reports = []
    for params, train, test in splits:
        model = fit_interval_model(train, lam)
        counts = {label: test.labels.count(label) for label in test.class_labels}
        for method, score in _evaluate_model(model, test, methods, config).items():
            reports.append(EvaluationReport(
                method=method,
                dataset=test.name,
                params=dict(params),
                per_class_accuracy={label: score.correct[label] / count if count else 0.0
                                    for label, count in counts.items()},
                total_accuracy=sum(score.correct.values()) / test.n_records,
                n_train=train.n_records,
                conflict_samples=score.conflicts,
                unconverged_samples=score.unconverged,
            ))
    return reports


def _mean_report(reports: Sequence[EvaluationReport], params: dict) -> EvaluationReport:
    """One method's reports over its splits, as one report.

    Each accuracy is the correctly rounded sum of the splits' values
    (:func:`math.fsum`) over their number, so it does not depend on the
    order of the splits; the tallies are summed,
    ``trial_accuracies`` holds each split's total and ``n_train`` is the
    last split's.
    """
    def mean(values) -> float:
        return math.fsum(values) / len(reports)

    first = reports[0]
    return EvaluationReport(
        method=first.method,
        dataset=first.dataset,
        params=dict(params),
        per_class_accuracy={label: mean(r.per_class_accuracy[label] for r in reports)
                            for label in first.per_class_accuracy},
        total_accuracy=mean(r.total_accuracy for r in reports),
        n_train=reports[-1].n_train,
        trial_accuracies=tuple(r.total_accuracy for r in reports),
        conflict_samples=sum(r.conflict_samples for r in reports),
        unconverged_samples=sum(r.unconverged_samples for r in reports),
    )


def _require_two_attributes(ds: Dataset) -> None:
    """Each feature column gives one piece of evidence, and fusion needs two."""
    if ds.n_attributes < 2:
        raise InvalidConfigError(
            f"fusion needs at least two feature columns, got {ds.n_attributes}")


def _check_fraction(fraction) -> None:
    if not (_is_number(fraction, numbers.Real) and 0.0 < fraction <= 1.0):  # NaN fails both
        raise InvalidConfigError(f"a training fraction must lie in (0, 1], got {fraction!r}")


def stratified_head_indices(ds: Dataset, fraction: float) -> np.ndarray:
    """First ``ceil(fraction * n_c)`` row indices of each class, in file order.

    Raises :class:`InvalidConfigError` unless ``fraction`` is a real number
    (not a bool) in (0, 1].
    """
    _check_fraction(fraction)
    chosen = []
    for label in ds.class_labels:
        idx = ds.class_indices(label)
        chosen.append(idx[:min(len(idx), math.ceil(fraction * len(idx)))])
    return np.sort(np.concatenate(chosen))


def sweep_evaluate(
    ds: Dataset,
    methods: Sequence[str],
    lam: float,
    config: IcefConfig | None = None,
    fractions: Sequence[float] | None = None,
) -> list[EvaluationReport]:
    """Grow the training fraction and rescore on the whole dataset.

    For each fraction the training rows are the leading records of every
    class (deterministic, no randomness); the model is evaluated against all
    records.  Default fractions run 0.50 to 1.00 in steps of 0.01, i.e. 51
    evaluations per method.  Raises :class:`InvalidConfigError` for a
    dataset of fewer than two feature columns, or, before any evaluation,
    for a fraction that :func:`stratified_head_indices` refuses.
    """
    _require_two_attributes(ds)
    if fractions is None:
        fractions = [round(0.50 + 0.01 * i, 2) for i in range(51)]
    for fraction in fractions:
        _check_fraction(fraction)
    splits = (({"lam": lam, "fraction": fraction},
               ds.subset(stratified_head_indices(ds, fraction)), ds) for fraction in fractions)
    return _run_splits(splits, methods, lam, config)


def monte_carlo_evaluate(
    ds: Dataset,
    methods: Sequence[str],
    lam: float,
    config: IcefConfig | None = None,
    trials: int = 100,
    train_fraction: float = 0.7,
    seed: int = 0,
) -> dict[str, EvaluationReport]:
    """Repeated random stratified splits; deterministic for a given seed.

    Each trial draws ``train_fraction`` of every class (without replacement)
    for training and scores on the remaining rows.  Reports each method's
    splits as one report of :func:`_mean_report`: the mean accuracies over
    all trials, the summed tallies and the per-trial series.  Raises
    :class:`InvalidConfigError` unless ``trials`` is an integer >= 1,
    ``train_fraction`` lies in (0, 1) and leaves some row to score, ``seed``
    is a non-negative integer, and the dataset has at least two feature
    columns.
    """
    if not (_is_number(trials, numbers.Integral) and trials >= 1):
        raise InvalidConfigError(f"trials must be an integer >= 1, got {trials!r}")
    if not (_is_number(seed, numbers.Integral) and seed >= 0):
        raise InvalidConfigError(f"seed must be a non-negative integer, got {seed!r}")
    _require_two_attributes(ds)
    if not (_is_number(train_fraction, numbers.Real)
            and 0.0 < train_fraction < 1.0):  # NaN fails both comparisons
        raise InvalidConfigError(f"train_fraction must lie in (0, 1), got {train_fraction!r}")
    rng = np.random.default_rng(seed)
    params = {"lam": lam, "trials": trials, "train_fraction": train_fraction, "seed": seed}

    def splits():
        for _ in range(trials):
            train_idx, test_idx = [], []
            for label in ds.class_labels:
                idx = ds.class_indices(label)
                k = round(train_fraction * len(idx))
                picked = rng.permutation(len(idx))
                train_idx.append(idx[picked[:k]])
                test_idx.append(idx[picked[k:]])
            test_idx = np.sort(np.concatenate(test_idx))
            if not len(test_idx):
                raise InvalidConfigError(
                    f"train_fraction {train_fraction!r} leaves no rows to score")
            yield params, ds.subset(np.sort(np.concatenate(train_idx))), ds.subset(test_idx)

    reports = _run_splits(splits(), methods, lam, config)
    return {method: _mean_report([r for r in reports if r.method == method], params)
            for method in methods}
