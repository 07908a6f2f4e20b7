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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Frame, MassFunction, TotalConflictError
from .fusion import (
    IcefConfig,
    InvalidConfigError,
    _fuse_batch,
    _is_number,
    _is_positive_finite,
    fuse,
)


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

    def class_indices(self, label: str) -> np.ndarray:
        """Row indices of one class, in file order."""
        return np.flatnonzero(np.array(self.labels) == label)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            self.name,
            self.feature_names,
            self.features[indices],
            tuple(self.labels[i] for i in indices),
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
    features unless ``feature_columns`` narrows them.  Missing or
    non-numeric feature cells raise :class:`ParseError` with the 1-based data
    row number and column name.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise SchemaError(f"label column {label_column!r} not in header {header}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != label_column]
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise SchemaError(f"feature columns {missing} not in header {header}")
        label_pos = header.index(label_column)
        feature_pos = [header.index(c) for c in feature_columns]

        rows: list[list[float]] = []
        labels: list[str] = []
        for row_number, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            values = []
            for col, pos in zip(feature_columns, feature_pos):
                cell = row[pos].strip() if pos < len(row) else ""
                if not cell:
                    raise ParseError(row_number, col, "missing value")
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(row_number, col, f"not numeric: {cell!r}") from None
            label = row[label_pos].strip() if label_pos < len(row) else ""
            if not label:
                raise ParseError(row_number, label_column, "missing label")
            rows.append(values)
            labels.append(label)

    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    class_labels = tuple(dict.fromkeys(labels))  # first-appearance order
    return Dataset(
        name or str(path),
        tuple(feature_columns),
        np.array(rows, dtype=float),
        tuple(labels),
        class_labels,
    )


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
    the absolute midpoint difference.
    """
    mid = (lo1 + hi1) / 2.0 - (lo2 + hi2) / 2.0
    half = (hi1 - lo1) / 2.0 - (hi2 - lo2) / 2.0
    return math.sqrt(mid * mid + half * half / 3.0)


def attribute_evidence(model: IntervalModel, sample, attribute: int) -> MassFunction:
    """Evidence from one attribute: normalized interval similarities per class.

    Similarity to class c is ``1 / (1 + lam * dist)`` between the class
    interval and the sample's point interval; masses go to the class
    singletons only.
    """
    x = float(np.asarray(sample, dtype=float)[attribute])
    similarities = np.empty(len(model.class_labels))
    for c in range(len(model.class_labels)):
        d = interval_distance(model.lows[c, attribute], model.highs[c, attribute], x, x)
        similarities[c] = 1.0 / (1.0 + model.lam * d)
    masses = similarities / similarities.sum()
    return MassFunction(model.frame,
                        {1 << c: masses[c] for c in range(len(model.class_labels))})


def _sample_evidence(model: IntervalModel, sample) -> list[MassFunction]:
    return [attribute_evidence(model, sample, a) for a in range(model.n_attributes)]


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
    result = fuse(_sample_evidence(model, sample), method=method, config=config)
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

    Each sample's evidence is built once; each method fuses the whole split
    in one :func:`~credfuse.fusion._fuse_batch` call, which runs the
    ``icef-*`` loop over all samples at once.
    """
    evidence = [_sample_evidence(model, sample) for sample in test.features]
    scores = {}
    for method in methods:
        score = scores[method] = _Score({label: 0 for label in test.class_labels})
        for truth, result in zip(test.labels, _fuse_batch(evidence, method, config)):
            if isinstance(result, TotalConflictError):
                score.conflicts += 1  # and counted as an error
                continue
            score.unconverged += not result.converged
            if result.decision == truth:
                score.correct[truth] += 1
    return scores


def _accuracies(score: _Score, test: Dataset) -> tuple[dict[str, float], float]:
    per_class = {}
    for label in test.class_labels:
        count = test.labels.count(label)
        per_class[label] = score.correct[label] / count if count else 0.0
    return per_class, sum(score.correct.values()) / test.n_records


def _require_two_attributes(ds: Dataset) -> None:
    """Each feature column gives one piece of evidence, and fusion needs two."""
    if ds.n_attributes < 2:
        raise InvalidConfigError(
            f"fusion needs at least two feature columns, got {ds.n_attributes}")


def stratified_head_indices(ds: Dataset, fraction: float) -> np.ndarray:
    """First ``ceil(fraction * n_c)`` row indices of each class, in file order."""
    chosen: list[int] = []
    for label in ds.class_labels:
        idx = ds.class_indices(label)
        k = min(len(idx), math.ceil(fraction * len(idx)))
        chosen.extend(idx[:k])
    return np.array(sorted(chosen), dtype=int)


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
    dataset of fewer than two feature columns.
    """
    _require_two_attributes(ds)
    if fractions is None:
        fractions = [round(0.50 + 0.01 * i, 2) for i in range(51)]
    reports = []
    for fraction in fractions:
        train = ds.subset(stratified_head_indices(ds, fraction))
        model = fit_interval_model(train, lam)
        for method, score in _evaluate_model(model, ds, methods, config).items():
            per_class, total = _accuracies(score, ds)
            reports.append(
                EvaluationReport(
                    method=method,
                    dataset=ds.name,
                    params={"lam": lam, "fraction": fraction},
                    per_class_accuracy=per_class,
                    total_accuracy=total,
                    n_train=train.n_records,
                    conflict_samples=score.conflicts,
                    unconverged_samples=score.unconverged,
                )
            )
    return reports


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
    for training and scores on the remaining rows.  Reports per-method mean
    accuracies over all trials plus the per-trial series.  Raises
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
    if not 0.0 < train_fraction < 1.0:  # NaN fails both comparisons
        raise InvalidConfigError(f"train_fraction must lie in (0, 1), got {train_fraction!r}")
    rng = np.random.default_rng(seed)
    sums = {m: {"total": 0.0, "per_class": {c: 0.0 for c in ds.class_labels},
                "conflicts": 0, "unconverged": 0} for m in methods}
    series = {m: [] for m in methods}
    n_train_last = 0
    for _ in range(trials):
        train_idx: list[int] = []
        test_idx: list[int] = []
        for label in ds.class_labels:
            idx = ds.class_indices(label)
            k = round(train_fraction * len(idx))
            picked = rng.permutation(len(idx))
            train_idx.extend(idx[picked[:k]])
            test_idx.extend(idx[picked[k:]])
        if not test_idx:
            raise InvalidConfigError(f"train_fraction {train_fraction!r} leaves no rows to score")
        train = ds.subset(sorted(train_idx))
        test = ds.subset(sorted(test_idx))
        n_train_last = train.n_records
        model = fit_interval_model(train, lam)
        for method, score in _evaluate_model(model, test, methods, config).items():
            per_class, total = _accuracies(score, test)
            sums[method]["total"] += total
            for c in ds.class_labels:
                sums[method]["per_class"][c] += per_class[c]
            sums[method]["conflicts"] += score.conflicts
            sums[method]["unconverged"] += score.unconverged
            series[method].append(total)
    return {
        method: EvaluationReport(
            method=method,
            dataset=ds.name,
            params={
                "lam": lam,
                "trials": trials,
                "train_fraction": train_fraction,
                "seed": seed,
            },
            per_class_accuracy={
                c: sums[method]["per_class"][c] / trials for c in ds.class_labels
            },
            total_accuracy=sums[method]["total"] / trials,
            n_train=n_train_last,
            trial_accuracies=tuple(series[method]),
            conflict_samples=sums[method]["conflicts"],
            unconverged_samples=sums[method]["unconverged"],
        )
        for method in methods
    }
