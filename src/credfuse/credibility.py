"""Credibility assessment from evidence-difference matrices.

Two matrix shapes drive everything here:

* the pairwise difference matrix (square, symmetric) between the pieces of
  to-be-fused evidence, from which the classical open-loop credibilities are
  derived, and
* the event evaluation matrix (events x evidence) holding differences between
  each piece of evidence and each categorical event assertion, from which
  conditional credibilities and initial event probabilities come.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Frame, FrameMismatchError, MassFunction
from .divergence import DivergenceMeasure


class NonpositiveTauError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class PairwiseDifferenceMatrix:
    """Symmetric matrix of pairwise divergences among the evidence (zero diagonal)."""

    values: np.ndarray
    measure: str

    @property
    def n_evidence(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EventEvaluationMatrix:
    """Divergence of each evidence (columns) from each event assertion (rows)."""

    values: np.ndarray
    measure: str
    frame: Frame


def build_edmm(ms: Sequence[MassFunction], measure: DivergenceMeasure) -> PairwiseDifferenceMatrix:
    """Pairwise divergence matrix over the evidence list.

    Only the upper triangle is evaluated and then mirrored, so the result is
    symmetric by construction; the measure itself must be symmetric.
    """
    if len(ms) < 2:
        raise ValueError("need at least two pieces of evidence")
    if not measure.symmetric:
        raise ValueError(f"measure {measure.name!r} is not symmetric")
    n = len(ms)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = measure(ms[i], ms[j])
            values[i, j] = d
            values[j, i] = d
    return PairwiseDifferenceMatrix(values, measure.name)


def build_eem(
    ms: Sequence[MassFunction], frame: Frame, measure: DivergenceMeasure
) -> EventEvaluationMatrix:
    """Event evaluation matrix: entry (j, i) is the divergence of evidence i
    from the categorical assertion of event j.  Smaller means evidence i
    supports event j more strongly; see
    :meth:`~credfuse.divergence.DivergenceMeasure.event_divergences`."""
    if not ms:
        raise ValueError("need at least one piece of evidence")
    for m in ms:
        if m.frame != frame:
            raise FrameMismatchError(f"frames differ: {m.frame.events} vs {frame.events}")
    return EventEvaluationMatrix(measure.event_divergences(ms, frame), measure.name, frame)


def support_matrix(eem: EventEvaluationMatrix, tau: float) -> np.ndarray:
    """Exponential support kernel ``exp(-tau * d)``, elementwise on the EEM.

    Values lie in (0, 1], hitting 1 exactly where the divergence is 0.
    ``tau`` scales how sharply support decays with divergence.
    """
    if tau <= 0:
        raise NonpositiveTauError(f"tau must be positive, got {tau}")
    return np.exp(-tau * eem.values)


def conditional_credibility(support: np.ndarray) -> np.ndarray:
    """Row-normalize a support matrix into per-event credibility distributions.

    Row j gives the probability that each evidence is the most credible one
    assuming event j is true; every row sums to 1.  Rows run along the last
    axis, so a stack of matrices is normalized matrix by matrix.
    """
    support = np.asarray(support, dtype=float)
    return support / support.sum(axis=-1, keepdims=True)


def average_support_credibility(
    edmm: PairwiseDifferenceMatrix, variant: str = "distance"
) -> np.ndarray:
    """Credibility from off-diagonal row sums of the pairwise matrix.

    ``variant="distance"`` normalizes the summed distances directly (the
    classical printed form, which rates far-from-center evidence higher);
    ``variant="similarity"`` inverts it, rating the evidence nearest the
    cluster center highest.  A matrix of all zeros falls back to uniform.
    """
    row_sums = edmm.values.sum(axis=1)  # diagonal is zero
    total = row_sums.sum()
    n = edmm.n_evidence
    if total == 0.0:
        return np.full(n, 1.0 / n)
    shares = row_sums / total
    if variant == "distance":
        return shares
    if variant == "similarity":
        return (1.0 - shares) / (n - 1)
    raise ValueError(f"unknown variant {variant!r}")


def edmm_eigenvalues(edmm: PairwiseDifferenceMatrix) -> np.ndarray:
    """Eigenvalues of the symmetric pairwise matrix, descending."""
    return np.linalg.eigvalsh(edmm.values)[::-1]


def eigenvalue_credibility(edmm: PairwiseDifferenceMatrix) -> np.ndarray:
    """Credibility from the principal eigenvector of the pairwise matrix.

    Component magnitudes of the dominant eigenvector are rescaled so the
    largest is 1, then normalized to sum to 1.  An all-zero matrix falls
    back to uniform.
    """
    n = edmm.n_evidence
    if not edmm.values.any():
        return np.full(n, 1.0 / n)
    eigvals, eigvecs = np.linalg.eigh(edmm.values)
    principal = np.abs(eigvecs[:, np.argmax(eigvals)])
    scores = principal / principal.max()
    return scores / scores.sum()


def initial_prob_uniform(frame: Frame) -> np.ndarray:
    """Uninformative initial event probabilities: 1/n each."""
    return np.full(frame.n, 1.0 / frame.n)


def initial_prob_from_eem(eem: EventEvaluationMatrix) -> np.ndarray:
    """Initial event probabilities from total support in the EEM.

    An event whose row carries less total divergence is better supported by
    the evidence, so probabilities are proportional to the reciprocal row
    sums.  Rows with zero total divergence (perfectly asserted events) split
    all probability among themselves; an all-zero matrix yields uniform.
    """
    row_sums = eem.values.sum(axis=1)
    n = len(row_sums)
    if not row_sums.any():
        return np.full(n, 1.0 / n)
    zero_rows = row_sums == 0.0
    if zero_rows.any():
        probs = np.zeros(n)
        probs[zero_rows] = 1.0 / zero_rows.sum()
        return probs
    inverse = 1.0 / row_sums
    return inverse / inverse.sum()
