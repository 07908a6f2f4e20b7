"""Open-loop and closed-loop credible evidence fusion.

Open-loop fusion weights the evidence once (uniformly, or from a pairwise
difference matrix), averages, and self-combines.  The closed-loop variant
iterates: event probabilities weight the per-event conditional credibilities
into evidence credibilities, the credibility-weighted average is
self-combined, and the combination's pignistic probabilities feed the next
round, until the probabilities stop moving.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Frame,
    LengthMismatchError,
    MassFunction,
    _require_same_frame,
    dcr_n,
    self_fuse,
)
from .credibility import (
    average_support_credibility,
    build_edmm,
    build_eem,
    conditional_credibility,
    eigenvalue_credibility,
    initial_prob_from_eem,
    initial_prob_uniform,
    support_matrix,
)
from .divergence import PBAGD, DivergenceMeasure, get_measure


class InvalidConfigError(ValueError):
    """A fusion setting is out of range or not a finite number."""


def _is_number(value, kind) -> bool:
    """Whether ``value`` is a number of ``kind``; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_positive_finite(value) -> bool:
    """Whether ``value`` is a positive real number within float range."""
    try:
        return _is_number(value, numbers.Real) and math.isfinite(value) and value > 0
    except OverflowError:  # an integer beyond float range
        return False


@dataclass(frozen=True)
class IcefConfig:
    """Knobs for the iterative fusion loop.

    ``tau`` scales the exponential support kernel, ``delta`` is the L1
    termination threshold on event probabilities, ``init`` selects the
    starting probabilities (``"uniform"`` or ``"eem"``), and ``measure`` is
    the divergence used to build the event evaluation matrix.
    """

    tau: float = 200.0
    delta: float = 1e-6
    max_iter: int = 200
    init: str = "uniform"
    measure: DivergenceMeasure = PBAGD

    def __post_init__(self):
        for name in ("tau", "delta"):
            value = getattr(self, name)
            if not _is_positive_finite(value):
                raise InvalidConfigError(f"{name} must be a positive finite number, got {value!r}")
        if not (_is_number(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise InvalidConfigError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.init not in ("uniform", "eem"):
            raise InvalidConfigError(f"init must be 'uniform' or 'eem', got {self.init!r}")


@dataclass(frozen=True, eq=False)
class IcefStep:
    """One loop iteration: credibilities, fused mass, fed-back probabilities."""

    index: int
    credibilities: np.ndarray
    fused: MassFunction
    probabilities: np.ndarray
    delta: float


@dataclass(frozen=True, eq=False)
class IcefTrace:
    steps: tuple[IcefStep, ...]
    converged: bool

    @property
    def final(self) -> IcefStep:
        return self.steps[-1]

    def credibility_history(self) -> np.ndarray:
        return np.vstack([s.credibilities for s in self.steps])

    def table_rows(self, frame, evidence_names: Sequence[str] | None = None):
        """Header plus one row per step: step, p(event)..., cred..., delta."""
        n_ev = len(self.steps[0].credibilities)
        if evidence_names is None:
            evidence_names = [f"m{i + 1}" for i in range(n_ev)]
        header = (
            ["step"]
            + [f"p({e})" for e in frame.events]
            + [f"cred({name})" for name in evidence_names]
            + ["delta"]
        )
        rows = [
            [s.index, *s.probabilities.tolist(), *s.credibilities.tolist(), s.delta]
            for s in self.steps
        ]
        return header, rows


@dataclass(frozen=True, eq=False)
class FusionResult:
    """A fused mass plus its pignistic probabilities and the decided event.

    ``converged`` and ``n_iter`` report the ``icef`` loop: whether the
    probabilities settled within ``delta``, and after how many iterations.
    Open-loop methods fuse once, so they read ``True`` and 1.
    """

    mass: MassFunction
    pignistic: np.ndarray
    decision: str
    method: str
    credibilities: np.ndarray | None = None
    converged: bool = True
    n_iter: int = 1


def _decision(frame: Frame, probs: np.ndarray) -> str:
    return frame.events[int(np.argmax(probs))]


def decide(m: MassFunction) -> str:
    """Maximum-pignistic-probability decision; ties go to the lowest event index."""
    return _decision(m.frame, m.pignistic())


def _result(mass: MassFunction, method: str, credibilities=None) -> FusionResult:
    probs = mass.pignistic()
    return FusionResult(mass, probs, _decision(mass.frame, probs), method, credibilities)


def weighted_average(ms: Sequence[MassFunction], weights) -> MassFunction:
    """Mass-by-mass convex combination of the evidence under the given weights."""
    frame = _require_same_frame(ms)
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(ms):
        raise LengthMismatchError(f"{len(ms)} mass functions but {len(weights)} weights")
    combined: dict[int, float] = {}
    for w, m in zip(weights, ms):
        for mask, value in m.items():
            combined[mask] = combined.get(mask, 0.0) + w * value
    return MassFunction(frame, combined)


def cef_fuse(ms: Sequence[MassFunction], weights, method: str = "cef") -> FusionResult:
    """Credibility-weighted average, self-combined once per piece of evidence.

    The weighted average is combined with itself ``len(ms) - 1`` times, so the
    result commits as sharply as fusing that many independent reports.
    """
    if len(ms) < 2:
        raise ValueError("need at least two pieces of evidence")
    averaged = weighted_average(ms, weights)
    fused = self_fuse(averaged, len(ms))
    return _result(fused, method, np.asarray(weights, dtype=float))


def murphy_fuse(ms: Sequence[MassFunction]) -> FusionResult:
    """Uniform-weight credible fusion (simple averaging)."""
    return cef_fuse(ms, np.full(len(ms), 1.0 / len(ms)), method="murphy")


def dcr_fuse(ms: Sequence[MassFunction]) -> FusionResult:
    """Plain Dempster combination of the evidence, left to right."""
    return _result(dcr_n(ms), "dcr")


def icef(
    ms: Sequence[MassFunction], config: IcefConfig | None = None
) -> tuple[FusionResult, IcefTrace]:
    """Iterative credible evidence fusion.

    Builds the event evaluation matrix and conditional credibilities once,
    then repeats: evidence credibility from current event probabilities,
    weighted average, self-combination, pignistic feedback.  Stops when the
    L1 change in event probabilities drops to ``config.delta``, or returns a
    trace with ``converged=False`` after ``config.max_iter`` iterations.
    """
    if len(ms) < 2:
        raise ValueError("need at least two pieces of evidence")
    cfg = config or IcefConfig()
    frame = _require_same_frame(ms)

    eem = build_eem(ms, frame, cfg.measure)
    cond = conditional_credibility(support_matrix(eem, cfg.tau))
    if cfg.init == "uniform":
        probs = initial_prob_uniform(frame)
    else:
        probs = initial_prob_from_eem(eem)

    steps: list[IcefStep] = []
    converged = False
    # the averages share their focal sets unless a credibility is 0, so the
    # support of their self-combination is found once per focal set
    supports: dict = {}
    for k in range(1, cfg.max_iter + 1):
        credibilities = cond.T @ probs
        averaged = weighted_average(ms, credibilities)
        fused = self_fuse(averaged, len(ms), _supports=supports)
        new_probs = fused.pignistic()
        delta = float(np.abs(new_probs - probs).sum())
        steps.append(IcefStep(k, credibilities, fused, new_probs, delta))
        if delta <= cfg.delta:
            converged = True
            break
        probs = new_probs

    trace = IcefTrace(tuple(steps), converged)
    final = trace.final
    result = FusionResult(final.fused, final.probabilities,
                          _decision(frame, final.probabilities), f"icef-{cfg.measure.name}",
                          final.credibilities, converged, len(steps))
    return result, trace


FUSION_METHODS = ("dcr", "murphy", "icef-pbagd", "cef-avg", "cef-eig")


def fuse(
    ms: Sequence[MassFunction], method: str = "icef-pbagd", config: IcefConfig | None = None
) -> FusionResult:
    """Dispatch by method name.

    The ``icef-*`` variants drop the per-step trace but keep whether the loop
    converged and its iteration count on the result.
    """
    cfg = config or IcefConfig()
    method = method.lower()
    if method == "dcr":
        return dcr_fuse(ms)
    if method == "murphy":
        return murphy_fuse(ms)
    if method.startswith("icef-"):
        measure = get_measure(method.removeprefix("icef-"))
        result, _ = icef(ms, replace(cfg, measure=measure))
        return result
    if method in ("cef-avg", "cef-eig"):
        edmm = build_edmm(ms, cfg.measure)
        if method == "cef-avg":
            weights = average_support_credibility(edmm, variant="similarity")
        else:
            weights = eigenvalue_credibility(edmm)
        return cef_fuse(ms, weights, method=method)
    raise ValueError(f"unknown fusion method {method!r}; known: {FUSION_METHODS}")
