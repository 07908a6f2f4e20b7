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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import core
from .core import (
    Frame,
    InvalidMassValueError,
    LengthMismatchError,
    MassFunction,
    TotalConflictError,
    _require_same_frame,
    dcr_n,
    self_fuse,  # unused here; kept for callers of credfuse.fusion.self_fuse
)
from .credibility import (
    EventEvaluationMatrix,
    average_support_credibility,
    build_edmm,
    build_eem,
    conditional_credibility,
    eigenvalue_credibility,
    initial_prob_from_eem,
    initial_prob_uniform,
    support_matrix,
)
from .divergence import _BLOCK_ENTRIES, PBAGD, DivergenceMeasure, get_measure


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
    """One loop iteration: credibilities, fused mass, fed-back probabilities.

    The loop keeps the fused masses as an array on the masks ``support``;
    ``fused`` builds the :class:`MassFunction` from them when first read.
    """

    index: int
    credibilities: np.ndarray
    probabilities: np.ndarray
    delta: float
    frame: Frame = field(repr=False)
    support: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)

    @cached_property
    def fused(self) -> MassFunction:
        return MassFunction(self.frame, dict(zip(self.support.tolist(), self.masses.tolist())))


@dataclass(frozen=True, eq=False)
class IcefTrace:
    steps: tuple[IcefStep, ...]
    converged: bool

    @property
    def final(self) -> IcefStep:
        return self.steps[-1]

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
    frame = _check_sets([ms])
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(ms),):
        raise LengthMismatchError(f"{len(ms)} mass functions but {weights.size} weights")
    (result,) = _cef_chunk([ms], frame, weights[None], method, check=True)
    if isinstance(result, TotalConflictError):
        raise result
    return result


def murphy_fuse(ms: Sequence[MassFunction]) -> FusionResult:
    """Uniform-weight credible fusion (simple averaging)."""
    return cef_fuse(ms, _method_weights("murphy", [ms])[0], method="murphy")


def dcr_fuse(ms: Sequence[MassFunction]) -> FusionResult:
    """Plain Dempster combination of the evidence, left to right."""
    mass = dcr_n(ms)
    probs = mass.pignistic()
    return FusionResult(mass, probs, _decision(mass.frame, probs), "dcr")


def _check_sets(sets) -> Frame:
    """The one frame of evidence sets of the same size, at least two pieces."""
    if len(sets[0]) < 2:
        raise ValueError("need at least two pieces of evidence")
    if any(len(ms) != len(sets[0]) for ms in sets):
        raise LengthMismatchError("every evidence set needs the same number of pieces")
    return _require_same_frame([m for ms in sets for m in ms])


def icef(
    ms: Sequence[MassFunction], config: IcefConfig | None = None
) -> tuple[FusionResult, IcefTrace]:
    """Iterative credible evidence fusion.

    Builds the event evaluation matrix and conditional credibilities once,
    then repeats: evidence credibility from current event probabilities,
    weighted average, self-combination, pignistic feedback.  Stops when the
    L1 change in event probabilities drops to ``config.delta``, or returns a
    trace with ``converged=False`` after ``config.max_iter`` iterations.
    The loop is :func:`_icef_loop` on one evidence set.
    """
    frame = _check_sets([ms])
    cfg = config or IcefConfig()
    history: list = []
    (end,) = _icef_loop([ms], frame, cfg, history)
    if isinstance(end, TotalConflictError):
        raise end
    final, converged = end
    steps = tuple(
        IcefStep(k, cred[0], probs[0], float(delta[0]), frame, support, fused[0])
        for k, (cred, support, fused, probs, delta) in enumerate(history[:-1], start=1)
    )
    return _icef_result(final, converged, cfg), IcefTrace((*steps, final), converged)


def _icef_result(final: IcefStep, converged: bool, cfg: IcefConfig) -> FusionResult:
    return FusionResult(final.fused, final.probabilities,
                        _decision(final.frame, final.probabilities), f"icef-{cfg.measure.name}",
                        final.credibilities, converged, final.index)


def _icef_loop(sets, frame: Frame, cfg: IcefConfig, history: list | None = None) -> list:
    """The ``icef`` loop over B evidence sets of N pieces each at once.

    Returns, per set, its last :class:`IcefStep` and whether it converged,
    or the :class:`TotalConflictError` that its self-combination raised.
    When ``history`` is given, one tuple ``(credibilities, support, fused,
    probabilities, delta)`` of arrays, a row per set still iterating, is
    appended to it per iteration.

    The EEM of all B·N pieces is built in one call; each column depends on
    its own piece only.  Per iteration, each set's credibilities are its
    conditional credibilities weighted by its probabilities, and
    :func:`_cef_rows` fuses the sets under them; the self-combination
    supports are found once per call.  A set leaves the arrays once its
    probabilities move by at most ``cfg.delta``, or its self-combination
    hits total conflict.
    """
    n_sets, n_pieces, n = len(sets), len(sets[0]), frame.n
    pieces = [m for ms in sets for m in ms]
    eem = build_eem(pieces, frame, cfg.measure)
    cond = conditional_credibility(support_matrix(eem, cfg.tau).reshape(n, n_sets, n_pieces))
    if not np.isfinite(cond).all():
        raise InvalidMassValueError(
            f"no evidence supports some event at tau = {cfg.tau!r}, so credibilities are NaN")
    cond = cond.transpose(1, 0, 2).copy()  # (B, n, N)
    if cfg.init == "uniform":
        probs = np.broadcast_to(initial_prob_uniform(frame), (n_sets, n))
    else:
        probs = np.array([
            initial_prob_from_eem(EventEvaluationMatrix(
                eem.values[:, b * n_pieces:(b + 1) * n_pieces], eem.measure, frame))
            for b in range(n_sets)
        ])
    focal, table = core._mass_table(pieces)
    table = table.reshape(n_sets, n_pieces, -1)
    ids = np.arange(n_sets)
    ends: list = [None] * n_sets
    supports: dict = {}
    for k in range(1, cfg.max_iter + 1):
        cred = (cond * probs[:, :, None]).sum(axis=1)
        support, fused, conflict, failed, new_probs = _cef_rows(focal, table, cred, n, supports)
        delta = np.abs(new_probs - probs).sum(axis=1)
        if history is not None:
            history.append((cred, support, fused, new_probs, delta))
        done = failed | (delta <= cfg.delta)
        if k == cfg.max_iter:
            done[:] = True
        finished = done.nonzero()[0]
        for row in finished:
            ends[ids[row]] = (
                TotalConflictError(float(conflict[row])) if failed[row] else
                (IcefStep(k, cred[row], new_probs[row], float(delta[row]), frame, support,
                          fused[row]), bool(delta[row] <= cfg.delta)))
        if len(finished) == len(ids):
            break
        if len(finished):
            keep = ~done
            ids, cond, table, new_probs = ids[keep], cond[keep], table[keep], new_probs[keep]
        probs = new_probs
    return ends


def _cef_rows(focal: np.ndarray, table: np.ndarray, cred: np.ndarray, n: int, supports: dict):
    """:func:`cef_fuse` of B evidence sets of N pieces each at once.

    ``table`` holds the (B, N, F) masses of the sets on the ascending masks
    ``focal`` of an ``n``-event frame, and ``cred`` their (B, N) weights.
    Returns ``(support, fused, conflict, failed, probabilities)``: the
    self-combination as :func:`core._self_combine_rows` returns it (which
    keeps the supports it finds in ``supports``), plus the (B, n) pignistic
    probabilities from the one array helper that
    :meth:`MassFunction.pignistic` calls.

    Each weighted average is one sum along the evidence axis, which runs
    piece by piece as :func:`weighted_average` adds them (a zero weight adds
    exact zeros, so that set's focal sets drop out as they do there; with a
    single focal set in the whole table numpy may group the sum otherwise,
    but the fused mass is then 1 on that set either way).  Every operation
    acts on each set's rows alone, so a set gets the same bits in any batch
    as from :func:`cef_fuse` on its own.
    """
    averaged = (cred[:, :, None] * table).sum(axis=1)
    support, fused, conflict, failed = core._self_combine_rows(
        focal, averaged, table.shape[1], n, supports)
    return support, fused, conflict, failed, core._pignistic_rows(support, fused, n)


def _fuse_batch(
    sets: Sequence[Sequence[MassFunction]], method: str = "icef-pbagd",
    config: IcefConfig | None = None,
) -> list:
    """:func:`fuse` over many evidence sets: entry ``i`` is what
    ``fuse(sets[i], method, config)`` returns, or the
    :class:`TotalConflictError` it raises.

    Every method but ``dcr`` fuses the sets through
    :func:`_cef_rows` in chunks of ``max(1, 2**13 // 2**n)`` sets, so that
    each array over the ``2**n`` subsets holds about ``2**13`` entries; all
    sets need the same frame and the same number of pieces.  A set's result
    has the same bits as its own ``fuse`` call.  ``dcr`` fuses set by set.
    """
    method = method.lower()
    if method == "dcr":
        results = []
        for ms in sets:
            try:
                results.append(dcr_fuse(ms))
            except TotalConflictError as error:
                results.append(error)
        return results
    if not sets:
        return []
    frame = _check_sets(sets)
    rows = max(1, _BLOCK_ENTRIES // (1 << frame.n))
    results = []
    for start in range(0, len(sets), rows):
        chunk = sets[start:start + rows]
        if method.startswith("icef-"):
            results.extend(_icef_chunk(chunk, frame, _icef_config(method, config)))
        else:
            weights = _method_weights(method, chunk, config)
            results.extend(_cef_chunk(chunk, frame, weights, method))
    return results


def _icef_chunk(sets, frame: Frame, cfg: IcefConfig) -> list:
    return [end if isinstance(end, TotalConflictError) else _icef_result(*end, cfg)
            for end in _icef_loop(sets, frame, cfg)]


def _cef_chunk(sets, frame: Frame, weights: np.ndarray, method: str, check: bool = False) -> list:
    """:func:`cef_fuse` of each set under its row of the (B, N) ``weights``."""
    focal, table = core._mass_table([m for ms in sets for m in ms])
    table = table.reshape(*weights.shape, -1)
    if check:  # the averages _cef_rows forms must be masses, as weighted_average requires
        with np.errstate(all="ignore"):  # a non-finite weight times a zero mass
            for row in (weights[:, :, None] * table).sum(axis=1):
                error = core._first_violation(frame, zip(focal.tolist(), row.tolist()))
                if error is not None:
                    raise error
    support, fused, conflict, failed, probs = _cef_rows(focal, table, weights, frame.n, {})
    masks = support.tolist()
    return [
        TotalConflictError(float(conflict[b])) if failed[b] else
        FusionResult(MassFunction(frame, dict(zip(masks, fused[b].tolist()))), probs[b],
                     _decision(frame, probs[b]), method, weights[b])
        for b in range(len(sets))
    ]


def _icef_config(method: str, config: IcefConfig | None) -> IcefConfig:
    """``config`` (or the default) with the measure that an ``icef-*`` method names."""
    return replace(config or IcefConfig(), measure=get_measure(method.removeprefix("icef-")))


def _method_weights(method: str, sets, config: IcefConfig | None = None) -> np.ndarray:
    """Rows of 1/N, or of EDMM credibilities under ``config``'s measure, one per set."""
    if method == "murphy":
        return np.full((len(sets), len(sets[0])), 1.0 / len(sets[0]))
    if method not in ("cef-avg", "cef-eig"):
        raise ValueError(f"unknown fusion method {method!r}; known: {FUSION_METHODS}")
    credibility = average_support_credibility if method == "cef-avg" else eigenvalue_credibility
    return np.array([credibility(build_edmm(ms, (config or IcefConfig()).measure)) for ms in sets])


FUSION_METHODS = ("dcr", "murphy", "icef-pbagd", "cef-avg", "cef-eig")


def fuse(
    ms: Sequence[MassFunction], method: str = "icef-pbagd", config: IcefConfig | None = None
) -> FusionResult:
    """Dispatch by method name.

    The ``icef-*`` variants drop the per-step trace but keep whether the loop
    converged and its iteration count on the result.
    """
    method = method.lower()
    if method == "dcr":
        return dcr_fuse(ms)
    if method.startswith("icef-"):
        result, _ = icef(ms, _icef_config(method, config))
        return result
    return cef_fuse(ms, _method_weights(method, [ms], config)[0], method=method)
