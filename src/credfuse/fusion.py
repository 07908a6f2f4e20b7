"""Open-loop and closed-loop credible evidence fusion.

Open-loop fusion weights the evidence once (uniformly, or from a pairwise
difference matrix), averages, and self-combines.  The closed-loop variant
iterates: event probabilities weight the per-event conditional credibilities
into evidence credibilities, the credibility-weighted average is
self-combined, and the combination's pignistic probabilities feed the next
round, until the probabilities stop moving.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import (
    Frame,
    FrameMismatchError,
    InvalidMassValueError,
    LengthMismatchError,
    MassFunction,
    TooFewPiecesError,
    TotalConflictError,
    _is_number,
    _is_positive_finite,
    _require_same_frame,
    dcr_n,
    self_fuse,  # unused here; perfbench's test_tracer_restores_every_original reads it
)
from .credibility import (
    EventEvaluationMatrix,
    average_support_credibility,
    build_edmm,
    conditional_credibility,
    eigenvalue_credibility,
    initial_prob_from_eem,
    support_matrix,
)
from .divergence import PBAGD, DivergenceMeasure, get_measure


class InvalidConfigError(ValueError):
    """A fusion setting is out of range or not a finite number."""


@dataclass(frozen=True)
class IcefConfig:
    """Knobs for the iterative fusion loop.

    ``tau`` scales the exponential support kernel, ``delta`` is the L1
    termination threshold on event probabilities, ``init`` selects the
    starting probabilities (``"uniform"`` or ``"eem"``), and ``measure`` is
    the :class:`DivergenceMeasure` used to build the event evaluation matrix.
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
        if not isinstance(self.measure, DivergenceMeasure):
            raise InvalidConfigError(
                f"measure must be a DivergenceMeasure, got {self.measure!r}")


@dataclass(frozen=True, eq=False)
class IcefStep:
    """One loop iteration: the credibilities, the mass fused under them, and
    its pignistic probabilities (fed back) with their L1 change ``delta``."""

    index: int
    credibilities: np.ndarray
    probabilities: np.ndarray
    delta: float
    fused: MassFunction


@dataclass(frozen=True, eq=False)
class IcefTrace:
    steps: tuple[IcefStep, ...]
    converged: bool

    @property
    def final(self) -> IcefStep:
        return self.steps[-1]

    def table_rows(self, frame, evidence_names: Sequence[str] | None = None):
        """Header plus one row per step: step, p(event)..., cred..., delta.

        ``frame`` must be the trace's own (else :class:`FrameMismatchError`),
        and ``evidence_names`` must name every piece, one name each."""
        if frame != self.final.fused.frame:
            raise FrameMismatchError(f"the trace is not on {frame!r}")
        n_ev = len(self.steps[0].credibilities)
        if evidence_names is None:
            evidence_names = [f"m{i + 1}" for i in range(n_ev)]
        elif len(evidence_names) != n_ev:
            raise LengthMismatchError(f"{n_ev} pieces but {len(evidence_names)} evidence names")
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
    _, masks, average = _checked_average(frame, *core._mass_table(ms), weights)
    return MassFunction(frame, dict(zip(masks.tolist(), average.tolist())))


def _checked_average(frame: Frame, focal: np.ndarray, table: np.ndarray, weights):
    """``(weights, masks, masses)``: ``weights`` as an array of shape (N,),
    and the average under them of the rows of the (N, F) mass ``table`` on
    ``focal``, its masks in the order in which the pieces first hold them,
    added in piece order as a loop over the pieces' focal sets adds them
    (``sum`` may pair the terms).  Raises what the :class:`MassFunction`
    constructor raises for that loop's average if it is not a mass."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(table),):
        raise LengthMismatchError(f"{len(table)} pieces but weights of shape {weights.shape}")
    held = table != 0.0
    with np.errstate(all="ignore"):  # a non-finite weight
        terms = np.multiply(weights[:, None], table, where=held, out=np.zeros(table.shape))
        average = np.add.accumulate(terms, axis=0)[-1]
    order = np.argsort(held.argmax(axis=0), kind="stable")
    masks, average = focal[order], average[order]
    core._check_rows(frame, masks, average[None])
    return weights, masks, average


def cef_fuse(ms: Sequence[MassFunction], weights, method: str = "cef") -> FusionResult:
    """Credibility-weighted average, self-combined once per piece of evidence.

    The weighted average, which must be a mass as for :func:`weighted_average`,
    is combined with itself ``len(ms) - 1`` times, so the result commits as
    sharply as fusing that many independent reports.
    """
    frame = _check_set(ms)
    focal, table = core._mass_table(ms)
    weights, _, _ = _checked_average(frame, focal, table, weights)
    return _only(frame, method, _weighted_fusion(frame, focal, table[None], weights[None]))


def murphy_fuse(ms: Sequence[MassFunction]) -> FusionResult:
    """Uniform-weight credible fusion (simple averaging)."""
    return fuse(ms, "murphy")


def dcr_fuse(ms: Sequence[MassFunction]) -> FusionResult:
    """Plain Dempster combination of the evidence, left to right."""
    mass = dcr_n(ms)
    probs = mass.pignistic()
    return FusionResult(mass, probs, _decision(mass.frame, probs), "dcr")


def _check_set(ms) -> Frame:
    """The one frame of an evidence set of at least two pieces."""
    if len(ms) < 2:
        raise TooFewPiecesError()
    return _require_same_frame(ms)


def icef(
    ms: Sequence[MassFunction], config: IcefConfig | None = None
) -> tuple[FusionResult, IcefTrace]:
    """Iterative credible evidence fusion, with its per-step trace.

    Builds the event evaluation matrix and conditional credibilities once,
    then repeats: evidence credibility from current event probabilities,
    weighted average, self-combination, pignistic feedback.  Stops when the
    L1 change in event probabilities drops to ``config.delta``, or returns a
    trace with ``converged=False`` after ``config.max_iter`` iterations.
    The loop is :func:`_icef_loop` on the mass table of one evidence set, read
    as :func:`fuse` reads it; every step's mass is built in one call.
    """
    frame = _check_set(ms)
    cfg = _read_config(config)
    focal, table = core._mass_table(ms)
    history: list = []
    end = _icef_loop(frame, focal, table[None], cfg, history)
    result = _only(frame, f"icef-{cfg.measure.name}", end)
    cred, fused, probs, delta = map(np.concatenate, zip(*history))
    steps = tuple(map(IcefStep, range(1, len(delta) + 1), cred, probs, delta.tolist(),
                      core._mass_rows(frame, end.support, fused)))
    return result, IcefTrace(steps, result.converged)


@dataclass(eq=False)
class _Fused:
    """What a batched fusion gives per set, a row each: the fused masses on
    the ascending masks ``support``, one array per call (zero outside a
    set's own support), the pignistic probabilities, the conflict K,
    whether the set hit total conflict (its masses and probabilities are
    then meaningless), its credibilities (none for ``dcr``), whether the
    ``icef`` loop converged and after how many iterations (open-loop
    methods fuse once: ``True`` and 1)."""

    support: np.ndarray
    fused: np.ndarray
    probs: np.ndarray
    conflict: np.ndarray
    failed: np.ndarray
    credibilities: np.ndarray | None = None
    converged: np.ndarray | None = None
    n_iter: np.ndarray | None = None

    def __post_init__(self):
        if self.converged is None:
            self.converged = np.ones(len(self.fused), dtype=bool)
        if self.n_iter is None:
            self.n_iter = np.ones(len(self.fused), dtype=np.int64)


def _icef_loop(frame: Frame, focal: np.ndarray, table: np.ndarray, cfg: IcefConfig,
               history: list | None = None) -> _Fused:
    """The ``icef`` loop over B evidence sets of N pieces each at once.

    ``table`` holds the (B, N, F) masses of the sets on the ascending masks
    ``focal`` of ``frame``.  Returns each set's last iteration as a
    :class:`_Fused` row: its fused masses, probabilities, credibilities and
    conflict K, whether its self-combination hit total conflict, whether
    it converged, and the iteration count.  When ``history`` is given (only
    :func:`icef` asks), one tuple ``(credibilities, fused, probabilities,
    delta)`` of arrays, a row per set still iterating, the masses on the
    returned support, is appended to it per iteration.

    The EEM of all B·N pieces is built in one call; each column depends on
    its own piece only.  The EEM start is :func:`initial_prob_from_eem` per
    set, which refuses an EEM that gives no finite probabilities.  What
    every iteration shares, the :class:`core._SelfCombination`, is found
    once per call.  Per iteration, each set's credibilities are its
    conditional credibilities weighted by its probabilities, and one
    :func:`_fusion_step` fuses every set still iterating under them.  A
    set stops once its probabilities move by at
    most ``cfg.delta``, or its self-combination hits total conflict; its
    conflict K is computed then.  When one iteration stops every set (a
    single set always) its arrays are the result as they stand (the
    probabilities copied when they are the fused rows); otherwise
    each stopped iteration is kept and its rows are read into the call's
    :class:`_Fused` arrays with every other set's at the end.
    """
    n_sets, n_pieces, width = table.shape
    n = frame.n
    eem = cfg.measure._table_event_divergences(frame, focal, table.reshape(-1, width))
    # an event that no piece supports has no support row to normalize (its
    # supports underflow, or tau * d overflows); a failed self-combination
    # takes log2(0) and 0/0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            cond = conditional_credibility(
                support_matrix(EventEvaluationMatrix(eem, cfg.measure.name, frame), cfg.tau)
                .reshape(n, n_sets, n_pieces))
        except InvalidMassValueError:
            raise InvalidMassValueError(
                f"no evidence supports some event at tau = {cfg.tau!r}, so credibilities are NaN"
            ) from None
        # each sum below runs along the first axis, over contiguous rows
        cond = cond.transpose(0, 2, 1).copy()  # (n, N, B)
        table = table.transpose(1, 0, 2).copy()  # (N, B, F)
        if cfg.init == "uniform":
            probs = np.full((n_sets, n), 1.0 / n)
        else:
            probs = np.array([
                initial_prob_from_eem(EventEvaluationMatrix(
                    eem[:, b * n_pieces:(b + 1) * n_pieces], cfg.measure.name, frame))
                for b in range(n_sets)
            ])
        ids = np.arange(n_sets)
        combination = core._SelfCombination(focal, n_pieces, n)
        # per iteration at which sets stop: where they are among the rows,
        # the set of each row, the arrays of _Fused's fields and the iteration
        stops = []
        for k in range(1, cfg.max_iter + 1):
            cred = _sum_in_order(cond * probs.T[:, None, :])  # (N, B)
            fused, totals, shift, failed, new_probs = _fusion_step(table, cred, combination)
            delta = np.add.reduce(np.abs(new_probs - probs), axis=1)
            if history is not None:
                history.append((cred.T, fused, new_probs, delta))
            settled = delta <= cfg.delta
            done = failed | settled
            if k == cfg.max_iter:
                done[:] = True
            finished = done.nonzero()[0]
            if len(finished):
                stops.append((finished, ids, fused, new_probs, core._conflict(totals, shift),
                              failed, cred.T, settled, k))
                if len(finished) == len(ids):
                    break
                keep = ~done
                ids, probs = ids[keep], new_probs[keep]
                cond, table = cond[:, :, keep], table[:, keep]
            else:
                probs = new_probs
    if len(stops) == 1:  # one iteration stopped every set: its rows are in set order
        _, _, fused, probs, *fields, k = stops[0]
        if probs is fused:  # singleton masks: the result holds its own probabilities
            probs = probs.copy()
        return _Fused(combination.support, fused, probs, *fields, np.full(n_sets, k))
    # every stopped row is read once, from the arrays of all stops laid end to end
    finished, ids, *fields, ks = zip(*stops)
    counts = [len(rows) for rows in finished]
    starts = np.cumsum([0, *map(len, ids[:-1])])
    rows = np.concatenate(finished) + np.repeat(starts, counts)
    order = np.argsort(np.concatenate(ids)[rows])
    rows = rows[order]
    return _Fused(combination.support, *(np.concatenate(field)[rows] for field in fields),
                  np.repeat(ks, counts)[order])


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` along its first axis, added in order.

    numpy adds a leading axis of a C-ordered array a row at a time, as a
    loop over it would, but it may pair the terms when each row holds one
    entry; ``np.add.accumulate`` adds in order always, and more slowly."""
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _fusion_step(table: np.ndarray, cred: np.ndarray, combination: core._SelfCombination):
    """``(fused, totals, shift, failed, probs)`` of B evidence sets of N
    pieces each: the C-ordered (N, B, F) masses ``table`` on the masks
    ``combination.focal``, averaged under the (N, B) weights ``cred`` in
    piece order, as :func:`weighted_average` adds them, then self-combined
    by :func:`core._self_combined`, with the pignistic probabilities (the
    fused rows themselves on the frame's ``n`` singletons).  Each set gets
    the same bits in any batch.  A failed row's 0/0 is left to the caller's
    ``np.errstate``."""
    fused, totals, shift = core._self_combined(_sum_in_order(table * cred[:, :, None]),
                                               combination)
    layout = combination.layout
    probs = fused if layout is None else core._pignistic_rows(fused, layout)
    return fused, totals, shift, combination.failed(totals, shift), probs


def _weighted_fusion(frame: Frame, focal: np.ndarray, table: np.ndarray,
                     weights: np.ndarray) -> _Fused:
    """The open-loop fusion of B evidence sets of N pieces each: one
    :func:`_fusion_step` of the (B, N, F) masses ``table`` on the ascending
    masks ``focal`` of ``frame`` under the sets' (B, N) ``weights``, with
    each set's conflict K."""
    combination = core._SelfCombination(focal, table.shape[1], frame.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        fused, totals, shift, failed, probs = _fusion_step(
            table.transpose(1, 0, 2).copy(), weights.T, combination)
        conflict = core._conflict(totals, shift)
    if probs is fused:  # singleton masks: the result holds its own probabilities
        probs = probs.copy()
    return _Fused(combination.support, fused, probs, conflict, failed, weights)


def _fuse_tables(frame: Frame, focal: np.ndarray, table: np.ndarray, method: str,
                 config: IcefConfig) -> _Fused:
    """:func:`fuse` of B evidence sets of N pieces each, on arrays, in one pass.

    ``table`` holds the (B, N, F) masses of the sets on the ascending masks
    ``focal`` of ``frame``; a zero entry is not a focal set of that piece.
    ``method`` is a checked method name, and ``config`` an :class:`IcefConfig`:
    ``dcr`` runs through :func:`core._dcr_fold`, ``icef-*`` through
    :func:`_icef_loop`, and the open-loop methods through :func:`_weighted_fusion`.
    A set gets the bits of its own ``fuse`` call; a compound table's rows
    are on the support of all its focal sets, zero outside each set's own.
    No mass is checked here; a caller checks the rows it reads.  The EEM
    blocks its own rows; a compound table's self-combination holds one
    (B, 2**n) commonality array, and only the tests pass one here (the
    classifier's tables hold singletons only).
    """
    if method == "dcr":
        support, fused, conflict, failed = core._dcr_fold(frame, focal, table)
        return _Fused(support, fused,
                      core._pignistic_rows(fused, core._pignistic_layout(support, frame.n)),
                      conflict, failed)
    if method.startswith("icef-"):  # under the measure that the method names
        measure = get_measure(method.removeprefix("icef-"))
        if config.measure is not measure:  # replace() costs about 7 µs a call
            config = replace(config, measure=measure)
        return _icef_loop(frame, focal, table, config)
    if method in ("cef-avg", "cef-eig"):  # their weights compare the pieces themselves
        pieces = core._mass_rows(frame, focal, table.reshape(-1, table.shape[2]))
        size = table.shape[1]
        sets = [pieces[start:start + size] for start in range(0, len(pieces), size)]
    else:  # murphy's weights read the number and size of the sets only
        sets = table
    return _weighted_fusion(frame, focal, table, _method_weights(method, sets, config))


def _only(frame: Frame, method: str, out: _Fused) -> FusionResult:
    """The :class:`FusionResult` of the one set of ``out``, or its
    :class:`TotalConflictError` raised."""
    (result,) = _results(frame, method, out)
    if isinstance(result, TotalConflictError):
        raise result
    return result


def _results(frame: Frame, method: str, out: _Fused) -> list:
    """A :class:`FusionResult` per set of ``out``, or the
    :class:`TotalConflictError` of a set that failed; the masses of the
    other sets are built in one :func:`core._mass_rows` call."""
    masses = iter(core._mass_rows(frame, out.support, out.fused[~out.failed]))
    decisions = out.probs.argmax(axis=1).tolist()  # the first maximum, as _decision takes
    cred = out.credibilities
    return [
        TotalConflictError(float(out.conflict[b])) if out.failed[b] else
        FusionResult(next(masses), out.probs[b], frame.events[decisions[b]], method,
                     None if cred is None else cred[b], bool(out.converged[b]),
                     int(out.n_iter[b]))
        for b in range(len(out.fused))
    ]


#: The settings that ``config=None`` stands for; a frozen dataclass, so one serves every call.
_DEFAULT_CONFIG = IcefConfig()


def _read_config(config) -> IcefConfig:
    """``config`` if an :class:`IcefConfig`, the default if ``None``, else InvalidConfigError."""
    if not isinstance(config, (IcefConfig, type(None))):
        raise InvalidConfigError(f"config must be an IcefConfig or None, got {config!r}")
    return config or _DEFAULT_CONFIG


def _method_weights(method: str, sets, config: IcefConfig) -> np.ndarray:
    """Rows of 1/N for murphy, else of EDMM credibilities under ``config``'s
    measure, one per set; for murphy, ``sets`` may be any (B, N, ...) array.
    An EDMM with a NaN or infinite divergence raises :class:`InvalidMassValueError`."""
    if method == "murphy":
        return np.full((len(sets), len(sets[0])), 1.0 / len(sets[0]))
    credibility = average_support_credibility if method == "cef-avg" else eigenvalue_credibility
    return np.array([credibility(build_edmm(ms, config.measure)) for ms in sets])


FUSION_METHODS = ("dcr", "murphy", "icef-pbagd", "cef-avg", "cef-eig")


def _checked_method(method: str) -> str:
    """``method`` in lower case if it is in :data:`FUSION_METHODS`, or
    ``icef-`` and the name of the registered measure that an ``icef-*``
    method names (else :func:`get_measure`'s ``KeyError``); any other name,
    or one that is not a ``str``, raises :class:`InvalidConfigError`."""
    name = method.lower() if isinstance(method, str) else None
    if name is not None and name.startswith("icef-"):
        return f"icef-{get_measure(method[len('icef-'):]).name}"
    if name not in FUSION_METHODS:
        raise InvalidConfigError(f"unknown fusion method {method!r}; known: "
                                 f"{', '.join(FUSION_METHODS)}, or icef-<measure>")
    return name


def fuse(
    ms: Sequence[MassFunction], method: str = "icef-pbagd", config: IcefConfig | None = None
) -> FusionResult:
    """Dispatch by method name.

    The ``icef-*`` variants run through :func:`_fuse_tables` and build no
    trace; their result is :func:`icef`'s, bit for bit.
    """
    method, config = _checked_method(method), _read_config(config)
    if method == "dcr":
        return dcr_fuse(ms)
    frame = _check_set(ms)  # before the weights, which divide by the number of pieces
    if not method.startswith("icef-"):
        return cef_fuse(ms, _method_weights(method, [ms], config)[0], method=method)
    focal, table = core._mass_table(ms)
    return _only(frame, method, _fuse_tables(frame, focal, table[None], method, config))
