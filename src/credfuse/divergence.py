"""Evidence-difference measures.

The canonical measure here maps each mass function to a distribution over
all nonempty subsets of the frame (exponentially normalized belief plus
plausibility, :func:`pb_transform`) and compares two such distributions with
the arithmetic-geometric divergence.  Working on the full power set lets the
measure sense overlap between compound subsets, which plain mass-vector
divergences ignore.

All logarithms in this module are base 2.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from . import core
from .core import (
    Frame,
    FrameMismatchError,
    LengthMismatchError,
    MassFunction,
    event_evidence,
    superset_zeta,
)


#: Entries per row block when a stack of dense vectors is transformed at
#: once: ``max(1, _BLOCK_ENTRIES // 2**n)`` rows, so temporaries stay near
#: this size on small frames and hold one row on large ones.
_BLOCK_ENTRIES = 1 << 13


def subset_bel_pl(m: MassFunction) -> tuple[np.ndarray, np.ndarray]:
    """Belief and plausibility over every subset mask ``0 .. 2**n - 1``.

    Belief of ``A`` is the superset sum (:func:`superset_zeta`) of the mass
    vector indexed by complement, read at the complement of ``A``;
    plausibility of ``A`` is total mass minus belief of the complement.
    Arrays are indexed directly by bitmask.
    """
    bel_of_complement = superset_zeta(m.dense()[::-1])
    total = bel_of_complement[0]
    return bel_of_complement[::-1], total - bel_of_complement


def pb_transform(m: MassFunction) -> np.ndarray:
    """Exponentially normalized belief-plausibility weights over nonempty subsets.

    Entry ``k`` (0-based) is the weight of the subset with bitmask ``k + 1``:
    ``(exp(Bel) + exp(Pl)) / Z`` with ``Z`` summing the same quantity over all
    nonempty subsets.  Every weight is strictly positive and the vector sums
    to 1.
    """
    return _pb_rows(m.dense())


def _pb_rows(dense) -> np.ndarray:
    """:func:`pb_transform` along the last axis of dense mass vectors.

    Belief and plausibility come as in :func:`subset_bel_pl`.  ``exp`` runs
    on C-ordered arrays only, and belief's is read reversed afterwards:
    numpy may round ``exp`` of a reversed view differently, and one vector
    and a stack of them must get the same weights.
    """
    bel_of_complement = superset_zeta(dense[..., ::-1])
    weights = np.exp((bel_of_complement[..., :1] - bel_of_complement)[..., 1:])
    # Bel of mask A is entry 2**n - 1 - A of bel_of_complement
    weights += np.exp(bel_of_complement, out=bel_of_complement)[..., -2::-1]
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights


def ag_divergence(p, q) -> float:
    """Arithmetic-geometric divergence between two nonnegative vectors.

    ``sum mean * log2(mean / geo)`` over entries, with ``mean`` the
    arithmetic and ``geo`` the geometric mean of the paired entries.
    Symmetric in its arguments; positions where the entries are equal
    (including both zero) contribute exactly 0, so the divergence of a
    vector with itself is exactly 0.0.  An entry that is zero on one side
    only yields ``inf``.  Entries must be finite and nonnegative: a NaN, an
    infinite or a negative entry that differs from its partner raises
    ``ValueError``.

    A sum that is not finite is recomputed in a form that neither
    overflows nor underflows at the ends of the float range: the mean as
    ``p/2 + q/2``, the geometric mean as ``sqrt(p) * sqrt(q)``, and ``inf``
    exactly where one entry is 0.  A finite sum is returned as computed.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise LengthMismatchError(f"vector lengths differ: {p.shape} vs {q.shape}")
    differs = p != q
    if not differs.any():
        return 0.0
    p, q = p[differs], q[differs]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total = float(np.add.reduce(_ag_terms(p, q)))
    if math.isfinite(total):
        return total
    if not (np.isfinite(p) & np.isfinite(q) & (p >= 0.0) & (q >= 0.0)).all():
        raise ValueError(f"entries must be finite and nonnegative; the sum is {total}")
    mean = p / 2.0 + q / 2.0
    geo = np.sqrt(p) * np.sqrt(q)
    with np.errstate(all="ignore"):
        log_ratio = np.log2(mean / geo)
        # a ratio beyond float range, of entries far apart in magnitude
        wide = np.isinf(log_ratio)
        log_ratio[wide] = np.log2(mean[wide]) - np.log2(geo[wide])
        terms = mean * log_ratio
        terms[(p == 0.0) | (q == 0.0)] = math.inf
        return float(terms.sum())


def _ag_terms(p, q):
    """Elementwise ``mean * log2(mean / geo)`` of the paired entries of ``p``
    and ``q``, broadcast against each other.

    The operations of ``mean = (p + q) / 2.0; mean * log2(mean / sqrt(p *
    q))`` in the same order, in place on two temporaries (halving is exact,
    so ``*= 0.5`` rounds as ``/ 2.0`` does).  ``p`` and ``q`` are not written.
    """
    mean = np.add(p, q)
    mean *= 0.5
    terms = np.multiply(p, q)
    np.sqrt(terms, out=terms)
    np.divide(mean, terms, out=terms)
    np.log2(terms, out=terms)
    terms *= mean
    return terms


class DivergenceMeasure:
    """A pairwise evidence-difference measure.

    Subclasses set ``name`` and ``symmetric`` and implement ``evaluate``.
    Calling an instance checks that both operands share a frame.
    """

    name: str = "abstract"
    symmetric: bool = True

    def __call__(self, m1: MassFunction, m2: MassFunction) -> float:
        if m1.frame != m2.frame:
            raise FrameMismatchError(f"frames differ: {m1.frame.events} vs {m2.frame.events}")
        return self.evaluate(m1, m2)

    def evaluate(self, m1: MassFunction, m2: MassFunction) -> float:
        raise NotImplementedError

    def event_divergences(self, ms: Sequence[MassFunction], frame: Frame) -> np.ndarray:
        """Divergence of each evidence (columns) from the categorical assertion
        of each event (rows), from one mass table of the evidence; see
        :meth:`_table_event_divergences`.  Every piece must be on ``frame``."""
        if any(m.frame != frame for m in ms):
            raise FrameMismatchError(f"every piece must be on the frame {frame.events}")
        if not ms:
            return np.empty((frame.n, 0))
        return self._table_event_divergences(frame, *core._mass_table(ms))

    def _table_event_divergences(self, frame: Frame, focal: np.ndarray,
                                 table: np.ndarray) -> np.ndarray:
        """:meth:`event_divergences` of the rows of the (rows, F) mass
        ``table`` on the ascending masks ``focal``: one call of the measure
        per entry, on pieces built once with :func:`core._mass_rows`.  A
        measure that can read the table itself overrides this."""
        assertions = [event_evidence(frame, j) for j in range(frame.n)]
        ms = core._mass_rows(frame, focal, table)
        return np.array([[self(m, a) for m in ms] for a in assertions])

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"


class PBAGDivergence(DivergenceMeasure):
    """Arithmetic-geometric divergence of the two evidence's subset weights.

    Nonnegative, symmetric, and zero exactly when the two mass functions
    have identical subset-weight vectors (in particular when they are equal).
    """

    name = "pbagd"

    def evaluate(self, m1: MassFunction, m2: MassFunction) -> float:
        return ag_divergence(pb_transform(m1), pb_transform(m2))

    def _table_event_divergences(self, frame: Frame, focal: np.ndarray,
                                 table: np.ndarray) -> np.ndarray:
        """The divergences of the rows of the (rows, F) mass ``table`` on the
        ascending masks ``focal``, their weights transformed a row block at
        a time.

        The rows are scattered into dense mass vectors in blocks of ``max(1,
        _BLOCK_ENTRIES // 2**n)`` rows, and each block gets one
        :func:`pb_transform` along its rows.  The assertion of event ``j``
        has Bel = Pl = 1 on the subsets holding ``j`` and 0 elsewhere, so its
        weights take two values, ``alpha`` and ``beta``, read exactly as
        :func:`pb_transform` would compute them, once per frame size
        (:func:`_assertion_levels`).  The divergence of weights
        ``p`` from it is then the sum of the elementwise terms against
        ``alpha`` over the subsets holding ``j`` and against ``beta`` over
        the others.  Each block takes one :func:`_ag_terms` call per
        distinct value of all events (:func:`_level_values`), and the
        halves of the events that read the value are summed from it at
        once, so one value's terms are held at a time.  An entry equal to
        the assertion's weight contributes exactly +0.0, as in
        :func:`ag_divergence`: ``sqrt(a * a)`` rounds back to ``a`` for every
        weight ``a``, so its ratio is exactly 1.
        """
        size = 1 << frame.n
        rows = max(1, _BLOCK_ENTRIES // size)
        levels = _level_values(_assertion_levels(frame.n))
        values = np.empty((frame.n, len(table)))
        for start in range(0, len(table), rows):
            block = table[start:start + rows]
            stop = start + len(block)
            dense = np.zeros((len(block), size))
            dense[:, focal] = block
            p = np.ones((len(block), size))  # column 0, the empty set, only pads
            p[:, 1:] = _pb_rows(dense)
            for level, halves in levels:
                terms = _ag_terms(p, level)
                terms[:, 0] = 0.0  # no half reads the padding
                for j, holding, first in halves:
                    if first:
                        values[j, start:stop] = _half_sums(terms, j, holding)
                    else:  # the event's alpha half plus its beta half
                        values[j, start:stop] += _half_sums(terms, j, holding)
        return values


@functools.cache
def _assertion_levels(n: int) -> tuple[tuple[tuple[float, float], tuple[int, ...]], ...]:
    """The two weight values ``(alpha, beta)`` of the assertion of each event
    of an ``n``-event frame, with the events that share them, in event
    order: ``((alpha, beta), events)`` per distinct pair.

    Each assertion is one one-hot row transformed by :func:`_pb_rows`.  The
    levels depend on ``n`` alone, so they are computed once per frame size.
    """
    full_mask = (1 << n) - 1
    levels: dict[tuple[float, float], list[int]] = {}
    for j in range(n):
        assertion = np.zeros((1, 1 << n))
        assertion[0, 1 << j] = 1.0
        weights = _pb_rows(assertion)[0]
        # the weights of {j} and of its complement (of {j} again when n = 1,
        # where no nonempty subset lacks j and beta is never used)
        alpha = weights[(1 << j) - 1]
        beta = weights[(full_mask ^ 1 << j or 1 << j) - 1]
        levels.setdefault((float(alpha), float(beta)), []).append(j)
    return tuple((pair, tuple(events)) for pair, events in levels.items())


@functools.cache
def _level_values(levels) -> tuple[tuple[float, tuple[tuple[int, int, bool], ...]], ...]:
    """The distinct values of the :func:`_assertion_levels` ``levels``, each
    with the event halves that read it: ``(j, holding, first)``, where
    ``holding`` is 1 for event ``j``'s alpha half (the masks holding ``j``)
    and 0 for its beta half, and ``first`` marks the half read first."""
    halves: dict[float, list[tuple[int, int]]] = {}
    for (alpha, beta), events in levels:
        for j in events:
            halves.setdefault(alpha, []).append((j, 1))
            halves.setdefault(beta, []).append((j, 0))
    seen: set[int] = set()
    values = []
    for value, readers in halves.items():
        marked = []
        for j, holding in readers:
            marked.append((j, holding, j not in seen))
            seen.add(j)
        values.append((value, tuple(marked)))
    return tuple(values)


def _half_sums(terms: np.ndarray, j: int, holding: int) -> np.ndarray:
    """Per row of ``terms``, the sum over the masks with (``holding=1``) or
    without (``holding=0``) bit ``j``."""
    return np.add.reduce(terms.reshape(len(terms), -1, 2, 1 << j)[:, :, holding, :],
                         axis=(1, 2))


class MassJensenShannon(DivergenceMeasure):
    """Jensen-Shannon divergence of the raw mass assignments (base-2 logs).

    Compares masses focal-element by focal-element over the union of the
    two focal sets; maximal value ``log2(2) = 1`` for fully disjoint
    categorical evidence.  Blind to overlap between distinct compound
    subsets; provided as a comparison measure.
    """

    name = "bjs"

    def evaluate(self, m1: MassFunction, m2: MassFunction) -> float:
        keys = sorted(set(m1.focal_elements()) | set(m2.focal_elements()))
        p = np.array([m1.mass(k) for k in keys])
        q = np.array([m2.mass(k) for k in keys])
        mid = (p + q) / 2.0
        total = 0.0
        for vec in (p, q):
            pos = vec > 0
            total += 0.5 * float(np.sum(vec[pos] * np.log2(vec[pos] / mid[pos])))
        return total

    def _table_event_divergences(self, frame: Frame, focal: np.ndarray,
                                 table: np.ndarray) -> np.ndarray:
        """As the base method, for the rows of one focal pattern at a time:
        :meth:`evaluate`'s operations on each row's masses, in ascending mask
        order, against the assertion of each event, so each entry gets the
        bits of that pair's call.  The assertion's own term is ``log2(1 /
        mid)`` at its event, whose mid is 1/2 unless the row holds it."""
        values = np.empty((frame.n, len(table)))
        for _, which, pattern in core._focal_patterns(table != 0.0):
            p = table[which][:, pattern]
            masks = focal[pattern]
            for j in range(frame.n):
                asserted = (masks == 1 << j).astype(float)
                mid = (p + asserted) / 2.0
                # summed row by row: along a 2-D array's rows numpy may
                # group the terms otherwise than along one vector
                held = np.array([row.sum() for row in p * np.log2(p / mid)])
                own = (mid[:, asserted == 1.0][:, 0] if asserted.any()
                       else np.full(len(p), 0.5))
                values[j, which] = (0.0 + 0.5 * held) + 0.5 * np.log2(1.0 / own)
        return values


PBAGD = PBAGDivergence()
BJS = MassJensenShannon()

_MEASURES: dict[str, DivergenceMeasure] = {PBAGD.name: PBAGD, BJS.name: BJS}


def register_measure(measure: DivergenceMeasure, overwrite: bool = False) -> None:
    """Add a measure to the registry so fusion code can look it up by name."""
    key = measure.name.lower()
    if key in _MEASURES and not overwrite:
        raise ValueError(f"measure {key!r} is already registered")
    _MEASURES[key] = measure


def get_measure(name: str) -> DivergenceMeasure:
    measure = _MEASURES.get(name.lower()) if isinstance(name, str) else None
    if measure is None:
        raise KeyError(f"unknown divergence measure {name!r}; registered: {sorted(_MEASURES)}")
    return measure


def pbagd(m1: MassFunction, m2: MassFunction) -> float:
    return PBAGD(m1, m2)


def bjs(m1: MassFunction, m2: MassFunction) -> float:
    return BJS(m1, m2)


def _prefix_mask(t: int) -> int:
    return (1 << t) - 1


def span_imbalance_grid(alphas=None, spans=range(1, 11), n_events: int = 10):
    """Divergence between a variable and a fixed two-focal assignment.

    Both assignments put mass on the second singleton event and on a span
    ``A_t`` of the first ``t`` events; the variable one assigns ``alpha`` to
    the singleton, the fixed one 0.95.  Returns rows ``(t, alpha, value)``
    (column order fixed for downstream plotting) over the grid.  The two
    assignments coincide at ``alpha = 0.95``, so the value there is 0.
    """
    if alphas is None:
        alphas = np.linspace(0.05, 0.95, 19)
    frame = Frame(tuple(f"E{i + 1}" for i in range(n_events)))
    singleton = 1 << 1
    rows = []
    for t in spans:
        span = _prefix_mask(t)
        # 1.0 - 0.95 (not the literal 0.05) so the alpha = 0.95 grid point is
        # bit-identical to the reference and the divergence there is exactly 0.
        reference = MassFunction(frame, {singleton: 0.95, span: 1.0 - 0.95})
        for alpha in alphas:
            alpha = float(alpha)
            variable = MassFunction(frame, {singleton: alpha, span: 1.0 - alpha})
            rows.append((int(t), alpha, pbagd(variable, reference)))
    return rows


def span_overlap_series(spans=range(1, 11), n_events: int = 11):
    """Divergence of a four-focal assignment against a five-event block.

    The first assignment spreads mass over the whole frame, a small compound
    set, a singleton, and a variable span ``A_t``; the second is categorical
    on the first five events.  Returns rows ``(t, value)``.  The series dips
    where the span matches the block (t = 5) and rises more gently as the
    span keeps growing past it.
    """
    frame = Frame(tuple(f"E{i + 1}" for i in range(n_events)))
    block = _prefix_mask(5)
    reference = MassFunction(frame, {block: 1.0})
    small_compound = 0b1110  # events 2..4
    lone_singleton = 1 << 6
    # nominal weights 0.10/0.05/0.10/0.80 rescaled to unit sum
    weights = np.array([0.10, 0.05, 0.10, 0.80])
    weights = weights / weights.sum()
    rows = []
    for t in spans:
        spread = MassFunction(
            frame,
            {
                frame.full_mask: weights[0],
                small_compound: weights[1],
                lone_singleton: weights[2],
                _prefix_mask(t): weights[3],
            },
        )
        rows.append((int(t), pbagd(spread, reference)))
    return rows
