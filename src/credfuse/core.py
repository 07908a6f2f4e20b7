"""Frames of discernment, mass functions, and Dempster's combination rule.

Subsets of the frame are encoded as integer bitmasks: bit ``j`` set means
event ``j`` (in frame order) belongs to the subset.  Frames are capped at
20 events because several operations (plausibility-belief transforms in
particular) enumerate all ``2**n - 1`` nonempty subsets.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_EVENTS = 20

_EVENT_INDEX = np.arange(MAX_EVENTS)

#: Mass assignments must sum to one within this tolerance.
NORMALIZATION_TOL = 1e-9

#: Combination refuses to normalize once this little mass survives.
CONFLICT_EPS = 1e-12

_LOG2_CONFLICT_EPS = math.log2(CONFLICT_EPS)

#: A power of the largest commonality below this leaves the entries within
#: 2**-53 of it, which all count at double precision, subnormal or zero.
_POWER_FLOOR = 2.0 ** -969


def _is_number(value, kind) -> bool:
    """Whether ``value`` is a number of ``kind``; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_positive_finite(value) -> bool:
    """Whether ``value`` is a positive real number within float range."""
    try:
        return _is_number(value, numbers.Real) and math.isfinite(value) and value > 0
    except OverflowError:  # an integer beyond float range
        return False


class MassFunctionError(ValueError):
    """A mass assignment violates a basic-belief-assignment invariant."""


class NegativeMassError(MassFunctionError):
    pass


class NotNormalizedError(MassFunctionError):
    def __init__(self, total: float):
        self.total = total
        super().__init__(f"masses sum to {total!r}, expected 1")


class EmptySetFocalError(MassFunctionError):
    pass


class InvalidMassValueError(MassFunctionError):
    """A mass is not a finite real number: NaN, infinite, a bool, or not a number."""


class FrameMismatchError(ValueError):
    """Two operands are defined over different frames."""


class LengthMismatchError(ValueError):
    """Two sequences that must align have different lengths."""


class TooFewPiecesError(ValueError):
    """An operation that compares or weighs pieces of evidence got fewer than two."""

    def __init__(self):
        super().__init__("need at least two pieces of evidence")


class TotalConflictError(ArithmeticError):
    """Conjunctive combination left (almost) no surviving mass."""

    def __init__(self, conflict: float):
        self.conflict = conflict
        super().__init__(f"total conflict: K = {conflict!r}")


@dataclass(frozen=True)
class Frame:
    """Ordered set of mutually exclusive, exhaustive event labels.

    A label may not contain a comma or start or end with whitespace, so
    that every subset has a comma-joined label string that names it.
    """

    events: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(str(e) for e in self.events))
        if not self.events:
            raise ValueError("a frame needs at least one event")
        if len(self.events) > MAX_EVENTS:
            raise ValueError(f"frames are capped at {MAX_EVENTS} events, got {len(self.events)}")
        if len(set(self.events)) != len(self.events):
            raise ValueError("event labels must be unique")
        for label in self.events:
            if "," in label or label != label.strip():
                raise ValueError(f"event label {label!r} has a comma or leading or trailing "
                                 "whitespace, which a subset string cannot name")

    @property
    def n(self) -> int:
        return len(self.events)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self.events.index(label)
        except ValueError:
            raise KeyError(f"unknown event label {label!r}") from None

    def mask_of(self, subset) -> int:
        """Coerce a subset description to a bitmask.

        Accepts an integer mask, a single label, a comma-joined label
        string (``"A1,A3"``), or an iterable of labels.  A bool is refused
        rather than read as the mask 0 or 1.
        """
        if type(subset) is int and 0 <= subset < 1 << len(self.events):
            return subset
        if isinstance(subset, (bool, np.bool_)):
            raise TypeError(f"a subset must be a mask or labels, not {subset!r}")
        if isinstance(subset, (int, np.integer)):
            mask = int(subset)
            if not 0 <= mask < 1 << len(self.events):
                raise ValueError(f"mask {mask} out of range for a {self.n}-event frame")
            return mask
        if isinstance(subset, str):
            labels: Iterable[str] = (part.strip() for part in subset.split(","))
        else:
            labels = subset
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for j, e in enumerate(self.events) if mask >> j & 1)

    def subset_str(self, mask: int) -> str:
        return ",".join(self.labels_of(mask))

    def subsets(self) -> range:
        """All nonempty subset masks, ascending."""
        return range(1, 1 << self.n)


def _mass_value(value) -> float:
    if type(value) is float:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise InvalidMassValueError(f"a mass must be a number, not {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidMassValueError(f"a mass must be a number, not {value!r}") from None


def validate_masses(frame: Frame, masses: Mapping) -> MassFunctionError | None:
    """Return the first violated mass invariant, or None if valid.

    Checks, in order: every mass a finite number (not a bool), no focal
    mass on the empty set, no negative mass, and normalization to 1 within
    ``NORMALIZATION_TOL``.
    """
    try:
        pairs = [(frame.mask_of(subset), _mass_value(value)) for subset, value in masses.items()]
    except InvalidMassValueError as error:
        return error
    return _first_violation(frame, pairs)


def _first_violation(frame: Frame, pairs) -> MassFunctionError | None:
    total = 0.0
    for mask, value in pairs:
        if not math.isfinite(value):
            return InvalidMassValueError(
                f"mass {value!r} on {frame.subset_str(mask)!r} is not finite")
        if mask == 0 and value != 0.0:
            return EmptySetFocalError("the empty set cannot carry mass")
        if value < 0.0:
            return NegativeMassError(f"negative mass {value!r} on {frame.subset_str(mask)!r}")
        total += value
    if abs(total - 1.0) > NORMALIZATION_TOL:
        return NotNormalizedError(total)
    return None


class _FocalPairs:
    """Sized, re-iterable view of a mass function's (mask, mass) pairs."""

    __slots__ = ("_focal", "_values")

    def __init__(self, focal, values):
        self._focal = focal
        self._values = values

    def __len__(self):
        return len(self._focal)

    def __iter__(self):
        return zip(self._focal, self._values)


class MassFunction:
    """A sparse basic belief assignment: nonempty subsets to masses summing to 1.

    The focal masks (ascending) and their masses are kept in two typed
    arrays, so an instance holds no Python object per focal set.
    Instances are immutable after construction; all operations on them are
    pure functions, so they can be shared freely across threads.
    """

    __slots__ = ("frame", "_focal", "_values", "_pairs")

    def __init__(self, frame: Frame, masses: Mapping):
        merged: dict[int, float] = {}
        for subset, value in masses.items():
            mask = frame.mask_of(subset)
            value = _mass_value(value)
            merged[mask] = merged[mask] + value if mask in merged else value
        # entry by entry when a subset is named twice, so no entry's mass cancels another's
        error = (validate_masses(frame, masses) if len(merged) < len(masses)
                 else _first_violation(frame, merged.items()))
        if error is not None:
            raise error
        focal = sorted(merged)
        values = array("d", map(merged.__getitem__, focal))
        if 0.0 in values:
            focal = [mask for mask in focal if merged[mask] != 0.0]
            values = array("d", map(merged.__getitem__, focal))
        self._assign(frame, array("q", focal), values)

    def _assign(self, frame: Frame, focal: array, values: array) -> None:
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_focal", focal)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_pairs", _FocalPairs(focal, values))

    def __setattr__(self, name, value):
        raise AttributeError("MassFunction is immutable")

    @property
    def masses(self) -> dict[int, float]:
        return dict(zip(self._focal, self._values))

    def items(self):
        """Focal (mask, mass) pairs in ascending mask order."""
        return self._pairs

    def mass(self, subset) -> float:
        mask = self.frame.mask_of(subset)
        i = bisect_left(self._focal, mask)
        return self._values[i] if i < len(self._focal) and self._focal[i] == mask else 0.0

    def focal_elements(self) -> tuple[int, ...]:
        return tuple(self._focal)

    def dense(self) -> np.ndarray:
        """The masses as a length-``2**n`` vector indexed by mask."""
        vector = np.zeros(1 << self.frame.n)
        vector[np.frombuffer(self._focal, dtype=np.int64)] = np.frombuffer(self._values)
        return vector

    def belief(self, subset) -> float:
        """Total mass committed to subsets of ``subset``."""
        mask = self.frame.mask_of(subset)
        return sum(v for b, v in self.items() if b & ~mask == 0)

    def plausibility(self, subset) -> float:
        """Total mass not in conflict with ``subset`` (sum over intersecting focals)."""
        mask = self.frame.mask_of(subset)
        return sum(v for b, v in self.items() if b & mask != 0)

    def pignistic(self) -> np.ndarray:
        """Event probabilities obtained by splitting each focal mass evenly.

        Returns a length-``n`` vector in frame order; sums to 1.  See
        :func:`_pignistic_rows`, which ``icef`` calls on its arrays.
        """
        return _pignistic_rows(np.frombuffer(self._values), _pignistic_layout(
            np.frombuffer(self._focal, dtype=np.int64), self.frame.n))

    def __eq__(self, other):
        if not isinstance(other, MassFunction):
            return NotImplemented
        return (self.frame == other.frame and self._focal == other._focal
                and self._values == other._values)

    def __hash__(self):
        return hash((self.frame, tuple(self._focal), tuple(self._values)))

    def __repr__(self):
        body = ", ".join(
            f"{{{self.frame.subset_str(mask)}}}: {value:g}" for mask, value in self.items()
        )
        return f"MassFunction({body})"


def _pignistic_layout(masks: np.ndarray, n: int):
    """What :func:`_pignistic_rows` reads of the ascending ``masks`` of an
    ``n``-event frame: ``None`` when they are the frame's ``n`` singletons,
    else the size of each mask and the (F, n) 0/1 matrix of its events."""
    if len(masks) == n and _singletons_only(masks):
        return None
    return np.bitwise_count(masks), masks[:, None] >> _EVENT_INDEX[:n] & 1


def _pignistic_rows(masses: np.ndarray, layout) -> np.ndarray:
    """Pignistic probabilities of each row of ``masses`` along the last
    axis, on the masks whose :func:`_pignistic_layout` is ``layout``.

    Each event adds up its shares in ascending mask order (a sum along an
    axis that is not the last of a C-ordered array runs row by row), so
    equal inputs give bit-equal outputs and ties stay exact.  A zero mass
    adds an exact zero, so masks outside a row's focal sets change nothing.
    On the ``n`` singletons each event's one share is its singleton's mass
    and the others add exact zeros, so the probabilities are a copy of the
    masses, with the same bits; a row of NaN (a failed self-combination's
    0/0) stays NaN.  Fewer singletons still take the sum, through which a
    NaN row reaches the events it does not hold as well.
    """
    if layout is None:
        return masses.copy()
    sizes, members = layout
    return np.add.reduce(members * (masses / sizes)[..., None], axis=-2)


def _mass_table(ms) -> tuple[np.ndarray, np.ndarray]:
    """The ascending union of the focal masks of ``ms`` and a
    ``(len(ms), len(union))`` table of their masses on it, zero elsewhere."""
    masks = np.frombuffer(b"".join([m._focal for m in ms]), dtype=np.int64)
    present = np.zeros(1 << ms[0].frame.n, dtype=bool)
    present[masks] = True
    union = present.nonzero()[0]
    table = np.zeros((len(ms), len(union)))
    rows = np.repeat(np.arange(len(ms)), [len(m._focal) for m in ms])
    table[rows, np.searchsorted(union, masks)] = np.frombuffer(b"".join([m._values for m in ms]))
    return union, table


#: Up to this many entries, :func:`_check_rows` runs ``_first_violation``
#: on each row: a handful of numpy calls costs more than a short loop.
_LOOP_CHECK_ENTRIES = 32


def _check_rows(frame: Frame, masks: np.ndarray, table: np.ndarray) -> None:
    """Raise what :func:`_first_violation` returns for the first row of the
    (rows, F) ``table`` that breaks a mass rule, row ``b`` holding the
    masses of the ascending ``masks``.

    Larger tables have the rules applied to all rows at once.  The total
    is the sequential sum that ``_first_violation`` forms
    (``np.add.accumulate`` adds in order, where ``sum`` may pair terms),
    and a non-finite entry leaves it non-finite, so a row is flagged
    exactly when that function finds a violation in it; the error comes
    from it.
    """
    if table.size > _LOOP_CHECK_ENTRIES:
        with np.errstate(invalid="ignore", over="ignore"):
            total = np.add.accumulate(table, axis=1)[:, -1]
        bad = ~(np.abs(total - 1.0) <= NORMALIZATION_TOL) | (table < 0.0).any(axis=1)
        if masks[0] == 0:
            bad |= table[:, 0] != 0.0
        if not bad.any():
            return
        table = table[bad.argmax()][None]
    masks = masks.tolist()
    for row in table.tolist():
        error = _first_violation(frame, zip(masks, row))
        if error is not None:
            raise error


def _mass_rows(frame: Frame, masks: np.ndarray, table: np.ndarray) -> list[MassFunction]:
    """``MassFunction(frame, dict(zip(masks, row)))`` for each row of the
    (rows, F) ``table`` on the ascending ``masks``, or the error that the
    first invalid row raises there.

    The rows are checked together by :func:`_check_rows`; each instance
    keeps its row's nonzero entries, and rows with the same nonzero
    entries share one array of focal masks.
    """
    if not len(table):
        return []
    _check_rows(frame, masks, table)
    out: list = [None] * len(table)
    new, assign = object.__new__, MassFunction._assign
    for _, which, pattern in _focal_patterns(table != 0.0):
        focal = array("q", masks[pattern].tolist())
        rows = range(len(table)) if isinstance(which, slice) else which.tolist()
        for b, values in zip(rows, table[which][:, pattern].tolist()):
            m = out[b] = new(MassFunction)
            assign(m, frame, focal, array("d", values))
    return out


def vacuous(frame: Frame) -> MassFunction:
    """The fully uncommitted assignment: all mass on the whole frame."""
    return MassFunction(frame, {frame.full_mask: 1.0})


def event_evidence(frame: Frame, event) -> MassFunction:
    """Categorical evidence asserting a single event: mass 1 on that singleton.

    ``event`` is a frame label or a 0-based event index; an index that is
    not an integer, a bool among them, raises ``TypeError``.
    """
    if isinstance(event, str):
        j = frame.index(event)
    else:
        if not _is_number(event, numbers.Integral):
            raise TypeError(f"an event is a frame label or an integer index, got {event!r}")
        j = int(event)
        if not 0 <= j < frame.n:
            raise IndexError(f"event index {j} out of range for a {frame.n}-event frame")
    return MassFunction(frame, {1 << j: 1.0})


def _require_same_frame(ms: Iterable[MassFunction]) -> Frame:
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one mass function")
    frame = ms[0].frame
    for m in ms[1:]:
        if m.frame is not frame and m.frame != frame:
            raise FrameMismatchError(f"frames differ: {frame.events} vs {m.frame.events}")
    return frame


def dcr_pair(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule for two mass functions.

    Conjunctive combination of all focal pairs, discarding mass whose
    intersection is empty and renormalizing by ``1 - K`` where ``K`` is the
    conflict.  Raises :class:`TotalConflictError` when ``K >= 1 - CONFLICT_EPS``.
    """
    return _dcr_pair(m1, m2)[0]


def _dcr_pair(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """:func:`dcr_pair` and the conflict K of the combination."""
    frame = _require_same_frame([m1, m2])
    combined: dict[int, float] = {}
    conflict = 0.0
    pairs2 = list(zip(m2._focal.tolist(), m2._values.tolist()))
    for b, vb in zip(m1._focal.tolist(), m1._values.tolist()):
        for c, vc in pairs2:
            product = vb * vc
            inter = b & c
            if inter == 0:
                conflict += product
            else:
                combined[inter] = combined.get(inter, 0.0) + product
    # normalize by the surviving total (identical to 1 - K, but it keeps the
    # output unit-sum to the last bit across long combination chains), added
    # in insertion order: ``sum`` compensates its float terms from Python 3.12
    total = 0.0
    for value in combined.values():
        total += value
    if conflict >= 1.0 - CONFLICT_EPS or total <= CONFLICT_EPS:
        raise TotalConflictError(conflict)
    return MassFunction(frame, {mask: v / total for mask, v in combined.items()}), conflict


def dcr_n(ms: Iterable[MassFunction]) -> MassFunction:
    """Left fold of :func:`dcr_pair` over one or more mass functions."""
    ms = list(ms)
    _require_same_frame(ms)
    result = ms[0]
    for m in ms[1:]:
        result = dcr_pair(result, m)
    return result


#: Arrays of fewer entries take every butterfly step in place; larger ones
#: take their low bits on a transposed copy (see :class:`_Butterfly`).
_RELAYOUT_ENTRIES = 1 << 10

#: Bits of an index that the butterfly handles on the transposed copy.
_LOW_BITS = 5

#: Entries per cache block of the butterfly's low steps.
_CACHE_BLOCK = 1 << 15


class _Butterfly:
    """A plan for the butterfly on the C-ordered array ``v``, found once and
    run any number of times: per bit of the index along the last axis,
    highest first, each entry without that bit is combined in place with
    its partner with it, ``v[A] = ufunc(v[A], v[A | 1 << j])``.  The plan
    holds ``v`` and the views that each step reads and writes, so a run is
    one ufunc call per bit (and per cache block on large arrays), whatever
    ``v`` holds; a caller refills ``v`` between runs.

    ``v`` is C-ordered, so each block of ``2**(j + 1)`` consecutive entries
    lies within one vector along the last axis, and a flat view pairs
    entries of the same vector only.  In place, the step for bit ``j``
    runs on ``2**j`` consecutive entries at a time, which numpy iterates
    slowly for the low bits.  So on arrays of ``_RELAYOUT_ENTRIES`` or more
    entries the bits from ``_LOW_BITS`` up run in place, and the low ones
    on a transposed copy: a cache block of ``_CACHE_BLOCK`` entries at a
    time (whole vectors while they fit) is copied to ``(2**low, -1)``,
    where bit ``j < low`` pairs whole rows, and copied back.  Every entry
    sees the same operations in the same bit order in either layout, so the
    results are the same bits.  Each step then runs on at least
    ``2**_LOW_BITS`` consecutive entries (or whole rows), and numpy's ufunc
    buffer is set to its minimum during a run so that it iterates them in
    place rather than copying them into buffers first.
    """

    __slots__ = ("v", "steps", "blocks")

    def __init__(self, v: np.ndarray):
        self.v = v
        n = v.shape[-1].bit_length() - 1
        if v.size < _RELAYOUT_ENTRIES:
            self.steps, self.blocks = _step_views(v, range(n)), ()
            return
        low = min(n, _LOW_BITS)
        top = min(n, _CACHE_BLOCK.bit_length() - 1)
        vectors = v.reshape(-1, 1 << top)
        rows = max(1, _CACHE_BLOCK >> n)
        self.steps = _step_views(v, range(top, n))
        # one transposed copy serves every block; the last may be shorter
        scratch = np.empty(min(rows, len(vectors)) << top, dtype=v.dtype)
        self.blocks = []
        for start in range(0, len(vectors), rows):
            block = vectors[start:start + rows]
            grid = block.reshape(-1, 1 << low)
            transposed = scratch[:grid.size].reshape(1 << low, -1)
            self.blocks.append((_step_views(block, range(low, top)), grid, transposed,
                                _step_views(transposed, range(low), len(grid))))

    def __call__(self, ufunc) -> np.ndarray:
        """Run the butterfly with ``ufunc`` on ``v``, in place; returns ``v``."""
        if not self.blocks:
            for without, with_ in self.steps:
                ufunc(without, with_, without)
            return self.v
        with np.errstate():
            np.setbufsize(16)
            for without, with_ in self.steps:
                ufunc(without, with_, without)
            for middle, grid, transposed, lows in self.blocks:
                for without, with_ in middle:
                    ufunc(without, with_, without)
                np.copyto(transposed, grid.T)
                for without, with_ in lows:
                    ufunc(without, with_, without)
                np.copyto(grid, transposed.T)
        return self.v


def _step_views(v: np.ndarray, bits: range, width: int = 1) -> list:
    """Per bit of ``bits``, highest first, the views ``(without, with)`` of
    the entries of ``v`` that the butterfly's step pairs, where bit ``j``
    pairs runs of ``width * 2**j`` consecutive entries.  ``v`` is
    contiguous, so each reshape is a view of it."""
    views = []
    for j in reversed(bits):
        run = width << j
        # runs of one entry as 1-D views, which numpy iterates faster
        pairs = v.reshape(-1, 2, run) if run > 1 else v.reshape(-1, 2)
        views.append((pairs[:, 0], pairs[:, 1]))
    return views


def _butterfly(v: np.ndarray, ufunc) -> np.ndarray:
    """One run of the butterfly with ``ufunc`` on ``v``, in place, on a
    one-off :class:`_Butterfly` plan; returns ``v``."""
    return _Butterfly(v)(ufunc)


def superset_zeta(v) -> np.ndarray:
    """Superset sums of a vector indexed by mask: entry ``A`` of the result
    is the sum of ``v[B]`` over every ``B`` containing ``A``.

    ``v`` must have length ``2**n`` along its last axis, which is
    transformed; leading axes index independent vectors.  Applied to a dense
    mass vector this gives the commonality function; applied to the mass
    vector indexed by complement it gives belief of the complement.
    """
    return _butterfly(_subset_vectors(v), np.add)


def superset_mobius(v) -> np.ndarray:
    """Inverse of :func:`superset_zeta` (along the last axis): commonality back to mass."""
    return _butterfly(_subset_vectors(v), np.subtract)


def _subset_vectors(v) -> np.ndarray:
    """``v`` as C-ordered floats; its last axis must have a length ``2**n``."""
    v = np.array(v, dtype=float, order="C")
    if not v.ndim or v.shape[-1].bit_count() != 1:
        raise ValueError(f"the last axis must have a length 2**n; got shape {v.shape}")
    return v


def _intersections(focal: np.ndarray, times: int, size: int) -> np.ndarray:
    """Ascending masks of the nonempty intersections of at most ``times``
    of the ``focal`` masks, which the ``size = 2**n`` masks hold.

    A nonempty intersection of any number of focal sets is one of at most
    ``max(1, n - 1)`` of them: in a smallest such family each member removes
    an element that no other member removes, and one element is left.  So
    once ``times`` reaches that count, the masks are those ``A`` equal to the
    intersection of their focal supersets, which one pass of
    :func:`_butterfly` over the ``size`` masks finds, as for
    :func:`superset_zeta` but with ``&`` for ``+``; bit ``n`` marks masks
    that have no focal superset.  Fewer operands take a breadth-first
    search: round ``t`` intersects only the masks first reached in round
    ``t - 1`` with every focal mask.  Each temporary holds at most about
    ``size`` entries.
    """
    if times >= max(1, size.bit_length() - 2):
        common = np.full(size, 2 * size - 1)
        common[focal] = focal
        _butterfly(common, np.bitwise_and)
        closed = common == np.arange(size)
        closed[0] = False  # the empty set is never part of the support
        return closed.nonzero()[0]
    seen = np.zeros(size, dtype=bool)
    seen[0] = True  # the empty set is never part of the support
    seen[focal] = True
    frontier = focal
    rows = max(1, size // len(focal))
    for _ in range(times - 1):
        reached = np.zeros(size, dtype=bool)
        for start in range(0, len(frontier), rows):
            reached[np.bitwise_and.outer(frontier[start:start + rows], focal)] = True
        frontier = np.flatnonzero(reached > seen)
        if not frontier.size:
            break
        seen[frontier] = True
    return np.flatnonzero(seen)[1:]


def self_fuse(m: MassFunction, times: int) -> MassFunction:
    """Combine ``times`` copies of ``m`` under Dempster's rule.

    ``times`` counts operands, so ``times=1`` returns ``m`` unchanged and
    ``times=k`` combines ``k`` copies: one row of :func:`_self_combined`,
    built through the validating constructor.  ``times`` must be an
    integer (not a bool or a float) of at least 1.
    """
    if not _is_number(times, numbers.Integral) or times < 1:
        raise ValueError(f"times must be an integer >= 1, got {times!r}")
    if times == 1:
        return m
    combination = _SelfCombination(np.frombuffer(m._focal, dtype=np.int64), times, m.frame.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        fused, totals, shift = _self_combined(np.frombuffer(m._values)[None], combination)
        if combination.failed(totals, shift)[0]:
            raise TotalConflictError(float(_conflict(totals, shift)[0]))
    return MassFunction(m.frame, dict(zip(combination.support.tolist(), fused[0].tolist())))


class _SelfCombination:
    """What every ``times``-fold self-combination of mass rows on the
    ascending masks ``focal`` of an ``n``-event frame shares, found once:
    whether every mask is a singleton, the call's ``support``, which every
    row is read on, its pignistic ``layout``, whether a row's largest power
    can fall below ``_POWER_FLOOR`` (``floored``), and the log2 failure
    ``threshold`` on the survivor total.  The ``icef`` loop makes one per
    call and combines every iteration's rows under it, so every iteration
    is read on the same array.  It also owns the :meth:`plan` on which
    :func:`_self_combined` runs both transforms of a compound table, so
    one combination serves one caller at a time.

    The support is ``focal`` itself on singletons or for one operand, and
    otherwise the nonempty intersections of at most ``times`` of the focal
    sets among the ``2**n`` subsets (from ``max(1, n - 1)`` operands on,
    every nonempty set of the focal lattice of Chaveroche, Davoine and
    Destercke, SUM 2019).  Its masks index the columns of the ``2**n``-wide
    transforms.  The threshold reads ``_LOG2_CONFLICT_EPS`` when the
    combination is built.
    """

    def __init__(self, focal: np.ndarray, times: int, n: int):
        self.focal, self.times, self.n = focal, times, n
        self.bayesian = _singletons_only(focal)
        self.support = (focal if self.bayesian or times == 1
                        else _intersections(focal, times, 1 << n))
        self.within: dict[bytes, np.ndarray] = {}  # pattern bytes -> mask on support
        # a row's largest nonempty commonality, a singleton's plausibility, is
        # at least 1/n (half of it leaves room for rounding), so only many
        # operands take its power below the floor
        self.floored = (0.5 / n) ** times < _POWER_FLOOR
        # one operand combines nothing: its survivor total of 1 never fails
        self.threshold = (times - 1) * _LOG2_CONFLICT_EPS if times > 1 else -math.inf
        self._plan: _Butterfly | None = None

    def plan(self, rows: int) -> _Butterfly:
        """The :class:`_Butterfly` plan on a ``(rows, 2**n)`` work buffer,
        kept while the row count stays and rebuilt when it changes."""
        if self._plan is None or len(self._plan.v) != rows:
            self._plan = _Butterfly(np.empty((rows, 1 << self.n)))
        return self._plan

    @cached_property
    def layout(self):
        """:func:`_pignistic_layout` of the support, found when first read."""
        return _pignistic_layout(self.support, self.n)

    def own_support(self, key: bytes, pattern: np.ndarray) -> np.ndarray:
        """Which masks of the support belong to the support of rows whose
        focal sets are ``focal[pattern]``, a proper part of ``focal``: the
        nonempty intersections of at most ``times`` of those sets, found
        once per pattern."""
        within = self.within.get(key)
        if within is None:
            within = self.within[key] = np.isin(self.support, _intersections(
                self.focal[pattern], self.times, 1 << self.n), assume_unique=True)
        return within

    def failed(self, totals: np.ndarray, shift) -> np.ndarray:
        """Whether each row's unscaled survivor total, ``totals * 2**shift``,
        is at most ``CONFLICT_EPS ** (times - 1)``, compared in logarithms.
        A total of 0 or NaN fails; numpy's warnings for them are the
        caller's to silence."""
        return ~(np.log2(totals) + shift > self.threshold)


def _conflict(totals: np.ndarray, shift) -> np.ndarray:
    """The conflict K of rows whose unscaled survivor total is ``totals *
    2**shift``.  A total that rounds above 1 would make K negative, so K is
    clamped at 0."""
    return np.maximum(1.0 - totals * np.exp2(shift), 0.0)


def _self_combined(masses: np.ndarray, combination: _SelfCombination):
    """``(fused, totals, shift)`` of the ``times``-fold self-combination of
    each row of the ``(rows, F)`` array ``masses`` on the masks
    ``combination.focal`` (zero where a row holds none): the normalized
    rows on ``combination.support``, each row's survivor total,
    added in mask order, and the base-2 ``shift`` of that total (the scalar
    0.0 when no row is scaled).  One operand returns the rows themselves,
    with a total of 1.  A failed row's 0/0 is left to the caller's
    ``np.errstate``.

    Dempster's rule multiplies commonalities, so the unnormalized k-fold
    combination is the Moebius transform of ``q**k``, with ``q`` the
    commonality of the row: one transform pair over the ``2**n`` subsets
    instead of ``k - 1`` pairwise combinations.  Both transforms and the
    power run in place on the work buffer of the combination's
    :meth:`_SelfCombination.plan`, one ufunc call per bit, with the views
    found when the plan was made (once per call and row count); the fused
    rows are gathered out of it, so no returned array shares its memory.
    When every mask of ``focal`` is a singleton (Bayesian masses) the
    commonality is the mass and the pair is the identity, so the power is
    taken of ``masses`` themselves, read on ``focal``: ``0.0**times`` stays
    0 on the masks a row does not hold, and the powers of nonnegative masses
    need no clipping.  Otherwise every row is read on the call's support
    (see :class:`_SelfCombination`), the values are clipped at 0, and a row
    that lacks some of the focal sets is set to 0 outside its own support,
    the nonempty intersections of at most ``times`` of its focal sets, so
    rounding left on the other subsets never becomes mass.  Both branches
    end in one tail: each row is normalized by its total, added in mask
    order, and the zeros outside a row's support add nothing, so a row has
    the same bits alone and in any table.  A row fails when at most
    ``CONFLICT_EPS ** (times - 1)`` of its mass survives, i.e. when on
    average no more than ``CONFLICT_EPS`` survives each combination; its
    ``fused`` entries are then meaningless.

    When a row's largest power would fall below ``_POWER_FLOOR``, its
    nonempty commonalities are first divided by the largest of them,
    ``top``, and ``times * log2(top)`` is carried as the row's ``shift``.
    The largest entry is then exactly 1, so any number of operands leaves
    the largest power representable and no underflow turns into a spurious
    total conflict; entries below ``2**-1074`` of it vanish.  The division
    rounds once, so each power stays within about ``times / 2`` units in
    the last place of its exact value, and the normalization divides
    ``top**times`` out.  The failure threshold is still applied to the
    unscaled survivor total, ``totals * 2**shift``.  Only a combination
    that is ``floored`` checks for this, and a row that is not scaled keeps
    ``shift = 0``, which adds and multiplies exactly.
    """
    focal, times, n = combination.focal, combination.times, combination.n
    rows = len(masses)
    if times == 1:
        return masses, np.ones(rows), 0.0
    # on singletons alone both transforms only add or subtract exact zeros:
    # the commonality of a singleton is its mass, of a larger set 0, and the
    # Moebius transform of q**times is q**times on every singleton
    if combination.bayesian:
        q, nonempty = masses, slice(None)
    else:
        plan = combination.plan(rows)
        q, nonempty = plan.v, slice(1, None)
        q.fill(0.0)
        q[:, focal] = masses
        plan(np.add)
    # q[:, 0], the empty set's commonality, only reaches the empty set's
    # entry, which is never read
    shift = 0.0
    if combination.floored:
        top = q[:, nonempty].max(axis=1)
        low = top ** times < _POWER_FLOOR
        if low.any():
            if combination.bayesian:
                q = q.copy()  # the caller's
            q[low, nonempty] /= top[low, None]
            shift = np.zeros(rows)
            shift[low] = times * np.log2(top[low])
    if combination.bayesian:
        fused = q ** times
    else:
        q **= times
        fused = plan(np.subtract).take(combination.support, axis=1)
        np.maximum(fused, 0.0, out=fused)
        if np.count_nonzero(masses) < masses.size:
            for key, which, pattern in _focal_patterns(masses != 0.0):
                if not pattern.all():
                    fused[which] = np.where(combination.own_support(key, pattern),
                                            fused[which], 0.0)
    totals = np.add.accumulate(fused, axis=1)[:, -1]
    return fused / totals[:, None], totals, shift


def _focal_patterns(nonzero: np.ndarray):
    """The rows of the boolean ``(rows, F)`` array ``nonzero`` grouped by
    pattern: ``(key, rows, pattern)`` per distinct pattern, where ``rows``
    indexes the rows that share it (a full slice when all do) and ``key``
    is the pattern's bytes."""
    first = nonzero[0]
    if len(nonzero) == 1 or (nonzero == first).all():
        return [(first.tobytes(), slice(None), first)]
    members: dict[bytes, list[int]] = {}
    for b, row in enumerate(nonzero):
        members.setdefault(row.tobytes(), []).append(b)
    return [(key, np.array(bs), nonzero[bs[0]]) for key, bs in members.items()]


def _dcr_fold(frame: Frame, focal: np.ndarray, table: np.ndarray):
    """:func:`dcr_n` of B evidence sets of N pieces each at once.

    ``table`` holds the (B, N, F) masses of the sets on the ascending masks
    ``focal`` of ``frame``; a zero entry is not a focal set of that piece.
    Returns ``(support, fused, conflict, failed)``: the ascending masks
    ``support``, the (B, len(support)) combined masses on them,
    zero outside a set's own focal sets; the conflict K of the set's last
    combination; and whether that combination hit total conflict, in which
    case the set left the fold there and its ``fused`` row is zero.  One
    piece returns its row unchanged, with K = 0.

    When every mask of ``focal`` is a singleton, or the sets hold one piece
    each, every step is :func:`_bayesian_step` on the sets still in the
    fold, and the support is ``focal``.  Otherwise the pieces are built
    once from the table and each set is folded by :func:`_dcr_pair`, so
    each set gets the bits ``dcr_n`` gives it.
    """
    rows, pieces, width = table.shape
    conflict = np.zeros(rows)
    failed = np.zeros(rows, dtype=bool)
    if pieces > 1 and not _singletons_only(focal):
        ms = _mass_rows(frame, focal, table.reshape(-1, width))
        results = []
        for b in range(rows):
            result = ms[b * pieces]
            for m in ms[b * pieces + 1:(b + 1) * pieces]:
                try:
                    result, conflict[b] = _dcr_pair(result, m)
                except TotalConflictError as error:
                    conflict[b], failed[b] = error.conflict, True
                    break
            results.append(result)
        support, fused = _mass_table(results)
        fused[failed] = 0.0
        return support, fused, conflict, failed
    state, live = table[:, 0], np.arange(rows)
    for k in range(1, pieces):
        state, step_conflict, step_failed = _bayesian_step(state, table[live, k])
        conflict[live] = step_conflict
        failed[live] = step_failed
        if step_failed.any():
            live, state = live[~step_failed], state[~step_failed]
            if not len(live):
                break
    fused = np.zeros((rows, len(focal)))
    fused[live] = state
    return focal, fused, conflict, failed


def _bayesian_step(vb: np.ndarray, vc: np.ndarray):
    """:func:`dcr_pair` of the rows of ``vb`` and ``vc``, masses on the same
    ascending singleton masks (zero where a row holds none), for every row
    at once.  Returns ``(masses, conflict, failed)``, the masses on those
    masks.

    Two singletons meet only when they are equal, so the kept mass is the
    elementwise product, and K adds every other product in ``dcr_pair``'s
    pair order (``b`` outer, ``c`` inner), where the zeros on the diagonal
    and of masks a row does not hold add exactly nothing.  The surviving
    total adds the kept products in ascending mask order, ``dcr_pair``'s
    insertion order.
    """
    kept = vb * vc
    products = (vb[:, :, None] * vc[:, None, :]).reshape(len(vb), -1)
    products[:, ::vb.shape[1] + 1] = 0.0
    conflict = np.add.accumulate(products, axis=1)[:, -1]
    total = np.add.accumulate(kept, axis=1)[:, -1]
    failed = (conflict >= 1.0 - CONFLICT_EPS) | (total <= CONFLICT_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        return kept / total[:, None], conflict, failed


def _singletons_only(focal: np.ndarray) -> bool:
    """Whether every mask of ``focal`` is a singleton."""
    return np.count_nonzero(np.bitwise_count(focal) != 1) == 0
