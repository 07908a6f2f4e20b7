"""Frames of discernment, mass functions, and Dempster's combination rule.

Subsets of the frame are encoded as integer bitmasks: bit ``j`` set means
event ``j`` (in frame order) belongs to the subset.  Frames are capped at
20 events because several operations (plausibility-belief transforms in
particular) enumerate all ``2**n - 1`` nonempty subsets.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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


class TotalConflictError(ArithmeticError):
    """Conjunctive combination left (almost) no surviving mass."""

    def __init__(self, conflict: float):
        self.conflict = conflict
        super().__init__(f"total conflict: K = {conflict!r}")


@dataclass(frozen=True)
class Frame:
    """Ordered set of mutually exclusive, exhaustive event labels."""

    events: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(str(e) for e in self.events))
        if not self.events:
            raise ValueError("a frame needs at least one event")
        if len(self.events) > MAX_EVENTS:
            raise ValueError(f"frames are capped at {MAX_EVENTS} events, got {len(self.events)}")
        if len(set(self.events)) != len(self.events):
            raise ValueError("event labels must be unique")

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
        error = _first_violation(frame, merged.items())
        if error is not None:
            raise error
        focal = sorted(merged)
        values = array("d", map(merged.__getitem__, focal))
        if 0.0 in values:
            focal = [mask for mask in focal if merged[mask] != 0.0]
            values = array("d", map(merged.__getitem__, focal))
        focal = array("q", focal)
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
        return _pignistic_rows(np.frombuffer(self._focal, dtype=np.int64),
                               np.frombuffer(self._values), self.frame.n)

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


def _pignistic_rows(masks: np.ndarray, masses: np.ndarray, n: int) -> np.ndarray:
    """Pignistic probabilities of each row of ``masses`` on the ascending
    ``masks`` of an ``n``-event frame, along the last axis.

    Each event adds up its shares in ascending mask order (a sum along an
    axis that is not the last of a C-ordered array runs row by row), so
    equal inputs give bit-equal outputs and ties stay exact.  A zero mass
    adds an exact zero, so masks outside a row's focal sets change nothing.
    """
    shares = masses / np.bitwise_count(masks)
    members = masks[:, None] >> _EVENT_INDEX[:n] & 1
    return (members * shares[..., None]).sum(axis=-2)


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


def vacuous(frame: Frame) -> MassFunction:
    """The fully uncommitted assignment: all mass on the whole frame."""
    return MassFunction(frame, {frame.full_mask: 1.0})


def event_evidence(frame: Frame, event) -> MassFunction:
    """Categorical evidence asserting a single event: mass 1 on that singleton.

    ``event`` is a frame label or a 0-based event index.
    """
    if isinstance(event, str):
        j = frame.index(event)
    else:
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
        if m.frame != frame:
            raise FrameMismatchError(f"frames differ: {frame.events} vs {m.frame.events}")
    return frame


def dcr_pair(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule for two mass functions.

    Conjunctive combination of all focal pairs, discarding mass whose
    intersection is empty and renormalizing by ``1 - K`` where ``K`` is the
    conflict.  Raises :class:`TotalConflictError` when ``K >= 1 - CONFLICT_EPS``.
    """
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
    # output unit-sum to the last bit across long combination chains)
    total = sum(combined.values())
    if conflict >= 1.0 - CONFLICT_EPS or total <= CONFLICT_EPS:
        raise TotalConflictError(conflict)
    return MassFunction(frame, {mask: v / total for mask, v in combined.items()})


def dcr_n(ms: Iterable[MassFunction]) -> MassFunction:
    """Left fold of :func:`dcr_pair` over one or more mass functions."""
    ms = list(ms)
    _require_same_frame(ms)
    result = ms[0]
    for m in ms[1:]:
        result = dcr_pair(result, m)
    return result


def _bit_halves(v: np.ndarray):
    """Per bit, highest first: views of the entries of ``v`` without and with
    that bit in their index along the last axis.

    ``v`` is C-ordered, so each block of ``2**(j + 1)`` consecutive
    entries lies within one vector along the last axis, and a flat view
    pairs entries of the same vector only.
    """
    for j in reversed(range(v.shape[-1].bit_length() - 1)):
        pairs = v.reshape(-1, 2, 1 << j)
        yield pairs[:, 0, :], pairs[:, 1, :]


def superset_zeta(v) -> np.ndarray:
    """Superset sums of a vector indexed by mask: entry ``A`` of the result
    is the sum of ``v[B]`` over every ``B`` containing ``A``.

    ``v`` has length ``2**n`` along its last axis, which is transformed;
    leading axes index independent vectors.  Applied to a dense mass vector
    this gives the commonality function; applied to the mass vector indexed
    by complement it gives belief of the complement.
    """
    v = np.array(v, dtype=float, order="C")
    for without, with_ in _bit_halves(v):
        without += with_
    return v


def superset_mobius(v) -> np.ndarray:
    """Inverse of :func:`superset_zeta` (along the last axis): commonality back to mass."""
    v = np.array(v, dtype=float, order="C")
    for without, with_ in _bit_halves(v):
        without -= with_
    return v


def _intersections(focal: np.ndarray, times: int, size: int) -> np.ndarray:
    """Ascending masks of the nonempty intersections of at most ``times``
    of the ``focal`` masks, which the ``size = 2**n`` masks hold.

    A nonempty intersection of any number of focal sets is one of at most
    ``max(1, n - 1)`` of them: in a smallest such family each member removes
    an element that no other member removes, and one element is left.  So
    once ``times`` reaches that count, the masks are those ``A`` equal to the
    intersection of their focal supersets, which one pass of
    :func:`_bit_halves` over the ``size`` masks finds, as for
    :func:`superset_zeta` but with ``&`` for ``+``; bit ``n`` marks masks
    that have no focal superset.  Fewer operands take a breadth-first
    search: round ``t`` intersects only the masks first reached in round
    ``t - 1`` with every focal mask.  Each temporary holds at most about
    ``size`` entries.
    """
    if times >= max(1, size.bit_length() - 2):
        common = np.full(size, 2 * size - 1)
        common[focal] = focal
        for without, with_ in _bit_halves(common):
            without &= with_
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


#: Estimated cost of :func:`_dense_self_fuse` on an ``n``-event frame, index
#: ``n``, in the units of :func:`_fold_is_cheaper`: about 90 plus, per event,
#: 12 for its numpy calls and ``2**n / 16`` for their work.
_DENSE_COST = tuple(90 + n * (12 + (1 << n) / 16) for n in range(MAX_EVENTS + 1))


def _fold_is_cheaper(n_focal: int, n: int, times: int) -> bool:
    """Whether pairwise combinations cost less than the dense path.

    Costs are in units of one focal pair in :func:`dcr_pair`, about 0.45 us
    on a shared 2-vCPU Xeon under Python 3.11 and numpy 2.4.  Each of the
    ``times.bit_length() + times.bit_count() - 2`` combinations of
    :func:`self_fuse`'s fold costs about 20 plus the pairs of its operands,
    at least ``n_focal**2``; the dense path costs ``_DENSE_COST[n]``.  Timed
    on that machine for n = 2..8 events, 1..6 focal sets and 2..24 operands,
    the estimate picks the faster path in 209 of 224 cases.  On a 3-event
    frame with 3 singletons and 4 operands the fold takes about 28 us and the
    dense path 63 us; with 6 focal sets and 12 operands, or 4 focal sets and
    24, the dense path wins.
    """
    combinations = times.bit_length() + times.bit_count() - 2
    return combinations * (20 + n_focal * n_focal) < _DENSE_COST[n]


def self_fuse(m: MassFunction, times: int) -> MassFunction:
    """Combine ``times`` copies of ``m`` under Dempster's rule.

    ``times`` counts operands, so ``times=1`` returns ``m`` unchanged and
    ``times=k`` combines ``k`` copies.  Small inputs are combined pairwise
    with :func:`dcr_pair`, by repeated squaring (the rule is associative, so
    ``k`` operands take ``log2(k)`` squarings plus one combination per further
    set bit of ``k``); larger ones take one dense transform pair (see
    :func:`_dense_self_fuse`).  :func:`_fold_is_cheaper` chooses.
    """
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    if not _fold_is_cheaper(len(m._focal), len(m.frame.events), times):
        return _dense_self_fuse(m, times)
    result, power = None, m
    while True:
        if times & 1:
            result = power if result is None else dcr_pair(result, power)
        times >>= 1
        if not times:
            return result
        power = dcr_pair(power, power)


def _dense_self_fuse(m: MassFunction, times: int) -> MassFunction:
    """:func:`self_fuse` through the commonality domain: one row of
    :func:`_self_combine_rows`, built through the validating constructor.
    One operand returns ``m``."""
    if times == 1:
        return m
    support, fused, conflict, failed = _self_combine_rows(
        np.frombuffer(m._focal, dtype=np.int64), np.frombuffer(m._values)[None],
        times, m.frame.n, {})
    if failed[0]:
        raise TotalConflictError(float(conflict[0]))
    return MassFunction(m.frame, dict(zip(support.tolist(), fused[0].tolist())))


def _self_combine_rows(focal: np.ndarray, masses: np.ndarray, times: int, n: int,
                       supports: dict):
    """The ``times``-fold Dempster self-combination of each row of ``masses``.

    Row ``b`` of the ``(rows, F)`` array ``masses`` is one mass assignment on
    the ascending masks ``focal`` of an ``n``-event frame; a zero entry is
    not a focal set of that row.  Returns ``(support, fused, conflict,
    failed)``: the ascending masks ``support``, the ``(rows, len(support))``
    combined masses on them (zero outside a row's own support), the conflict
    K of each row, and whether K counts as total.  One operand returns the
    rows unchanged, with K = 0.

    Dempster's rule multiplies commonalities, so the unnormalized k-fold
    combination is the Moebius transform of ``q**k``, with ``q`` the
    commonality of the row: one transform pair over the ``2**n`` subsets
    instead of ``k - 1`` pairwise combinations.  Each row is read only on its
    exact support, the nonempty intersections of at most ``times`` of its
    focal sets, so rounding left on the other subsets never becomes mass;
    there it is clipped at 0 and normalized.  The support is found once per
    pattern of focal sets and kept in ``supports``, which the caller owns
    and must not share between different ``focal`` or ``times``.  A row
    fails when at most ``CONFLICT_EPS ** (times - 1)`` of its mass survives,
    i.e. when on average no more than ``CONFLICT_EPS`` survives each
    combination; its ``fused`` entries are then meaningless.

    When a row's largest power would fall below ``_POWER_FLOOR``, the power
    of its nonempty commonalities is taken by :func:`_scaled_power`, which
    keeps the largest entry in [0.5, 1) by powers of two.  Scaling by a
    power of two is exact and the normalization divides it out, so any
    number of operands leaves the largest power representable and no
    underflow turns into a spurious total conflict; the threshold above is
    still applied to the unscaled survivor total, compared in logarithms.
    Only many operands can need this; fewer skip the check.
    """
    rows = len(masses)
    if times == 1:
        return focal, masses, np.zeros(rows), np.zeros(rows, dtype=bool)
    q = np.zeros((rows, 1 << n))
    q[:, focal] = masses
    q = superset_zeta(q)
    # a row's largest nonempty commonality, a singleton's plausibility, is at
    # least 1/n (half of it leaves room for rounding), so only many operands
    # take its power below the floor; q[:, 0], the empty set's, only reaches
    # the empty set's entry, which is never read
    scaled = {}
    if (0.5 / n) ** times < _POWER_FLOOR:
        low = q[:, 1:].max(axis=1) ** times < _POWER_FLOOR
        scaled = {b: _scaled_power(q[b, 1:], times) for b in low.nonzero()[0]}
    q **= times
    shift = np.zeros(rows, dtype=np.int64)
    for b, (power, row_shift) in scaled.items():
        q[b, 1:] = power
        shift[b] = row_shift
    unnormalized = superset_mobius(q)

    parts = []
    for key, which, pattern in _focal_patterns(masses != 0.0):
        support = supports.get(key)
        if support is None:
            support = supports[key] = _intersections(focal[pattern], times, 1 << n)
        parts.append((which, support, np.maximum(unnormalized[which][:, support], 0.0)))
    if len(parts) == 1:
        _, support, fused = parts[0]
        totals = fused.sum(axis=1)
    else:
        support = np.unique(np.concatenate([own for _, own, _ in parts]))
        fused = np.zeros((rows, len(support)))
        totals = np.empty(rows)
        for which, own, values in parts:
            fused[np.ix_(which, np.searchsorted(support, own))] = values
            totals[which] = values.sum(axis=1)
    # the unscaled survivor total is totals * 2**-shift; a failed row's
    # masses may come out infinite or NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        failed = ~(np.log2(totals) - shift > (times - 1) * _LOG2_CONFLICT_EPS)
        conflict = 1.0 - np.ldexp(totals, -shift)
        return support, fused / totals[:, None], conflict, failed


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


def _scaled_power(v: np.ndarray, times: int) -> tuple[np.ndarray, int]:
    """``v**times * 2**shift`` and ``shift``; the largest entry of ``v`` is positive.

    Binary exponentiation that rescales each product by the power of two
    which brings its largest entry into [0.5, 1), so the largest power never
    underflows; entries below ``2**-1074`` of it become subnormal or zero.
    Each product rounds once, so the relative error stays within about
    ``times`` units in the last place.
    """
    power, shift = None, 0
    base, base_shift = _rescaled(v)
    while True:
        if times & 1:
            if power is None:
                power, shift = base, base_shift
            else:
                power, step = _rescaled(power * base)
                shift += base_shift + step
        times >>= 1
        if not times:
            return power, shift
        base, step = _rescaled(base * base)
        base_shift = 2 * base_shift + step


def _rescaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``v`` times the power of two ``2**shift`` that brings its largest entry
    into [0.5, 1), and ``shift``."""
    shift = -math.frexp(float(v.max()))[1]
    return np.ldexp(v, shift), shift
