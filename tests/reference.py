"""Dictionary-and-loop forms of the array kernels, kept as the tests' oracles.

Each function computes a kernel's result one mass or one divergence at a
time, mostly as the library's earlier code did; the kernels must give the
same bits.  :func:`bayesian_self_fuse` is exact instead, in rationals, and
bounds a kernel's error rather than fixing its bits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from credfuse.core import (
    LengthMismatchError,
    MassFunction,
    _require_same_frame,
    dcr_n,
    event_evidence,
)


def weighted_average(ms, weights) -> MassFunction:
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


def butterfly(v, op) -> np.ndarray:
    """The butterfly as a loop over bits: a C-ordered copy of ``v`` in which,
    for each vector along the last axis and each bit ``j`` of its index,
    highest first, every entry ``A`` without that bit becomes ``op(v[A],
    v[A | 1 << j])``.  With ``np.add`` it is the superset zeta transform,
    with ``np.subtract`` its inverse, and with ``np.bitwise_and`` each mask
    meets its supersets.  The entries are picked by index arrays, not by
    the library's reshaped views, and each vector is done bit by bit."""
    v = np.array(v, order="C")
    index = np.arange(v.shape[-1])
    for j in reversed(range(v.shape[-1].bit_length() - 1)):
        without = index[index >> j & 1 == 0]
        v[..., without] = op(v[..., without], v[..., without | 1 << j])
    return v


def stratified_head_indices(ds, fraction) -> np.ndarray:
    """The first ``ceil(fraction * n_c)`` row indices of each class, sorted
    one by one as Python integers."""
    chosen: list[int] = []
    for label in ds.class_labels:
        idx = ds.class_indices(label)
        chosen.extend(idx[:min(len(idx), math.ceil(fraction * len(idx)))])
    return np.array(sorted(chosen), dtype=int)


def event_divergences(measure, ms, frame) -> np.ndarray:
    """Divergence of each evidence (columns) from the categorical assertion
    of each event (rows), one call of the measure per entry."""
    assertions = [event_evidence(frame, j) for j in range(frame.n)]
    return np.array([[measure(m, a) for m in ms] for a in assertions])


def ag_terms(p, q) -> np.ndarray:
    """The elementwise terms of the arithmetic-geometric divergence as one
    expression, ``mean * log2(mean / sqrt(p * q))`` with ``mean = (p + q) /
    2.0``, broadcast as numpy broadcasts ``p`` against ``q``."""
    mean = (p + q) / 2.0
    return mean * np.log2(mean / np.sqrt(p * q))


def dcr_conflict(ms) -> float:
    """The conflict K of the last combination in ``dcr_n(ms)``: the products
    of the disjoint focal sets of ``dcr_n(ms[:-1])`` and ``ms[-1]``, added
    in ``dcr_pair``'s pair order; 0 for one piece."""
    if len(ms) == 1:
        return 0.0
    conflict = 0.0
    last = list(ms[-1].items())
    for b, vb in dcr_n(ms[:-1]).items():
        for c, vc in last:
            if b & c == 0:
                conflict += vb * vc
    return conflict


def pignistic_rows(masks, masses, n) -> np.ndarray:
    """Pignistic probabilities of each row of ``masses`` on the ascending
    ``masks`` of an ``n``-event frame, along the last axis: each mask's mass
    split evenly over its events through the (F, n) 0/1 membership matrix,
    each event adding its shares in ascending mask order."""
    shares = masses / np.bitwise_count(masks)
    members = masks[:, None] >> np.arange(n) & 1
    return (members * shares[..., None]).sum(axis=-2)


def bayesian_self_fuse(masses, times) -> list[Fraction]:
    """The exact ``times``-fold Dempster self-combination of a mass on
    singletons only, given its masses: ``m_i**times / sum(m_j**times)``,
    in rationals from the floats' exact values.  Each float is an integer
    over a power of two, so the powers are taken on the integers over the
    largest of those denominators, which cancels."""
    numerators, denominators = zip(*(m.as_integer_ratio() for m in map(float, masses)))
    scale = max(denominators)
    powers = [(a * (scale // d)) ** times for a, d in zip(numerators, denominators)]
    total = sum(powers)
    return [Fraction(p, total) for p in powers]
