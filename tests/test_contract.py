"""The library's contract over its public surface, checked on random inputs.

Every call either returns a valid result or raises one of the library's
typed errors, and numpy warns of nothing on the way (warnings are errors
here).  Inputs reach the ends of the float range: masses of 5e-324, 1e-300
and 1 - 1e-16, and ``tau`` from 1e-3 to 1e7.  The examples are drawn from
a fixed seed, so a run reads the same inputs every time.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from credfuse import (
    FrameMismatchError,
    Frame,
    IcefConfig,
    InvalidConfigError,
    LengthMismatchError,
    MassFunction,
    MassFunctionError,
    TooFewPiecesError,
    TotalConflictError,
    bjs,
    fuse,
    pbagd,
)
from credfuse.credibility import NonpositiveTauError

#: Every fusion method, ``icef-bjs`` among them.
METHODS = ("dcr", "murphy", "cef-avg", "cef-eig", "icef-pbagd", "icef-bjs")

#: The errors a call may raise instead of returning a result.
TYPED_ERRORS = (MassFunctionError, TotalConflictError, InvalidConfigError, TooFewPiecesError,
                FrameMismatchError, LengthMismatchError, NonpositiveTauError)

#: Masses at the ends of the float range, kept as they are in a piece.
EDGE_MASSES = (5e-324, 1e-300, 1.0 - 1e-16)

CONTRACT = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def pieces(draw, frame: Frame):
    """A piece on ``frame`` with 1 to 6 focal sets, whose masses may hold
    the edge masses literally: the other masses are scaled to make up the
    rest (and dropped when the edge masses leave none), or every mass is
    scaled when nothing is left to scale."""
    masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=6,
                          unique=True))
    values = draw(st.lists(st.one_of(st.floats(0.01, 1.0), st.sampled_from(EDGE_MASSES)),
                           min_size=len(masks), max_size=len(masks)))
    values = np.array(values)
    edge = np.isin(values, EDGE_MASSES)
    rest = 1.0 - values[edge].sum()
    if abs(rest) <= 1e-12:
        values[~edge] = 0.0
    elif (~edge).any() and rest > 0.0:
        values[~edge] *= rest / values[~edge].sum()
    else:
        values /= values.sum()
    return MassFunction(frame, {mask: value for mask, value in zip(masks, values)
                                if value > 0.0})


@st.composite
def evidence_sets(draw):
    """A frame of 1 to 6 events and 2 to 5 pieces on it."""
    n = draw(st.integers(1, 6))
    frame = Frame(tuple(f"E{i + 1}" for i in range(n)))
    return frame, draw(st.lists(pieces(frame), min_size=2, max_size=5))


@st.composite
def configs(draw):
    """Loop settings: ``tau`` log-uniform in 1e-3 .. 1e7, ``delta`` in
    1e-12 .. 1e-1, 1 to 200 iterations, either start."""
    return IcefConfig(tau=10.0 ** draw(st.floats(-3.0, 7.0)),
                      delta=10.0 ** draw(st.floats(-12.0, -1.0)),
                      max_iter=draw(st.integers(1, 200)),
                      init=draw(st.sampled_from(["uniform", "eem"])))


@CONTRACT
@given(evidence=evidence_sets(), config=configs())
def test_fuse_returns_a_valid_result_or_a_typed_error(evidence, config):
    frame, ms = evidence
    for method in METHODS:
        # inside the test, not as a mark, so that a warning hypothesis itself
        # gives while it reports a failure does not hide the failure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fuse(ms, method, config)
            except TYPED_ERRORS:
                continue
        probs = result.pignistic
        assert probs.shape == (frame.n,)
        assert np.isfinite(probs).all() and (probs >= 0.0).all()
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert result.decision == frame.events[int(np.flatnonzero(probs == probs.max())[0])]
        if result.credibilities is not None:
            assert np.isfinite(result.credibilities).all()
            assert abs(result.credibilities.sum() - 1.0) <= 1e-9


@st.composite
def pairs(draw):
    frame = Frame(tuple(f"E{i + 1}" for i in range(draw(st.integers(1, 6)))))
    return draw(pieces(frame)), draw(pieces(frame))


@settings(CONTRACT, max_examples=150)
@given(pair=pairs())
def test_the_measures_are_in_range_and_symmetric_bit_for_bit(pair):
    m1, m2 = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = bjs(m1, m2), bjs(m2, m1), pbagd(m1, m2), pbagd(m2, m1)
    assert 0.0 <= values[0] <= 1.0
    assert np.isfinite(values[2])
    for value, swapped in (values[:2], values[2:]):
        assert np.float64(swapped).tobytes() == np.float64(value).tobytes()
