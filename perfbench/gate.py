"""Frozen reference outputs checked before any timing.

The values are the paper's worked examples as this repository reproduces
them: ``icef`` on the builtin ``fault-sensors`` document (fused mass of A1
and the converged credibilities), and the full per-step ``icef`` table of
the builtin ``conflict-sensors`` document, all to 4 decimals.  Running the
gate also calls every fusion method once on a 3-event frame, which serves
as the warm-up of every code path the timed ops use.
"""

from __future__ import annotations

import numpy as np

from credfuse import documents, fusion

FOUR_DECIMALS = 5e-5 + 1e-12

FAULT_MASS_A1 = 0.9974
FAULT_CREDIBILITIES = (0.2349, 0.2874, 0.1588, 0.3180, 0.0009)

# conflict-sensors: step, p(A1), p(A2), p(A3), cred(m1)..cred(m5), delta
CONFLICT_TABLE = (
    (1, 0.5783, 0.3975, 0.0243, 0.3311, 0.3331, 0.1236, 0.1061, 0.1061, 0.6181),
    (2, 0.7959, 0.1963, 0.0078, 0.0281, 0.3971, 0.2125, 0.1812, 0.1812, 0.4352),
    (3, 0.9914, 0.0040, 0.0046, 0.0131, 0.1961, 0.2923, 0.2492, 0.2492, 0.3910),
    (4, 0.9972, 0.0000, 0.0028, 0.0110, 0.0040, 0.3641, 0.3104, 0.3104, 0.0116),
    (5, 0.9972, 0.0000, 0.0028, 0.0093, 0.0000, 0.3662, 0.3122, 0.3122, 0.0001),
    (6, 0.9972, 0.0000, 0.0028, 0.0092, 0.0000, 0.3663, 0.3123, 0.3123, 0.0000),
    (7, 0.9972, 0.0000, 0.0028, 0.0092, 0.0000, 0.3663, 0.3123, 0.3123, 0.0000),
)


def _close(actual, expected) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        (np.abs(actual - expected) <= FOUR_DECIMALS).all())


def check() -> list[str]:
    """Every mismatch against the frozen references; empty when all hold."""
    failures = []
    fault = documents.builtin_document("fault-sensors")
    result, trace = fusion.icef(fault.mass_functions, fusion.IcefConfig())
    if not _close(result.mass.mass("A1"), FAULT_MASS_A1):
        failures.append(f"fault-sensors icef m(A1) = {result.mass.mass('A1')!r}, "
                        f"expected {FAULT_MASS_A1}")
    if not trace.converged or not _close(trace.final.credibilities, FAULT_CREDIBILITIES):
        failures.append(f"fault-sensors icef credibilities {trace.final.credibilities!r}, "
                        f"expected {FAULT_CREDIBILITIES}")

    conflict = documents.builtin_document("conflict-sensors")
    _, trace = fusion.icef(conflict.mass_functions, fusion.IcefConfig())
    _, rows = trace.table_rows(conflict.frame, conflict.names)
    if not _close(rows, CONFLICT_TABLE):
        failures.append(f"conflict-sensors icef table differs: {rows!r}")

    for method in fusion.FUSION_METHODS:
        # plain Dempster combination is the paper's counterintuitive case
        expected = "A3" if method == "dcr" else "A1"
        decision = fusion.fuse(fault.mass_functions, method=method).decision
        if decision != expected:
            failures.append(f"fault-sensors {method} decided {decision!r}, expected {expected!r}")
    return failures
