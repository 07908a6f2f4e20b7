"""Span tracer that wraps the library's public functions from outside.

:func:`Tracer.install` replaces each function named in :data:`TARGETS`
with a wrapper that records a span (name, start, end, parent span, op) and
reads the call's arguments and result for work counts.  A module function
is replaced in every ``credfuse`` module that holds it, so callers that
imported the name (``credfuse.fusion.self_fuse``) see the wrapper as well
as the defining module (``credfuse.core.self_fuse``); a method is replaced
on its class.  :func:`Tracer.uninstall` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from credfuse import classify, core, credibility, divergence, documents, fusion


# Hooks on arguments run before the call, so work a call does before it
# raises (a total conflict) is counted; hooks on results run after it.

def _focal_pairs(tracer, args):
    tracer.counts["core.focal_pairs"] += len(args[0].items()) * len(args[1].items())


def _pb_transform(tracer, args):
    m = args[0]
    tracer.counts["divergence.subsets"] += (1 << m.frame.n) - 1
    tracer.op_inputs.add(m)


def _edmm_pairs(tracer, args):
    n = len(args[0])
    tracer.counts["credibility.build_edmm.pairs"] += n * (n - 1) // 2


def _icef_trace(tracer, result):
    trace = result[1]
    tracer.counts["fusion.icef.iters"] += len(trace.steps)
    tracer.counts["fusion.icef.unconverged"] += not trace.converged


#: (span name, owner, attribute, argument hook, result hook) per traced call.
TARGETS = (
    ("core.mass_init", core.MassFunction, "__init__", None, None),
    ("core.pignistic", core.MassFunction, "pignistic", None, None),
    ("core.dcr_pair", core, "dcr_pair", _focal_pairs, None),
    ("core.dcr_n", core, "dcr_n", None, None),
    ("core.self_fuse", core, "self_fuse", None, None),
    ("divergence.pb_transform", divergence, "pb_transform", _pb_transform, None),
    ("divergence.ag_divergence", divergence, "ag_divergence", None, None),
    ("divergence.pbagd", divergence.PBAGDivergence, "__call__", None, None),
    ("credibility.build_eem", credibility, "build_eem", None, None),
    ("credibility.build_edmm", credibility, "build_edmm", _edmm_pairs, None),
    ("credibility.support_matrix", credibility, "support_matrix", None, None),
    ("credibility.conditional_credibility", credibility, "conditional_credibility", None, None),
    ("fusion.fuse", fusion, "fuse", None, None),
    ("fusion.icef", fusion, "icef", None, _icef_trace),
    ("fusion.cef_fuse", fusion, "cef_fuse", None, None),
    ("fusion.weighted_average", fusion, "weighted_average", None, None),
    ("classify.monte_carlo_evaluate", classify, "monte_carlo_evaluate", None, None),
    ("classify.classify_sample", classify, "classify_sample", None, None),
    ("classify.attribute_evidence", classify, "attribute_evidence", None, None),
    ("classify.fit_interval_model", classify, "fit_interval_model", None, None),
    ("documents.parse", documents, "parse_evidence_document", None, None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)

#: Counts the hooks and the op boundaries produce, besides per-span calls.
COUNT_NAMES = (
    "core.focal_pairs",
    "core.total_conflicts",
    "divergence.subsets",
    "divergence.pb_transform.distinct",
    "credibility.build_edmm.pairs",
    "fusion.icef.iters",
    "fusion.icef.unconverged",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op)
        self.counts: Counter = Counter()
        self.op = -1
        self.op_inputs: set = set()  # distinct pb_transform inputs of the current op
        self._stack: list[int] = []
        self._restore: list = []

    def begin_op(self, op: int) -> None:
        self.end_op()
        self.op = op

    def end_op(self) -> None:
        self.counts["divergence.pb_transform.distinct"] += len(self.op_inputs)
        self.op_inputs = set()

    def _wrap(self, name, fn, on_call, on_return):
        spans, stack = self.spans, self._stack
        conflict = name == "core.dcr_pair"

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except core.TotalConflictError:
                if conflict:
                    self.counts["core.total_conflicts"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "credfuse" or key.startswith("credfuse.")]
        for name, owner, attr, on_call, on_return in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, on_call, on_return)
            if isinstance(owner, type):
                self._restore.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.end_op()
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the work counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span_name in SPAN_NAMES:
            out[f"{span_name}.calls"] = 0
            out[f"{span_name}.self_s"] = 0.0
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
        for count in COUNT_NAMES:
            out[count] = int(self.counts[count])
        return out
