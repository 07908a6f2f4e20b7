"""Command-line interface.

Subcommands::

    credfuse fuse        fuse an evidence document and print the result
    credfuse trace       run iterative fusion and emit the per-step table
    credfuse divergence  pairwise/event matrices or builtin curve data
    credfuse bench       interval-classifier benchmark on a tabular dataset

Exit codes: 0 success, 2 unparseable input or invalid evidence, 3 total
conflict, 4 iterative fusion did not converge, 5 output could not be
written, 6 invalid dataset schema.
"""

from __future__ import annotations

import argparse
import sys

from .classify import (
    EmptyDatasetError,
    EvaluationReport,
    ParseError,
    SchemaError,
    _mean_report,
    load_dataset,
    monte_carlo_evaluate,
    sweep_evaluate,
)
from .core import MassFunctionError, TooFewPiecesError, TotalConflictError
from .credibility import build_edmm, build_eem
from .divergence import get_measure, span_imbalance_grid, span_overlap_series
from .documents import (
    BUILTIN_DOCUMENTS,
    DocumentError,
    EvidenceDocument,
    builtin_document,
    format_table,
    load_evidence_document,
    matrix_table,
)
from .fusion import FUSION_METHODS, IcefConfig, InvalidConfigError, _checked_method, fuse, icef

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFLICT = 3
EXIT_NO_CONVERGENCE = 4
EXIT_OUTPUT = 5
EXIT_SCHEMA = 6

_CURVE_BUILTINS = {
    "alpha-sweep": "grid of (span, alpha, divergence) for a two-focal pair",
    "span-sweep": "series of (span, divergence) against a five-event block",
}
_CURVE_ALIASES = {"example2": "alpha-sweep", "example3": "span-sweep"}


def _load_document(args) -> EvidenceDocument:
    if args.builtin:
        return builtin_document(args.builtin)
    if not args.input:
        raise DocumentError("either an input file or --builtin is required")
    return load_evidence_document(args.input)


def _config(args, doc: EvidenceDocument | None = None, methods=()) -> IcefConfig:
    """Flags override the document's settings, which override the defaults.

    An ``icef-*`` method among ``methods`` names its own measure, so a
    ``--measure`` that names another is refused rather than ignored.
    """
    settings = dict(doc.overrides) if doc else {}
    for key in ("tau", "delta", "max_iter"):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    measure = get_measure(args.measure or "pbagd")
    if args.measure is not None:
        for method in methods:
            if method.lower().startswith("icef-") and get_measure(method[5:]) is not measure:
                raise InvalidConfigError(
                    f"--measure {args.measure} differs from the measure of method {method}")
    return IcefConfig(init=args.init, measure=measure, **settings)


def _precision(args) -> int | None:
    return None if args.full_precision else 4


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(str(exc)) from exc


class _OutputError(Exception):
    pass


def _print_result(doc: EvidenceDocument, result, precision: int | None) -> None:
    frame = doc.frame
    masks = sorted(
        {mask for m in doc.mass_functions for mask in m.focal_elements()}
        | set(result.mass.focal_elements())
    )
    rows = [[frame.subset_str(mask), result.mass.mass(mask)] for mask in masks]
    print(f"method: {result.method}")
    print("fused masses:")
    print(format_table(["subset", "mass"], rows, precision=precision), end="")
    prows = [[event, float(p)] for event, p in zip(frame.events, result.pignistic)]
    print("pignistic probabilities:")
    print(format_table(["event", "probability"], prows, precision=precision), end="")
    print(f"decision: {result.decision}")


def cmd_fuse(args) -> int:
    doc = _load_document(args)
    result = fuse(doc.mass_functions, method=args.method,
                  config=_config(args, doc, [args.method]))
    if not result.converged:
        print(
            f"error: no convergence after {result.n_iter} iterations "
            "(rerun with 'credfuse trace' to inspect the per-step table)",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    _print_result(doc, result, _precision(args))
    return EXIT_OK


def cmd_trace(args) -> int:
    doc = _load_document(args)
    cfg = _config(args, doc)
    result, trace = icef(doc.mass_functions, cfg)
    header, rows = trace.table_rows(doc.frame, doc.names)
    text = format_table(header, rows, precision=_precision(args))
    _write_out(text, args.out)
    if not trace.converged:
        print(
            f"error: no convergence after {cfg.max_iter} iterations"
            + (f"; partial trace written to {args.out}" if args.out else ""),
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    if args.out:
        print(f"trace written to {args.out} ({len(rows)} steps, decision {result.decision})")
    return EXIT_OK


def cmd_divergence(args) -> int:
    precision = _precision(args)
    if args.builtin:
        key = _CURVE_ALIASES.get(args.builtin.lower(), args.builtin.lower())
        if key == "alpha-sweep":
            rows = span_imbalance_grid()
            text = format_table(["t", "alpha", "value"], rows, precision=precision)
        elif key == "span-sweep":
            rows = span_overlap_series()
            text = format_table(["t", "value"], rows, precision=precision)
        else:
            # evidence-set builtins still work here and fall through to matrices
            doc = builtin_document(args.builtin)
            text = _matrices_text(doc, args, precision)
        _write_out(text, args.out)
        return EXIT_OK
    if not args.input:
        raise DocumentError(
            "either an input file or --builtin is required "
            f"(curves: {sorted(_CURVE_BUILTINS)}; documents: {BUILTIN_DOCUMENTS})"
        )
    doc = load_evidence_document(args.input)
    _write_out(_matrices_text(doc, args, precision), args.out)
    return EXIT_OK


def _matrices_text(doc: EvidenceDocument, args, precision) -> str:
    measure = get_measure(args.measure)
    names = doc.names
    if args.matrix == "eem":
        eem = build_eem(doc.mass_functions, doc.frame, measure)
        return matrix_table(eem.values, doc.frame.events, names,
                            corner="event\\evidence", precision=precision)
    edmm = build_edmm(doc.mass_functions, measure)
    return matrix_table(edmm.values, names, names, corner="evidence", precision=precision)


def _summary_table(reports: dict[str, EvaluationReport], class_labels, precision) -> str:
    rows = [[label, *(r.per_class_accuracy[label] for r in reports.values())]
            for label in class_labels]
    rows.append(["Total", *(r.total_accuracy for r in reports.values())])
    return format_table(["class", *reports], rows, precision=precision)


def _bench_methods(spec: str) -> list[str]:
    """The comma-separated names of ``--methods``, each checked before any
    trial runs: a fusion method, or ``icef-`` and a registered measure."""
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    if not methods:
        raise InvalidConfigError("--methods names no fusion method")
    for method in methods:
        _checked_method(method)
    return methods


def cmd_bench(args) -> int:
    features = args.features.split(",") if args.features else None
    ds = load_dataset(args.dataset, label_column=args.label_column,
                      feature_columns=features, delimiter=args.delimiter)
    methods = _bench_methods(args.methods)
    cfg = _config(args, methods=methods)
    precision = _precision(args)

    if args.mode == "sweep":
        reports = sweep_evaluate(ds, methods, lam=args.lam, config=cfg)
        per_method = {m: _mean_report([r for r in reports if r.method == m], {"lam": args.lam})
                      for m in methods}
        axis, points = "fraction", [r.params["fraction"] for r in reports
                                    if r.method == methods[0]]
    else:
        per_method = monte_carlo_evaluate(ds, methods, lam=args.lam, config=cfg,
                                          trials=args.trials, seed=args.seed)
        axis, points = "trial", range(1, args.trials + 1)
    # each report's series holds one total per split, in split order
    series_rows = [[m, point, acc] for m, report in per_method.items()
                   for point, acc in zip(points, report.trial_accuracies)]

    summary = _summary_table(per_method, ds.class_labels, precision)
    if args.out:
        _write_out(summary, f"{args.out}_summary.tsv")
        _write_out(format_table(["method", axis, "accuracy"], series_rows, precision=precision),
                   f"{args.out}_series.tsv")
        print(f"reports written to {args.out}_summary.tsv and {args.out}_series.tsv")
    print(summary, end="")
    for method in methods:
        report = per_method[method]
        print(f"Total[{method}] = {report.total_accuracy:.4f}")
        print(f"Conflicts[{method}] = {report.conflict_samples}")
        print(f"Unconverged[{method}] = {report.unconverged_samples}")
    return EXIT_OK


def _add_common_fusion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=None,
                   help=f"support kernel scale (default {IcefConfig.tau:g})")
    p.add_argument("--delta", type=float, default=None,
                   help=f"L1 termination threshold (default {IcefConfig.delta:g})")
    p.add_argument("--max-iter", type=int, default=None,
                   help=f"iteration cap (default {IcefConfig.max_iter})")
    p.add_argument("--init", choices=["uniform", "eem"], default="uniform",
                   help="initial event probabilities")
    p.add_argument("--measure", default=None,
                   help="divergence measure (pbagd, bjs; default pbagd, or the one an "
                        "icef-* method names)")
    p.add_argument("--full-precision", action="store_true",
                   help="print full float precision instead of 4 decimals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="credfuse",
                                     description="Credible evidence fusion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="fuse an evidence document")
    p_fuse.add_argument("input", nargs="?", help="evidence document (JSON)")
    p_fuse.add_argument("--builtin", help=f"builtin evidence set: {BUILTIN_DOCUMENTS}")
    p_fuse.add_argument("--method", choices=list(FUSION_METHODS) + ["icef-bjs"],
                        default="icef-pbagd")
    _add_common_fusion_flags(p_fuse)
    p_fuse.set_defaults(func=cmd_fuse)

    p_trace = sub.add_parser("trace", help="write the per-iteration fusion table")
    p_trace.add_argument("input", nargs="?", help="evidence document (JSON)")
    p_trace.add_argument("--builtin", help=f"builtin evidence set: {BUILTIN_DOCUMENTS}")
    p_trace.add_argument("--out", help="output path (default: stdout)")
    _add_common_fusion_flags(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_div = sub.add_parser("divergence", help="divergence matrices and curve tables")
    p_div.add_argument("input", nargs="?", help="evidence document (JSON)")
    p_div.add_argument("--builtin",
                       help=f"curves {sorted(_CURVE_BUILTINS)} or documents {BUILTIN_DOCUMENTS}")
    p_div.add_argument("--matrix", choices=["edmm", "eem"], default="edmm",
                       help="which matrix to emit for document input")
    p_div.add_argument("--measure", default="pbagd")
    p_div.add_argument("--out", help="output path (default: stdout)")
    p_div.add_argument("--full-precision", action="store_true")
    p_div.set_defaults(func=cmd_divergence)

    p_bench = sub.add_parser("bench", help="benchmark the interval classifier")
    p_bench.add_argument("dataset", help="delimiter-separated dataset with a header row")
    p_bench.add_argument("--label-column", required=True, help="name of the class column")
    p_bench.add_argument("--features", default=None,
                         help="comma-separated feature columns (default: all non-label)")
    p_bench.add_argument("--delimiter", default=",")
    p_bench.add_argument("--mode", choices=["sweep", "montecarlo"], default="montecarlo")
    p_bench.add_argument("--methods", default="dcr,murphy,icef-pbagd")
    p_bench.add_argument("--lambda", dest="lam", type=float, default=5.0,
                         help="interval similarity scale")
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="output path prefix for report tables")
    _add_common_fusion_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, InvalidConfigError, ParseError, EmptyDatasetError, OSError,
            KeyError, TooFewPiecesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MassFunctionError as exc:
        print(f"error: invalid evidence: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except TotalConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except _OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
