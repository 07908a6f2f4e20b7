"""Command-line surface: output formats and exit codes."""

import json

import pytest

from credfuse import EvaluationReport, cli
from credfuse.cli import (
    EXIT_CONFLICT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_PARSE,
    EXIT_SCHEMA,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFuse:
    def test_dcr_builtin_prints_table(self, capsys):
        code, out, _ = run(capsys, "fuse", "--builtin", "fault-sensors", "--method", "dcr")
        assert code == EXIT_OK
        assert "0.3443" in out
        assert "0.6557" in out
        assert "decision: A3" in out

    def test_icef_builtin(self, capsys):
        code, out, _ = run(capsys, "fuse", "--builtin", "fault-sensors",
                           "--method", "icef-pbagd")
        assert code == EXIT_OK
        assert "0.9974" in out
        assert "decision: A1" in out

    def test_file_input(self, tmp_path, capsys):
        doc = {
            "frame": ["A", "B"],
            "evidence": [
                {"masses": {"A": 0.6, "A,B": 0.4}},
                {"masses": {"A": 0.5, "B": 0.5}},
            ],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "fuse", str(path), "--method", "murphy")
        assert code == EXIT_OK
        assert "decision: A" in out

    def test_malformed_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "fuse", str(path))
        assert code == EXIT_PARSE
        assert "error" in err

    def test_nan_tau_in_document_exits_2(self, tmp_path, capsys):
        doc = {
            "frame": ["A", "B"],
            "evidence": [{"masses": {"A": 0.6, "A,B": 0.4}}, {"masses": {"B": 1.0}}],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc)[:-1] + ', "tau": NaN}')
        code, _, err = run(capsys, "fuse", str(path))
        assert code == EXIT_PARSE
        assert "tau" in err

    def test_nan_tau_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "fuse", "--builtin", "fault-sensors", "--tau", "nan")
        assert code == EXIT_PARSE
        assert "tau" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(capsys, "fuse")
        assert code == EXIT_PARSE

    def test_nonexistent_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "fuse", "/nonexistent/evidence.json")
        assert code == EXIT_PARSE

    def test_total_conflict_exits_3(self, tmp_path, capsys):
        doc = {
            "frame": ["A", "B"],
            "evidence": [
                {"masses": {"A": 1.0}},
                {"masses": {"B": 1.0}},
            ],
        }
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "fuse", str(path), "--method", "dcr")
        assert code == EXIT_CONFLICT
        assert "conflict" in err

    def test_non_convergence_exits_4(self, capsys):
        code, _, err = run(capsys, "fuse", "--builtin", "fault-sensors",
                           "--method", "icef-pbagd", "--max-iter", "1")
        assert code == EXIT_NO_CONVERGENCE
        assert "trace" in err

    def test_non_convergence_from_document_exits_4(self, tmp_path, capsys):
        doc = {
            "frame": ["A", "B"],
            "evidence": [{"masses": {"A": 0.6, "A,B": 0.4}}, {"masses": {"B": 0.7, "A": 0.3}}],
            "max_iter": 1,
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "fuse", str(path), "--method", "icef-bjs")
        assert code == EXIT_NO_CONVERGENCE
        assert "after 1 iterations" in err
        assert out == ""

    def test_full_precision_flag(self, capsys):
        _, four, _ = run(capsys, "fuse", "--builtin", "close-pair", "--method", "murphy")
        _, full, _ = run(capsys, "fuse", "--builtin", "close-pair", "--method", "murphy",
                         "--full-precision")
        assert len(full) > len(four)


class TestMeasureFlag:
    """``--measure`` picks the measure of ``cef-*`` and ``trace``; an ``icef-*``
    method names its own, and a ``--measure`` naming another is refused."""

    @pytest.mark.parametrize("argv", [
        ["fuse", "--builtin", "fault-sensors", "--method", "icef-pbagd", "--measure", "bjs"],
        ["fuse", "--builtin", "fault-sensors", "--method", "icef-bjs", "--measure", "pbagd"],
        ["bench", "IRIS", "--label-column", "species", "--trials", "1",
         "--methods", "murphy,icef-pbagd", "--measure", "bjs"],
    ])
    def test_a_measure_other_than_the_icef_method_exits_2(self, iris_path, capsys, argv):
        # icef-pbagd with --measure bjs used to run PB-AGD silently
        code, out, err = run(capsys, *[str(iris_path) if a == "IRIS" else a for a in argv])
        assert code == EXIT_PARSE
        assert err.startswith("error: --measure") and out == ""

    def test_icef_method_keeps_its_measure(self, capsys):
        base = ["fuse", "--builtin", "fault-sensors", "--method", "icef-bjs", "--tau", "5"]
        _, named, _ = run(capsys, *base)
        code, same, _ = run(capsys, *base, "--measure", "BJS")
        assert code == EXIT_OK and same == named
        _, default, _ = run(capsys, "fuse", "--builtin", "fault-sensors")
        code, pbagd, _ = run(capsys, "fuse", "--builtin", "fault-sensors", "--measure", "pbagd")
        assert code == EXIT_OK and pbagd == default

    def test_cef_and_trace_honour_the_measure(self, capsys):
        outputs = {}
        for measure in ("pbagd", "bjs"):
            for argv in (["fuse", "--builtin", "fault-sensors", "--method", "cef-avg"],
                         ["trace", "--builtin", "fault-sensors", "--tau", "5"]):
                code, out, _ = run(capsys, *argv, "--measure", measure)
                assert code == EXIT_OK
                outputs[argv[0], measure] = out
        assert outputs["fuse", "pbagd"] != outputs["fuse", "bjs"]
        assert outputs["trace", "pbagd"] != outputs["trace", "bjs"]


class TestTrace:
    def test_writes_table(self, tmp_path, capsys):
        out_path = tmp_path / "trace.tsv"
        code, out, _ = run(capsys, "trace", "--builtin", "fault-sensors",
                           "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().strip().split("\n")
        header = lines[0].split("\t")
        assert header[0] == "step"
        assert header[-1] == "delta"
        last = lines[-1].split("\t")
        # converged credibilities sit between the probabilities and delta
        assert last[4:9] == ["0.2349", "0.2874", "0.1588", "0.3180", "0.0009"]

    def test_eem_init_converges_in_fewer_steps(self, tmp_path, capsys):
        a = tmp_path / "uniform.tsv"
        b = tmp_path / "eem.tsv"
        run(capsys, "trace", "--builtin", "fault-sensors", "--out", str(a))
        run(capsys, "trace", "--builtin", "fault-sensors", "--init", "eem",
            "--out", str(b))
        assert len(b.read_text().splitlines()) < len(a.read_text().splitlines())

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "trace", "--builtin", "fault-sensors")
        assert code == EXIT_OK
        assert out.startswith("step\t")

    def test_unwritable_output_exits_5(self, capsys):
        code, _, err = run(capsys, "trace", "--builtin", "fault-sensors",
                           "--out", "/nonexistent-dir/trace.tsv")
        assert code == EXIT_OUTPUT

    def test_non_convergence_still_writes_and_exits_4(self, tmp_path, capsys):
        out_path = tmp_path / "partial.tsv"
        code, _, err = run(capsys, "trace", "--builtin", "fault-sensors",
                           "--max-iter", "2", "--out", str(out_path))
        assert code == EXIT_NO_CONVERGENCE
        assert len(out_path.read_text().splitlines()) == 3  # header + 2 steps


class TestDivergence:
    def test_alpha_sweep_grid(self, capsys):
        code, out, _ = run(capsys, "divergence", "--builtin", "alpha-sweep")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t\talpha\tvalue"
        matching = [line for line in lines[1:] if line.split("\t")[1] == "0.9500"]
        assert len(matching) == 10
        assert all(line.split("\t")[2] == "0.0000" for line in matching)

    def test_alpha_sweep_alias(self, capsys):
        code, out, _ = run(capsys, "divergence", "--builtin", "example2")
        assert code == EXIT_OK
        assert out.startswith("t\talpha\tvalue")

    def test_span_sweep_minimum(self, capsys):
        code, out, _ = run(capsys, "divergence", "--builtin", "span-sweep",
                           "--full-precision")
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
        values = [float(v) for _, v in rows]
        assert values.index(min(values)) + 1 == 5

    def test_identical_evidence_matrix_zero(self, tmp_path, capsys):
        doc = {
            "frame": ["A", "B"],
            "evidence": [
                {"masses": {"A": 0.5, "B": 0.5}},
                {"masses": {"A": 0.5, "B": 0.5}},
            ],
        }
        path = tmp_path / "same.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "divergence", str(path))
        assert code == EXIT_OK
        assert "0.0000" in out

    def test_eem_matrix_shape(self, capsys):
        code, out, _ = run(capsys, "divergence", "--builtin", "fault-sensors",
                           "--matrix", "eem")
        lines = out.strip().split("\n")
        assert len(lines) == 4  # header + 3 event rows
        assert lines[1].split("\t")[0] == "A1"

    def test_no_input_exits_2(self, capsys):
        code, _, _ = run(capsys, "divergence")
        assert code == EXIT_PARSE


class TestBench:
    def test_montecarlo_quick(self, iris_path, tmp_path, capsys):
        out_prefix = tmp_path / "bench"
        code, out, _ = run(
            capsys, "bench", str(iris_path), "--label-column", "species",
            "--mode", "montecarlo", "--trials", "2", "--seed", "7",
            "--methods", "dcr,icef-pbagd", "--lambda", "5",
            "--out", str(out_prefix),
        )
        assert code == EXIT_OK
        assert "Total[dcr]" in out
        assert "Total[icef-pbagd]" in out
        summary = (tmp_path / "bench_summary.tsv").read_text().splitlines()
        assert summary[0] == "class\tdcr\ticef-pbagd"
        assert summary[-1].startswith("Total")
        series = (tmp_path / "bench_series.tsv").read_text().splitlines()
        assert series[0] == "method\ttrial\taccuracy"
        assert len(series) == 1 + 2 * 2

    def test_sweep_quick(self, iris_path, capsys):
        code, out, _ = run(
            capsys, "bench", str(iris_path), "--label-column", "species",
            "--mode", "sweep", "--methods", "dcr", "--lambda", "5",
        )
        assert code == EXIT_OK
        assert "Total[dcr]" in out

    def test_montecarlo_prints_tallies(self, iris_path, capsys):
        code, out, _ = run(
            capsys, "bench", str(iris_path), "--label-column", "species",
            "--trials", "1", "--methods", "dcr,icef-pbagd", "--max-iter", "1",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        at = lines.index(next(line for line in lines if line.startswith("Total[icef-pbagd]")))
        assert lines[at + 1] == "Conflicts[icef-pbagd] = 0"
        assert lines[at + 2].startswith("Unconverged[icef-pbagd] = ")
        assert int(lines[at + 2].split("=")[1]) > 0  # one iteration never settles
        assert "Unconverged[dcr] = 0" in lines

    def test_sweep_sums_tallies_over_reports(self, iris_path, capsys, monkeypatch):
        def fake_sweep(ds, methods, lam, config):
            return [
                EvaluationReport("dcr", "iris", {"fraction": f}, dict.fromkeys(ds.class_labels, 1.0),
                                 1.0, 10, conflict_samples=c, unconverged_samples=u)
                for f, c, u in ((0.5, 1, 3), (0.6, 2, 4))
            ]

        monkeypatch.setattr(cli, "sweep_evaluate", fake_sweep)
        code, out, _ = run(capsys, "bench", str(iris_path), "--label-column", "species",
                           "--mode", "sweep", "--methods", "dcr")
        assert code == EXIT_OK
        assert out.splitlines()[-3:] == [
            "Total[dcr] = 1.0000", "Conflicts[dcr] = 3", "Unconverged[dcr] = 7",
        ]

    def test_missing_label_column_exits_6(self, iris_path, capsys):
        code, _, err = run(capsys, "bench", str(iris_path),
                           "--label-column", "nope")
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("flags, name", [
        (["--trials", "0"], "trials"),
        (["--lambda", "0"], "lam"),
        (["--lambda", "nan"], "lam"),
        (["--mode", "sweep", "--lambda", "inf"], "lam"),
    ])
    def test_invalid_harness_settings_exit_2(self, iris_path, capsys, flags, name):
        # these used to end in a traceback
        code, out, err = run(capsys, "bench", str(iris_path), "--label-column", "species",
                             "--methods", "dcr", *flags)
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and name in err
        assert out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "seed"),  # used to end in numpy's ValueError
        (["--features", "petal_length", "--methods", "icef-bjs"], "two feature columns"),
        (["--features", "petal_length", "--methods", "dcr"], "two feature columns"),
        (["--mode", "sweep", "--features", "petal_length"], "two feature columns"),
    ])
    def test_invalid_seed_or_single_feature_exits_2(self, iris_path, capsys, flags, message):
        code, out, err = run(capsys, "bench", str(iris_path), "--label-column", "species",
                             "--trials", "1", *flags)
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and message in err
        assert out == ""

    def test_unreadable_dataset_exits_2(self, capsys):
        code, _, _ = run(capsys, "bench", "/nonexistent.csv",
                         "--label-column", "y")
        assert code == EXIT_PARSE
