"""CLI tests for ``python -m repro bench`` and the bench-document schema."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import build_parser, main

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_validate_bench():
    spec = importlib.util.spec_from_file_location(
        "validate_bench", TOOLS_DIR / "validate_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        # None resolves to 1 for a fresh run; --resume reads the
        # journaled run's width instead
        assert args.jobs is None
        assert args.no_cache is False
        assert args.cache_dir == ".repro-cache"
        assert args.output == "BENCH_suite.json"
        assert args.transactions == 40
        assert args.resume is None
        assert args.run_id is None

    def test_resume_flag_defaults_to_latest(self):
        assert build_parser().parse_args(["bench", "--resume"]).resume == "latest"
        assert (
            build_parser().parse_args(["bench", "--resume", "run-1"]).resume
            == "run-1"
        )

    def test_jobs_flag(self):
        assert build_parser().parse_args(["bench", "--jobs", "4"]).jobs == 4

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "--jobs", "0"])
        assert excinfo.value.code == 2

    def test_jobs_must_be_an_int(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "--jobs", "many"])
        assert excinfo.value.code == 2

    def test_no_cache_flag(self):
        assert build_parser().parse_args(["bench", "--no-cache"]).no_cache is True

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.max_retries is None  # defer to REPRO_MAX_RETRIES / policy
        assert args.cell_timeout is None
        assert args.keep_going is False
        assert args.cache_verify is False

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(
            ["bench", "--max-retries", "0", "--cell-timeout", "2.5", "--keep-going"]
        )
        assert args.max_retries == 0
        assert args.cell_timeout == 2.5
        assert args.keep_going is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--max-retries", "-1"],
            ["bench", "--max-retries", "lots"],
            ["bench", "--cell-timeout", "0"],
            ["bench", "--cell-timeout", "-3"],
            ["bench", "--cell-timeout", "soon"],
        ],
    )
    def test_bad_resilience_values_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestExecution:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_bench_prints_report_and_writes_document(self, workdir, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "Table II: Microbenchmark Measurements" in out
        assert "Section VI: application overhead" in out

        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["schema"] == "repro-bench/1"
        assert document["jobs"] == 1
        assert document["cache"] == {
            "enabled": True,
            "directory": ".repro-cache",
            "hits": 0,
            "misses": document["totals"]["cells"],
        }
        assert document["totals"]["cells"] == len(document["cells"])
        assert document["totals"]["simulated_cycles"] > 0
        kinds = {cell["kind"] for cell in document["cells"]}
        assert "oversub" in kinds and "micro" in kinds

    def test_bench_report_matches_suite_full_report(self, workdir, capsys):
        from repro.core import suite

        assert main(["bench", "--no-cache", "-o", "doc.json"]) == 0
        out = capsys.readouterr().out
        assert out == suite.full_report() + "\n"

    def test_warm_rerun_hits_cache_and_reproduces_stdout(self, workdir, capsys):
        assert main(["bench", "-o", "cold.json"]) == 0
        cold_out = capsys.readouterr().out
        assert main(["bench", "-o", "warm.json"]) == 0
        warm_out = capsys.readouterr().out

        assert warm_out == cold_out
        cold = json.loads((workdir / "cold.json").read_text())
        warm = json.loads((workdir / "warm.json").read_text())
        assert warm["cache"]["hits"] == cold["totals"]["cells"]
        assert warm["cache"]["misses"] == 0
        assert all(cell["source"] == "cache" for cell in warm["cells"])
        assert warm["report_sha256"] == cold["report_sha256"]
        assert warm["totals"]["simulated_cycles"] == cold["totals"]["simulated_cycles"]

    def test_no_cache_leaves_no_cache_directory(self, workdir, capsys):
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (workdir / ".repro-cache").exists()
        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["cache"]["enabled"] is False
        assert document["cache"]["hits"] == 0

    def test_fault_free_document_reports_quiet_resilience(self, workdir, capsys):
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        document = json.loads((workdir / "BENCH_suite.json").read_text())
        block = document["resilience"]
        for counter in (
            "retries",
            "requeues",
            "timeouts",
            "pool_crashes",
            "corrupt_payloads",
            "degraded",
            "failed",
            "quarantined",
            "swept_tmp",
        ):
            assert block[counter] == 0
        assert block["policy"]["max_retries"] == 2
        assert block["policy"]["keep_going"] is False
        assert "failed_cells" not in document
        assert "partial" not in document
        assert all(cell["attempts"] == 1 for cell in document["cells"])
        assert all(cell["degraded"] is False for cell in document["cells"])


class TestResilienceExecution:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        from repro.runner import faults

        monkeypatch.chdir(tmp_path)
        faults.reset_plan_cache()
        yield tmp_path
        faults.reset_plan_cache()

    def _doom_breakdown(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps(
                {
                    "name": "cli-doom-breakdown",
                    "faults": [
                        {"cell": "breakdown", "kind": "transient", "times": 99}
                    ],
                }
            ),
        )

    def test_exhausted_cell_aborts_with_structured_stderr(
        self, workdir, monkeypatch, capsys
    ):
        self._doom_breakdown(monkeypatch)
        assert main(["bench", "--no-cache", "--max-retries", "0"]) == 1
        err = capsys.readouterr().err
        assert "1 cell(s) failed after exhausting retries" in err
        assert "breakdown" in err
        assert "InjectedFault" in err
        assert not (workdir / "BENCH_suite.json").exists()

    def test_keep_going_emits_partial_document(self, workdir, monkeypatch, capsys):
        self._doom_breakdown(monkeypatch)
        status = main(["bench", "--no-cache", "--max-retries", "0", "--keep-going"])
        assert status == 1
        captured = capsys.readouterr()
        assert "[Table III omitted: cell breakdown failed" in captured.out
        assert "Table II: Microbenchmark Measurements" in captured.out  # survivors
        assert "report is partial (--keep-going)" in captured.err

        document = json.loads((workdir / "BENCH_suite.json").read_text())
        assert document["partial"] is True
        (failed,) = document["failed_cells"]
        assert failed["id"] == "breakdown"
        assert failed["attempts"][0]["kind"] == "exception"
        assert document["resilience"]["failed"] == 1
        assert all(cell["id"] != "breakdown" for cell in document["cells"])

        validator = _load_validate_bench()
        assert validator.validate(str(workdir / "BENCH_suite.json")) == []

    def test_cache_verify_quarantines_and_signals(self, workdir, capsys):
        assert main(["bench"]) == 0
        capsys.readouterr()
        entry = next((workdir / ".repro-cache").glob("??/*.json"))
        entry.write_bytes(b"\x00poisoned")

        assert main(["bench", "--cache-verify"]) == 1
        captured = capsys.readouterr()
        assert "quarantined" in captured.out
        assert "1 quarantined" in captured.err
        assert (workdir / ".repro-cache" / "quarantine").is_dir()

        # the store is clean now: a second verify passes
        assert main(["bench", "--cache-verify"]) == 0
        captured = capsys.readouterr()
        assert "0 quarantined" in captured.err


class TestValidateBenchTool:
    def test_valid_document_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        validator = _load_validate_bench()
        assert validator.validate(str(tmp_path / "BENCH_suite.json")) == []
        assert validator.main([str(tmp_path / "BENCH_suite.json")]) == 0

    def test_corrupt_documents_fail(self, tmp_path):
        validator = _load_validate_bench()
        missing = tmp_path / "missing.json"
        assert validator.validate(str(missing))

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro-bench/1", "jobs": 0}))
        problems = validator.validate(str(bad))
        assert any("jobs" in problem for problem in problems)
        assert any("cells" in problem for problem in problems)
        assert validator.main([str(bad)]) == 1

    def test_total_cycle_mismatch_detected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--no-cache"]) == 0
        capsys.readouterr()
        document = json.loads((tmp_path / "BENCH_suite.json").read_text())
        document["totals"]["simulated_cycles"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(document))
        validator = _load_validate_bench()
        assert any(
            "simulated_cycles" in problem
            for problem in validator.validate(str(tampered))
        )

    def test_usage_without_args(self):
        validator = _load_validate_bench()
        assert validator.main([]) == 2


class TestBenchHistory:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_history_flag_appends_one_line_per_run(self, workdir, capsys):
        assert main(["bench", "--history", "hist.jsonl"]) == 0
        err = capsys.readouterr().err
        assert "appended scoreboard line to hist.jsonl" in err
        assert main(["bench", "--history", "hist.jsonl"]) == 0
        capsys.readouterr()

        lines = (workdir / "hist.jsonl").read_text().splitlines()
        assert len(lines) == 2
        cold, warm = (json.loads(line) for line in lines)
        assert cold["schema"] == "repro-bench-history/1"
        assert cold["report_sha256"] == warm["report_sha256"]
        assert cold["cache_hit_rate"] == 0.0
        assert warm["cache_hit_rate"] == 1.0
        assert cold["cells"] == warm["cells"] > 0
        assert cold["partial"] is False

        validator = _load_validate_bench()
        assert validator.validate_history(str(workdir / "hist.jsonl")) == []
        assert validator.main(["--history", str(workdir / "hist.jsonl")]) == 0

    def test_no_history_flag_writes_nothing(self, workdir, capsys):
        assert main(["bench"]) == 0
        err = capsys.readouterr().err
        assert "scoreboard" not in err
        assert list(workdir.glob("*.jsonl")) == []

    def test_history_line_matches_document_scoreboard(self, workdir, capsys):
        from repro.runner import bench as runner_bench

        assert main(["bench", "--history", "hist.jsonl", "-o", "doc.json"]) == 0
        capsys.readouterr()
        document = json.loads((workdir / "doc.json").read_text())
        (line,) = [
            json.loads(raw)
            for raw in (workdir / "hist.jsonl").read_text().splitlines()
        ]
        assert line == runner_bench.history_line(document)
        assert line["wall_clock_s"] == document["resilience"]["wall_clock_s"]
        assert line["jobs"] == document["jobs"]

    def test_validator_rejects_corrupt_history(self, tmp_path):
        validator = _load_validate_bench()
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert validator.validate_history(str(empty))

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                {
                    "schema": "repro-bench-history/0",
                    "report_sha256": "nope",
                    "jobs": 0,
                    "cells": 0,
                    "wall_clock_s": -1,
                    "cells_per_second": "fast",
                    "cache_hit_rate": 2.0,
                    "partial": "no",
                }
            )
            + "\nnot json\n"
        )
        problems = validator.validate_history(str(bad))
        for needle in (
            "schema=",
            "report_sha256",
            "jobs=",
            "cells=",
            "wall_clock_s",
            "cells_per_second",
            "cache_hit_rate",
            "partial",
            "not JSON",
        ):
            assert any(needle in problem for problem in problems), needle
        assert validator.main(["--history", str(bad)]) == 1

    def test_committed_history_is_valid(self):
        history = pathlib.Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
        validator = _load_validate_bench()
        assert validator.validate_history(str(history)) == []
