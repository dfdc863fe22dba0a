"""The crash-safe run journal and ``bench --resume``.

The durability contract under test: kill the bench process at any
journaled point and ``--resume`` recovers every completed cell from the
cache (verified by payload sha), re-simulates only the remainder, and
renders a report **byte-identical** to an uninterrupted run.  The torn
final line a hard kill leaves behind is tolerated; interior corruption,
fingerprint drift, and cell-grid drift all refuse loudly.

The kill itself runs in a subprocess (the ``parent-kill`` fault is a
real ``os._exit(137)`` fired right after a cell's journal append);
everything else exercises the library in-process.
"""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import suite
from repro.errors import ConfigurationError
from repro.runner import bench, cells, faults
from repro.runner import journal as journal_mod
from repro.runner.journal import JournalError, RunJournal

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the report every bench run (fresh, resumed, killed-and-resumed) must
#: reproduce byte-for-byte
GOLDEN_REPORT_SHA = hashlib.sha256(
    suite.full_report().encode("utf-8")
).hexdigest()


def _load_validate_journal():
    spec = importlib.util.spec_from_file_location(
        "validate_journal", REPO_ROOT / "tools" / "validate_journal.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _header(**overrides):
    base = {
        "fingerprint": "ab" * 32,
        "cells": ["cell-a", "cell-b"],
        "jobs": 1,
        "policy": {"max_retries": 2, "cell_timeout_s": None, "keep_going": False},
    }
    base.update(overrides)
    return base


class TestRunIds:
    def test_generated_ids_validate_and_differ(self):
        first = journal_mod.generate_run_id()
        second = journal_mod.generate_run_id()
        assert journal_mod.validate_run_id(first) == first
        assert first != second

    @pytest.mark.parametrize(
        "bad", ["", ".hidden", "-dash-first", "a/b", "run id", "x" * 82, None, 7]
    )
    def test_unsafe_ids_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            journal_mod.validate_run_id(bad)


class TestJournalFile:
    def test_create_append_replay_round_trip(self, tmp_path):
        with RunJournal.create(tmp_path, "run-1", _header()) as journal:
            journal.cell_submitted("cell-a")
            journal.cell_submitted("cell-a")  # duplicates collapse on replay
            journal.cell_completed("cell-a", "ff" * 32, "ee" * 32, "run")
            journal.cell_quarantined("cell-b", "dd" * 32)
            journal.cell_failed("cell-b", "exception", "boom")
            journal.run_resume(jobs=4)
            journal.run_close("cc" * 32, partial=False)

        state = journal_mod.replay(journal_mod.journal_path(tmp_path, "run-1"))
        assert state.run_id == "run-1"
        assert state.header["schema"] == journal_mod.JOURNAL_SCHEMA
        assert state.header["cells"] == ["cell-a", "cell-b"]
        assert state.completed == {
            "cell-a": {"key": "ff" * 32, "payload_sha256": "ee" * 32, "source": "run"}
        }
        assert state.submitted == ["cell-a"]
        assert [event["cell"] for event in state.failed] == ["cell-b"]
        assert [event["cell"] for event in state.quarantined] == ["cell-b"]
        assert state.resumes == 1
        assert state.closed is True
        assert state.torn_tail is False

    def test_duplicate_run_id_refused(self, tmp_path):
        RunJournal.create(tmp_path, "run-1", _header()).close()
        with pytest.raises(ConfigurationError, match="already exists"):
            RunJournal.create(tmp_path, "run-1", _header())

    def test_torn_final_line_is_tolerated(self, tmp_path):
        with RunJournal.create(tmp_path, "run-1", _header()) as journal:
            journal.cell_completed("cell-a", "ff" * 32, "ee" * 32, "run")
        path = journal_mod.journal_path(tmp_path, "run-1")
        with open(path, "ab") as handle:
            handle.write(b'{"event":"cell-comp')  # the append in flight at death
        state = journal_mod.replay(path)
        assert state.torn_tail is True
        assert list(state.completed) == ["cell-a"]
        assert state.closed is False

    def test_interior_corruption_raises(self, tmp_path):
        with RunJournal.create(tmp_path, "run-1", _header()) as journal:
            journal.cell_submitted("cell-a")
        path = journal_mod.journal_path(tmp_path, "run-1")
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"\x00garbage\n" + lines[1])
        with pytest.raises(JournalError, match="not the final"):
            journal_mod.replay(path)

    def test_second_run_open_raises(self, tmp_path):
        with RunJournal.create(tmp_path, "run-1", _header()) as journal:
            journal.append("run-open", schema=journal_mod.JOURNAL_SCHEMA)
        with pytest.raises(JournalError, match="second run-open"):
            journal_mod.replay(journal_mod.journal_path(tmp_path, "run-1"))

    def test_wrong_schema_refused(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"event": "run-open", "schema": "repro-journal/0"}) + "\n"
        )
        with pytest.raises(JournalError, match="schema"):
            journal_mod.replay(path)

    def test_empty_and_missing_journals_raise(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(JournalError, match="no complete events"):
            journal_mod.replay(empty)
        with pytest.raises(JournalError, match="cannot read"):
            journal_mod.replay(tmp_path / "missing.jsonl")


class TestFindJournal:
    def test_latest_picks_most_recent(self, tmp_path):
        RunJournal.create(tmp_path, "older", _header()).close()
        RunJournal.create(tmp_path, "newer", _header()).close()
        old = journal_mod.journal_path(tmp_path, "older")
        new = journal_mod.journal_path(tmp_path, "newer")
        os.utime(old, (1000, 1000))
        os.utime(new, (2000, 2000))
        assert journal_mod.find_journal(tmp_path, "latest") == new
        os.utime(old, (3000, 3000))
        assert journal_mod.find_journal(tmp_path, "latest") == old

    def test_literal_id_resolves(self, tmp_path):
        RunJournal.create(tmp_path, "run-1", _header()).close()
        assert journal_mod.find_journal(
            tmp_path, "run-1"
        ) == journal_mod.journal_path(tmp_path, "run-1")

    def test_missing_id_lists_known_runs(self, tmp_path):
        RunJournal.create(tmp_path, "run-1", _header()).close()
        with pytest.raises(ConfigurationError, match="known runs: run-1"):
            journal_mod.find_journal(tmp_path, "run-2")

    def test_nothing_to_resume(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            journal_mod.find_journal(tmp_path, "latest")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.delenv("REPRO_RUN_ID", raising=False)
    faults.reset_plan_cache()
    yield tmp_path
    faults.reset_plan_cache()


def _journal_lines(cache_dir, run_id):
    path = journal_mod.journal_path(cache_dir, run_id)
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def _write_journal(cache_dir, run_id, events, torn_tail=b""):
    """Craft an (interrupted) journal from decoded event dicts."""
    path = journal_mod.journal_path(cache_dir, run_id)
    with open(path, "wb") as handle:
        for event in events:
            handle.write(
                (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
                .encode("utf-8")
            )
        handle.write(torn_tail)
    return path


class TestBenchJournaling:
    def test_fresh_run_journals_and_closes(self, workdir):
        outcome = bench.run_bench(run_id="fresh")
        block = outcome.document["journal"]
        assert block["run_id"] == "fresh"
        assert block["resumed"] is False
        assert block["completed_before"] == 0
        assert block["resimulated"] == outcome.document["totals"]["cells"]
        assert block["torn_tail"] is False

        state = journal_mod.replay(block["path"])
        assert state.closed is True
        assert len(state.completed) == outcome.document["totals"]["cells"]
        assert all(
            record["source"] == "run" for record in state.completed.values()
        )
        validator = _load_validate_journal()
        assert validator.validate(block["path"], require_closed=True) == []
        assert outcome.document["report_sha256"] == GOLDEN_REPORT_SHA

    def test_resume_of_closed_run_is_pure_recovery(self, workdir):
        bench.run_bench(run_id="done")
        outcome = bench.resume_bench("done")
        block = outcome.document["journal"]
        assert block["resumed"] is True
        assert block["resimulated"] == 0
        # the first run completed the grid and the derived cells it
        # planned; the resume serves the grid from cache, plans no input
        assert block["completed_before"] == len(
            cells.input_closure(cells.bench_cells())
        )
        assert outcome.document["totals"]["cells"] == len(cells.bench_cells())
        assert outcome.document["cache"]["misses"] == 0
        assert outcome.document["report_sha256"] == GOLDEN_REPORT_SHA
        # the second pass appended run-resume + run-close to the same file
        state = journal_mod.replay(block["path"])
        assert state.resumes == 1
        assert state.closed is True

    def test_scoreboard_fields_present_and_sane(self, workdir):
        document = bench.run_bench(run_id="score").document
        block = document["resilience"]
        assert block["wall_clock_s"] > 0
        assert block["cells_per_second"] > 0
        assert 0.0 <= block["cache_hit_rate"] <= 1.0

    def test_torn_tail_resume_is_byte_identical(self, workdir):
        bench.run_bench(run_id="base")  # warms the cache, gives real events
        cache_dir = workdir / bench.DEFAULT_CACHE_DIR
        events = _journal_lines(cache_dir, "base")
        header = dict(events[0], run_id="torn")
        completed = [
            event for event in events if event["event"] == "cell-completed"
        ][:3]
        _write_journal(
            cache_dir, "torn", [header] + completed, torn_tail=b'{"event":"cell'
        )
        outcome = bench.resume_bench("torn")
        block = outcome.document["journal"]
        assert block["torn_tail"] is True
        assert block["completed_before"] == 3
        assert outcome.document["report_sha256"] == GOLDEN_REPORT_SHA

    def test_quarantined_entry_is_resimulated_on_resume(self, workdir):
        bench.run_bench(run_id="base")
        cache_dir = workdir / bench.DEFAULT_CACHE_DIR
        events = _journal_lines(cache_dir, "base")
        header = dict(events[0], run_id="poisoned")
        completed = [
            event for event in events if event["event"] == "cell-completed"
        ][:3]
        _write_journal(cache_dir, "poisoned", [header] + completed)
        # rot the cache entry behind one journal-completed cell
        key = completed[0]["key"]
        entry = cache_dir / key[:2] / (key + ".json")
        entry.write_bytes(b"\x00rotten")

        outcome = bench.resume_bench("poisoned")
        assert outcome.document["resilience"]["quarantined"] == 1
        assert outcome.document["report_sha256"] == GOLDEN_REPORT_SHA
        state = journal_mod.replay(
            journal_mod.journal_path(cache_dir, "poisoned")
        )
        assert [event["cell"] for event in state.quarantined] == [
            completed[0]["cell"]
        ]
        # the re-simulated result matched the journal's recorded payload
        assert state.completed[completed[0]["cell"]]["payload_sha256"] == (
            completed[0]["payload_sha256"]
        )

    def test_fingerprint_drift_refuses_resume(self, workdir):
        bench.run_bench(run_id="base")
        cache_dir = workdir / bench.DEFAULT_CACHE_DIR
        events = _journal_lines(cache_dir, "base")
        header = dict(events[0], run_id="drifted", fingerprint="00" * 32)
        _write_journal(cache_dir, "drifted", [header])
        with pytest.raises(JournalError, match="fingerprint drifted"):
            bench.resume_bench("drifted")

    def test_cell_grid_drift_refuses_resume(self, workdir):
        bench.run_bench(run_id="base")
        cache_dir = workdir / bench.DEFAULT_CACHE_DIR
        events = _journal_lines(cache_dir, "base")
        header = dict(events[0], run_id="regrid")
        header["cells"] = header["cells"][:-1]
        _write_journal(cache_dir, "regrid", [header])
        with pytest.raises(JournalError, match="cell grid changed"):
            bench.resume_bench("regrid")


class TestKillAndResume:
    """The acceptance scenario: SIGKILL mid-run, then ``--resume``."""

    @pytest.fixture
    def killed_run(self, workdir):
        """Run bench in a subprocess that ``os._exit(137)``s mid-run."""
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_RUN_ID="killrun",
            REPRO_FAULT_PLAN=json.dumps(
                {
                    "name": "kill-after-breakdown",
                    "faults": [
                        {"cell": "breakdown", "kind": "parent-kill", "times": 1}
                    ],
                }
            ),
        )
        process = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "-o", "killed.json"],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert process.returncode == 137, process.stderr
        assert not (workdir / "killed.json").exists()
        return workdir

    def test_resume_recovers_exactly_the_journaled_prefix(self, killed_run):
        cache_dir = killed_run / bench.DEFAULT_CACHE_DIR
        path = journal_mod.journal_path(cache_dir, "killrun")
        state = journal_mod.replay(path)
        assert state.closed is False
        total = len(state.header["cells"])
        assert 0 < len(state.completed) < total

        # an interrupted journal validates (without --closed)
        validator = _load_validate_journal()
        assert validator.validate(str(path)) == []
        assert validator.validate(str(path), require_closed=True)

        # resume with a *different* worker width than the original run
        outcome = bench.resume_bench("killrun", jobs=2)
        block = outcome.document["journal"]
        assert block["resumed"] is True
        assert block["completed_before"] == len(state.completed)
        assert block["resimulated"] == total - len(state.completed)
        assert outcome.document["report_sha256"] == GOLDEN_REPORT_SHA
        assert outcome.document["jobs"] == 2

        # double-resume: idempotent, everything is recovery now
        again = bench.resume_bench("killrun")
        assert again.document["journal"]["resimulated"] == 0
        assert again.document["report_sha256"] == GOLDEN_REPORT_SHA
        final = journal_mod.replay(path)
        assert final.closed is True
        assert final.resumes == 2
        assert validator.validate(str(path), require_closed=True) == []


class TestResumeCli:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_RUN_ID", raising=False)
        return tmp_path

    def test_resume_conflicts_with_no_cache(self, workdir, capsys):
        from repro.cli import main

        assert main(["bench", "--resume", "--no-cache"]) == 1
        assert "--resume needs the cache" in capsys.readouterr().err

    def test_resume_with_nothing_to_resume_fails_cleanly(self, workdir, capsys):
        from repro.cli import main

        assert main(["bench", "--resume"]) == 1
        assert "nothing to resume" in capsys.readouterr().err

    def test_full_cli_round_trip(self, workdir, capsys):
        from repro.cli import main

        assert main(["bench", "--run-id", "cli-run", "-o", "cold.json"]) == 0
        cold_out = capsys.readouterr().out
        assert main(["bench", "--resume", "cli-run", "-o", "resumed.json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cold_out
        assert "resumed cli-run:" in captured.err

        cold = json.loads((workdir / "cold.json").read_text())
        resumed = json.loads((workdir / "resumed.json").read_text())
        assert resumed["report_sha256"] == cold["report_sha256"]
        assert resumed["journal"]["resumed"] is True
        assert resumed["journal"]["resimulated"] == 0


class TestValidateJournalTool:
    def test_usage_without_args(self, capsys):
        validator = _load_validate_journal()
        assert validator.main([]) == 2

    def test_good_and_bad_files(self, tmp_path, capsys):
        validator = _load_validate_journal()
        with RunJournal.create(tmp_path, "run-1", _header()) as journal:
            journal.cell_completed("cell-a", "ff" * 32, "ee" * 32, "run")
            journal.run_close("cc" * 32, partial=False)
        good = str(journal_mod.journal_path(tmp_path, "run-1"))
        assert validator.main(["--closed", good]) == 0

        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                {
                    "event": "run-open",
                    "schema": journal_mod.JOURNAL_SCHEMA,
                    "run_id": "bad",
                    "fingerprint": "nope",
                    "cells": ["cell-a"],
                    "jobs": 1,
                    "policy": {},
                }
            )
            + "\n"
            + json.dumps({"event": "made-up"})
            + "\n"
            + json.dumps(
                {
                    "event": "cell-completed",
                    "cell": "cell-z",
                    "key": "short",
                    "payload_sha256": "ee" * 32,
                    "source": "telepathy",
                }
            )
            + "\n"
        )
        problems = validator.validate(str(bad))
        assert any("fingerprint" in problem for problem in problems)
        assert any("unknown event" in problem for problem in problems)
        assert any("key=" in problem for problem in problems)
        assert any("source=" in problem for problem in problems)
        assert any("not in the run-open cell list" in problem for problem in problems)
        assert validator.main([str(bad)]) == 1
