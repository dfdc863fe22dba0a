"""``python -m repro bench``: the suite's perf trajectory, measured.

Runs the full bench cell grid (every report cell plus the
oversubscription sweep) through the runner and emits a
``BENCH_suite.json`` artifact: wall time and simulated cycles per cell,
cache hit/miss counts, resilience activity (retries, degradations,
quarantines — see DESIGN.md "Runner failure model"), and the sha256 of
the rendered report so CI can assert a warm-cache rerun reproduced the
suite byte-for-byte without re-simulating anything.

Document schema (``tools/validate_bench.py`` is the CI check):

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "jobs": 4,
      "cache": {"enabled": true, "directory": "...", "hits": 0, "misses": 34},
      "cells": [
        {"id": "micro[key=kvm-arm]", "kind": "micro", "params": {"key": "kvm-arm"},
         "source": "run", "wall_ms": 12.3, "simulated_cycles": 123456,
         "engines": 2, "attempts": 1, "degraded": false}
      ],
      "totals": {"cells": 34, "wall_ms": 900.1, "simulated_cycles": 1234567890},
      "resilience": {
        "policy": {"max_retries": 2, "cell_timeout_s": null, "keep_going": false},
        "retries": 0, "requeues": 0, "timeouts": 0, "pool_crashes": 0,
        "corrupt_payloads": 0, "degraded": 0, "failed": 0, "quarantined": 0,
        "swept_tmp": 0
      },
      "failed_cells": [],
      "report_sha256": "..."
    }

``failed_cells`` is present only when ``--keep-going`` swallowed
failures; the report then carries explicit section-omission markers and
``partial`` is true.
"""

import dataclasses
import hashlib
import json
import os
import time

from repro import constants
from repro.obs import MetricsRegistry
from repro.runner import cells, faults, journal as journal_mod, merge
from repro.runner.cache import ResultCache, model_fingerprint
from repro.runner.journal import JournalError, RunJournal
from repro.runner.pool import RESILIENCE_COUNTERS, run_cells_outcome
from repro.runner.resilience import RetryPolicy

BENCH_SCHEMA = "repro-bench/1"
DEFAULT_CACHE_DIR = constants.BENCH_CACHE_DIR
DEFAULT_DOCUMENT_PATH = constants.BENCH_DOCUMENT_PATH


@dataclasses.dataclass
class BenchOutcome:
    """The rendered report plus the BENCH_suite.json document."""

    report: str
    document: dict

    @property
    def summary(self):
        totals = self.document["totals"]
        cache = self.document["cache"]
        resilience_block = self.document["resilience"]
        text = (
            "bench: %d cells in %.0f ms wall (%d simulated cycles), "
            "cache %s: %d hits / %d misses"
            % (
                totals["cells"],
                totals["wall_ms"],
                totals["simulated_cycles"],
                "on" if cache["enabled"] else "off",
                cache["hits"],
                cache["misses"],
            )
        )
        noisy = {
            name: resilience_block[name]
            for name in (
                "retries",
                "requeues",
                "timeouts",
                "pool_crashes",
                "corrupt_payloads",
                "degraded",
                "failed",
                "quarantined",
            )
            if resilience_block.get(name)
        }
        if noisy:
            text += "; resilience: " + ", ".join(
                "%s=%d" % item for item in sorted(noisy.items())
            )
        return text


def _planned_ids(specs):
    """Every cell a run of ``specs`` may journal: the inputs included."""
    return [spec.id for spec in cells.input_closure(specs)]


def _journal_header(cache, specs, jobs, transactions, policy):
    """The ``run-open`` payload: everything a sound resume must match."""
    return {
        "fingerprint": cache.base_fingerprint(),
        "cells": _planned_ids(specs),
        "jobs": jobs,
        "transactions": transactions,
        "policy": {
            "max_retries": policy.max_retries,
            "cell_timeout_s": policy.cell_timeout_s,
            "keep_going": policy.keep_going,
        },
        "fault_plan": os.environ.get(faults.ENV_VAR) or None,
    }


def run_bench(
    jobs=1,
    cache_dir=DEFAULT_CACHE_DIR,
    use_cache=True,
    transactions=cells.DEFAULT_RR_TRANSACTIONS,
    policy=None,
    run_id=None,
):
    """Run the bench grid; returns a :class:`BenchOutcome`.

    The rendered report is byte-identical to ``suite.full_report()`` —
    the bench grid is a superset of the report cells, and the merge is
    the same code path.  ``policy`` (a
    :class:`~repro.runner.resilience.RetryPolicy`) defaults to the
    ``REPRO_MAX_RETRIES`` / ``REPRO_CELL_TIMEOUT`` / ``REPRO_KEEP_GOING``
    environment; under ``keep_going`` a run with failed cells still
    yields a (partial) report and document with a ``failed_cells``
    section.

    With the cache enabled the run is journaled under
    ``<cache>/journal/<run_id>.jsonl`` (``run_id`` falls back to
    ``REPRO_RUN_ID``, then to a generated id), which is what makes a
    killed run recoverable via :func:`resume_bench`.
    """
    cache = ResultCache(cache_dir) if use_cache else None
    policy = policy if policy is not None else RetryPolicy.from_env()
    metrics = MetricsRegistry()
    specs = cells.bench_cells(transactions)
    journal = None
    if cache is not None:
        if run_id is None:
            run_id = os.environ.get(journal_mod.ENV_RUN_ID) or journal_mod.generate_run_id()
        journal = RunJournal.create(
            cache_dir, run_id, _journal_header(cache, specs, jobs, transactions, policy)
        )
    start = time.perf_counter()
    try:
        outcome = run_cells_outcome(
            specs, jobs=jobs, cache=cache, policy=policy, metrics=metrics,
            journal=journal,
        )
        wall_ms = (time.perf_counter() - start) * 1000.0
        report = merge.full_report_text(
            outcome.results, transactions, partial=bool(outcome.failures)
        )
        document = _build_document(
            outcome, jobs, policy, cache, cache_dir, wall_ms, report
        )
        if journal is not None:
            document["journal"] = {
                "run_id": journal.run_id,
                "path": str(journal.path),
                "resumed": False,
                "completed_before": 0,
                "resimulated": sum(
                    1 for result in outcome.results.values() if result.source == "run"
                ),
                "torn_tail": False,
            }
            journal.run_close(
                document["report_sha256"], bool(outcome.failures)
            )
    finally:
        if journal is not None:
            journal.close()
    return BenchOutcome(report=report, document=document)


def resume_bench(
    run_ref="latest",
    jobs=None,
    cache_dir=DEFAULT_CACHE_DIR,
    policy=None,
):
    """``bench --resume``: pick up an interrupted journaled run.

    Replays the journal, refuses if the model fingerprint or cost
    tables drifted since ``run-open`` (completed cells would no longer
    be trustworthy), re-plans the same cell grid — journal-completed
    cells resolve as verified cache hits, everything else re-simulates —
    and emits a report byte-identical to an uninterrupted run.  ``jobs``
    defaults to the original run's width but may differ (worker fan-out
    cannot change payloads).  Raises
    :class:`~repro.runner.journal.JournalError` on violated invariants
    and ``ConfigurationError`` when there is nothing to resume.
    """
    path = journal_mod.find_journal(cache_dir, run_ref)
    state = journal_mod.replay(path)
    cache = ResultCache(cache_dir)
    live = cache.base_fingerprint()
    recorded = state.header.get("fingerprint")
    if recorded != live:
        raise JournalError(
            "refusing to resume %s: the cache base fingerprint drifted "
            "(journal %s…, live %s…) — the model source or cost tables "
            "changed since run-open, so completed cells are stale; rerun "
            "the bench from scratch" % (state.run_id, (recorded or "")[:12], live[:12])
        )
    transactions = state.header.get("transactions", cells.DEFAULT_RR_TRANSACTIONS)
    specs = cells.bench_cells(transactions)
    planned = _planned_ids(specs)
    if planned != state.header.get("cells"):
        raise JournalError(
            "refusing to resume %s: the bench cell grid changed since "
            "run-open (journal lists %d cells, this build plans %d)"
            % (state.run_id, len(state.header.get("cells") or ()), len(planned))
        )
    if jobs is None:
        jobs = state.header.get("jobs", 1)
    if policy is None:
        header_policy = state.header.get("policy") or {}
        policy = RetryPolicy(
            max_retries=header_policy.get("max_retries", 2),
            cell_timeout_s=header_policy.get("cell_timeout_s"),
            keep_going=header_policy.get("keep_going", False),
        )
    metrics = MetricsRegistry()
    journal = RunJournal.open_existing(path)
    start = time.perf_counter()
    try:
        journal.run_resume(jobs)
        outcome = run_cells_outcome(
            specs, jobs=jobs, cache=cache, policy=policy, metrics=metrics,
            journal=journal,
        )
        for cell_id, record in state.completed.items():
            result = outcome.results.get(cell_id)
            expected = record.get("payload_sha256")
            if result is not None and expected and result.payload_sha256 != expected:
                raise JournalError(
                    "resume invariant violated for cell %s: journal recorded "
                    "payload %s…, resume produced %s… (cache/journal "
                    "disagreement)" % (cell_id, expected[:12], result.payload_sha256[:12])
                )
        wall_ms = (time.perf_counter() - start) * 1000.0
        report = merge.full_report_text(
            outcome.results, transactions, partial=bool(outcome.failures)
        )
        document = _build_document(
            outcome, jobs, policy, cache, cache_dir, wall_ms, report
        )
        document["journal"] = {
            "run_id": journal.run_id,
            "path": str(journal.path),
            "resumed": True,
            "completed_before": len(state.completed),
            "resimulated": sum(
                1 for result in outcome.results.values() if result.source == "run"
            ),
            "torn_tail": state.torn_tail,
        }
        journal.run_close(document["report_sha256"], bool(outcome.failures))
    finally:
        journal.close()
    return BenchOutcome(report=report, document=document)


def _build_document(outcome, jobs, policy, cache, cache_dir, wall_ms, report):
    cell_rows = [
        {
            "id": result.spec.id,
            "kind": result.spec.kind,
            "params": result.spec.params_dict(),
            "source": result.source,
            "wall_ms": result.wall_ms,
            "simulated_cycles": result.simulated_cycles,
            "engines": result.engines,
            "attempts": result.attempts,
            "degraded": result.degraded,
        }
        for result in outcome.results.values()
    ]
    counters = {
        name.rsplit(".", 1)[-1]: outcome.metrics.get(name).value
        for name in RESILIENCE_COUNTERS
    }
    document = {
        "schema": BENCH_SCHEMA,
        "jobs": jobs,
        "model_fingerprint": model_fingerprint(),
        "cache": {
            "enabled": cache is not None,
            "directory": str(cache_dir) if cache is not None else None,
            "hits": cache.hits if cache is not None else 0,
            "misses": cache.misses if cache is not None else 0,
        },
        "cells": cell_rows,
        "totals": {
            "cells": len(cell_rows),
            "wall_ms": wall_ms,
            "simulated_cycles": sum(row["simulated_cycles"] for row in cell_rows),
        },
        "resilience": dict(
            counters,
            policy={
                "max_retries": policy.max_retries,
                "cell_timeout_s": policy.cell_timeout_s,
                "keep_going": policy.keep_going,
            },
            swept_tmp=cache.swept_tmp if cache is not None else 0,
            # scoreboard (ROADMAP item 5): run-level throughput figures
            wall_clock_s=wall_ms / 1000.0,
            cells_per_second=(
                len(cell_rows) / (wall_ms / 1000.0) if wall_ms > 0 else 0.0
            ),
            cache_hit_rate=(
                cache.hits / (cache.hits + cache.misses)
                if cache is not None and (cache.hits + cache.misses)
                else 0.0
            ),
        ),
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }
    if outcome.failures:
        document["partial"] = True
        document["failed_cells"] = [failed.as_dict() for failed in outcome.failures]
    return document


def verify_cache(cache_dir=DEFAULT_CACHE_DIR):
    """``--cache-verify``: re-hash every entry, quarantining mismatches.

    Returns the per-entry report rows from
    :meth:`~repro.runner.cache.ResultCache.verify_entries`.
    """
    return ResultCache(cache_dir).verify_entries()


def write_document(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


#: one-line-per-run scoreboard history (ROADMAP item 5)
HISTORY_SCHEMA = "repro-bench-history/1"


def history_line(document):
    """Distill a bench document into one scoreboard row.

    The row is the committed-history counterpart of the ``resilience``
    scoreboard fields: enough to plot the suite's throughput trajectory
    across runs without carrying per-cell payloads.
    """
    resilience = document["resilience"]
    return {
        "schema": HISTORY_SCHEMA,
        "report_sha256": document["report_sha256"],
        "jobs": document["jobs"],
        "cells": document["totals"]["cells"],
        "wall_clock_s": resilience["wall_clock_s"],
        "cells_per_second": resilience["cells_per_second"],
        "cache_hit_rate": resilience["cache_hit_rate"],
        "partial": bool(document.get("partial", False)),
    }


def append_history(path, document):
    """Append the run's scoreboard line to a JSONL history file."""
    line = history_line(document)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line
