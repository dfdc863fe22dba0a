"""Parallel sharded suite execution with content-addressed caching.

The runner decomposes the full evaluation suite into *cells*
(:mod:`repro.runner.cells`; a consumer cell reads the payloads of the
cells it consumes), executes them — in-process, across
spawned worker processes, or straight out of an on-disk cache
(:mod:`repro.runner.pool`, :mod:`repro.runner.cache`) — and
deterministically merges the payloads back into the exact shapes and
bytes the serial suite always produced (:mod:`repro.runner.merge`).

The execution layer is fault tolerant (:mod:`repro.runner.resilience`):
failed, hung, or crashed workers are retried with bounded exponential
backoff under a per-cell budget, exhausted cells degrade to in-process
serial execution, corrupt payloads and poisoned cache entries are
detected by sha256 verification and quarantined, and only a cell that
fails the whole ladder aborts the run (or is recorded and skipped under
``keep_going``).  :mod:`repro.runner.faults` injects deterministic
chaos — crash/hang/corrupt/poison per cell per attempt — when
``REPRO_FAULT_PLAN`` is set, so all of the above is provable in tests
without real flakiness.

``repro.core.suite`` routes every ``*_report``/``*_data`` entry point
through here, so callers get sharding, deduplication (Table II and the
VHE comparison share their KVM ARM cells), caching and fault tolerance
for free.  The default plan is serial and uncached; it can be widened
per call or via environment:

* ``REPRO_JOBS=N`` — fan cells out over N worker processes;
* ``REPRO_CACHE_DIR=PATH`` — reuse cached cell results keyed by the
  model fingerprint, live cost tables, and cell parameters;
* ``REPRO_MAX_RETRIES`` / ``REPRO_CELL_TIMEOUT`` / ``REPRO_KEEP_GOING``
  — the retry policy (see :class:`repro.runner.resilience.RetryPolicy`).

``python -m repro bench`` (:mod:`repro.runner.bench`) runs the full
grid plus the oversubscription sweep and emits ``BENCH_suite.json``.
"""

import dataclasses
import os

from repro.lazy import lazy_attributes
from repro.runner import resilience

# loaded on first use: ``repro.runner.faults`` or ``.journal`` alone
# needs no simulator, and a serial run never loads the cache or bench
__getattr__ = lazy_attributes(
    __name__,
    {
        "COSTS_PARAM": "cells",
        "CellExecutionError": "resilience",
        "CellFailure": "resilience",
        "CellResult": "pool",
        "CellSpec": "cells",
        "FailedCell": "resilience",
        "ResultCache": "cache",
        "RetryPolicy": "resilience",
        "RunOutcome": "pool",
        "execute_cell": "pool",
        "run_cells": "pool",
        "run_cells_outcome": "pool",
        "strip_cost_overrides": "cells",
        "with_cost_overrides": "cells",
        "bench": None,
        "cache": None,
        "cells": None,
        "faults": None,
        "journal": None,
        "merge": None,
        "pool": None,
    },
)


@dataclasses.dataclass
class Plan:
    """How to execute a cell list: worker count and cache location."""

    jobs: int = 1
    cache_dir: str = None


def default_plan():
    """The environment-configured plan (serial, uncached by default).

    ``REPRO_JOBS`` is validated here — a garbage value raises a clear
    :class:`~repro.errors.ConfigurationError` instead of surfacing as a
    ``ProcessPoolExecutor`` traceback deep in the pool.
    """
    return Plan(
        jobs=resilience.validate_jobs(os.environ.get(resilience.ENV_JOBS, "1")),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    )


def run_plan(specs, jobs=None, cache_dir=None, policy=None):
    """Run cells under the given (or environment-default) plan."""
    plan = default_plan()
    if jobs is None:
        jobs = plan.jobs
    if cache_dir is None:
        cache_dir = plan.cache_dir
    from repro.runner import pool

    result_cache = None
    if cache_dir:
        from repro.runner.cache import ResultCache

        result_cache = ResultCache(cache_dir)
    return pool.run_cells(specs, jobs=jobs, cache=result_cache, policy=policy)


__all__ = [
    "COSTS_PARAM",
    "CellExecutionError",
    "CellFailure",
    "CellResult",
    "CellSpec",
    "FailedCell",
    "Plan",
    "ResultCache",
    "RetryPolicy",
    "RunOutcome",
    "bench",
    "cache",
    "cells",
    "default_plan",
    "execute_cell",
    "faults",
    "merge",
    "pool",
    "resilience",
    "run_cells",
    "run_cells_outcome",
    "run_plan",
    "strip_cost_overrides",
    "with_cost_overrides",
]
