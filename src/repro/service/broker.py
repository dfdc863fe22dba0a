"""The coalescing execution core behind the query server.

One worker thread drains a pending-cell queue in batches through the
resilient runner pool (:func:`repro.runner.pool.run_cells_outcome`);
an in-flight registry maps every queued-or-executing cell id to the
``concurrent.futures.Future`` that will carry its verdict.  Submitting
a cell that is already in flight *coalesces*: the caller joins the
existing future and the cell is simulated exactly once no matter how
many concurrent queries need it — the concurrency tests assert the
counters to the cell.

Futures always resolve to a verdict **tuple**, never an exception:

* ``("ok", CellResult)`` — the cell's verified result (fresh or cached);
* ``("failed", failure_dict)`` — the cell exhausted the runner's whole
  retry/degradation ladder (``FailedCell.as_dict()`` shape).

Resolving with values keeps multi-waiter semantics trivial (no
"exception was never retrieved" warnings, no first-waiter-consumes-it
races) and lets the server translate failures into its stable error
document.  The broker always runs the pool with ``keep_going=True`` so
one poisoned cell cannot abort a batch that carries other queries'
cells.

``hold()`` / ``release()`` are the deterministic test seam: a held
broker queues submissions without executing, so a test can pile up a
coalescing burst, assert the registry state, and then let one batch
run — no sleeps, no timing assumptions.

The worker thread is **supervised**: each spawn gets a generation
number, and an unexpected death (any escaping exception — ``_execute``
already converts cell failures to verdicts, so only genuine worker bugs
or injected chaos reach here) fails every pending future of the dead
generation with a ``worker-death`` verdict — a waiter is *never*
wedged — and respawns a fresh worker, so the broker keeps serving
(``service.worker.deaths`` / ``.respawns`` count the churn).  The
``_boom`` attribute is the chaos seam: the worker raises it after
passing the hold gate, making death deterministic in tests.
"""

import dataclasses
import threading
from collections import OrderedDict
from concurrent.futures import Future

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.runner import pool
from repro.runner.resilience import RetryPolicy

#: every broker-owned instrument (pre-registered so metrics snapshots
#: report explicit zeros and cross-thread get-or-create never races)
BROKER_COUNTERS = (
    "service.cells.requested",
    "service.cells.coalesced",
    "service.cells.simulated",
    "service.cells.cached",
    "service.cells.failed",
    "service.batches",
    "service.worker.deaths",
    "service.worker.respawns",
)


class BrokerClosed(ReproError):
    """Submission after shutdown (the server maps this to 503)."""


class SimulationBroker:
    """Single-worker batching executor with in-flight coalescing."""

    def __init__(self, jobs=1, cache=None, policy=None, metrics=None):
        self.jobs = jobs
        if jobs > 1:
            pool.load_fanout()  # now, not on the first query
        self.cache = cache
        base = policy if policy is not None else RetryPolicy.from_env()
        # keep_going is non-negotiable: a batch mixes unrelated queries'
        # cells, and one cell's exhausted ladder must not abort the rest
        self.policy = dataclasses.replace(base, keep_going=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name in BROKER_COUNTERS:
            self.metrics.counter(name)
        self.metrics.gauge("service.queue.cells")
        self._lock = threading.Lock()
        self._inflight = OrderedDict()  # exec cell id -> (spec, Future)
        self._pending = []  # exec CellSpecs queued for the next batch
        self._wake = threading.Event()
        self._gate = threading.Event()  # cleared = held (test seam)
        self._gate.set()
        self._closed = False
        self._thread = None
        self._generation = 0  # bumps on every worker (re)spawn
        self._boom = None  # chaos seam: raised by the worker post-gate

    # --- submission ------------------------------------------------------

    def submit(self, specs):
        """Enqueue (or join) every cell; returns ``(futures, stats)``.

        ``futures`` maps exec cell id to its verdict future, in request
        order.  ``stats`` reports ``cells`` (unique cells requested),
        ``coalesced`` (joined already-in-flight work), and ``owned``
        (the ids this submission enqueued itself — the caller attributes
        cached-vs-simulated counts over exactly these, so a coalesced
        cell is never double counted).
        """
        futures = OrderedDict()
        owned = []
        coalesced = 0
        with self._lock:
            if self._closed:
                raise BrokerClosed("broker is shutting down")
            for spec in specs:
                if spec.id in futures:
                    continue
                entry = self._inflight.get(spec.id)
                if entry is not None:
                    futures[spec.id] = entry[1]
                    coalesced += 1
                    continue
                future = Future()
                self._inflight[spec.id] = (spec, future)
                self._pending.append(spec)
                futures[spec.id] = future
                owned.append(spec.id)
            queued = len(self._pending)
            self._ensure_thread()
            self._wake.set()
        self.metrics.counter("service.cells.requested").inc(len(futures))
        self.metrics.counter("service.cells.coalesced").inc(coalesced)
        self.metrics.gauge("service.queue.cells").set(queued)
        return futures, {
            "cells": len(futures),
            "coalesced": coalesced,
            "owned": owned,
        }

    def inflight_count(self):
        with self._lock:
            return len(self._inflight)

    # --- the hold/release test seam --------------------------------------

    def hold(self):
        """Park the worker before its next batch (deterministic tests)."""
        self._gate.clear()

    def release(self):
        self._gate.set()

    # --- worker ----------------------------------------------------------

    def _ensure_thread(self):
        # caller holds self._lock
        if self._thread is None or not self._thread.is_alive():
            self._generation += 1
            self._thread = threading.Thread(
                target=self._supervise,
                args=(self._generation,),
                name="repro-service-broker",
                daemon=True,
            )
            self._thread.start()

    def _supervise(self, generation):
        """The thread target: run the loop; on escape, fail-and-respawn."""
        try:
            self._run()
        except BaseException as exc:  # worker bug or injected chaos
            self._on_worker_death(generation, exc)

    def _on_worker_death(self, generation, exc):
        """Fail every future of the dead generation, then respawn.

        The futures registry and pending queue are snapshotted and
        cleared under the lock, so a concurrent submit lands cleanly in
        the *next* generation; the verdicts are resolved outside the
        lock (waiters may run callbacks inline).
        """
        with self._lock:
            if generation != self._generation:
                return  # a stale corpse; a newer worker owns the state
            dead = list(self._inflight.items())
            self._inflight.clear()
            self._pending.clear()
            self._thread = None
            closed = self._closed
        self.metrics.counter("service.worker.deaths").inc()
        self.metrics.gauge("service.queue.cells").set(0)
        for cell_id, (_spec, future) in dead:
            if future.set_running_or_notify_cancel():
                future.set_result(
                    (
                        "failed",
                        {
                            "id": cell_id,
                            "kind": "worker-death",
                            "error": "broker worker died: %s: %s"
                            % (type(exc).__name__, exc),
                        },
                    )
                )
            self.metrics.counter("service.cells.failed").inc()
        if not closed:
            with self._lock:
                if not self._closed:
                    self._ensure_thread()
                    self.metrics.counter("service.worker.respawns").inc()

    def _run(self):
        while True:
            self._wake.wait()
            self._gate.wait()
            boom = self._boom
            if boom is not None:
                self._boom = None
                raise boom
            with self._lock:
                batch = list(self._pending)
                self._pending.clear()
                if not batch:
                    if self._closed:
                        return
                    self._wake.clear()
            if batch:
                self.metrics.gauge("service.queue.cells").set(0)
                self._execute(batch)

    def _execute(self, batch):
        self.metrics.counter("service.batches").inc()
        verdicts = {}
        try:
            outcome = pool.run_cells_outcome(
                batch,
                jobs=self.jobs,
                cache=self.cache,
                policy=self.policy,
                metrics=self.metrics,
            )
        except Exception as exc:  # defensive: keep_going should prevent this
            failure = {
                "id": None,
                "error": "%s: %s" % (type(exc).__name__, exc),
            }
            for spec in batch:
                verdicts[spec.id] = ("failed", dict(failure, id=spec.id))
                self.metrics.counter("service.cells.failed").inc()
        else:
            failed_by_id = {failed.cell_id: failed for failed in outcome.failures}
            for spec in batch:
                result = outcome.results.get(spec.id)
                if result is not None:
                    verdicts[spec.id] = ("ok", result)
                    if result.source == "cache":
                        self.metrics.counter("service.cells.cached").inc()
                    else:
                        self.metrics.counter("service.cells.simulated").inc()
                    continue
                failed = failed_by_id.get(spec.id)
                document = (
                    failed.as_dict()
                    if failed is not None
                    else {"id": spec.id, "error": "result missing from outcome"}
                )
                verdicts[spec.id] = ("failed", document)
                self.metrics.counter("service.cells.failed").inc()
        with self._lock:
            entries = [
                (cell_id, self._inflight.pop(cell_id))
                for cell_id in verdicts
                if cell_id in self._inflight
            ]
        for cell_id, (_spec, future) in entries:
            # a waiter that vanished (server shutdown cancels wrapped
            # futures) must not kill the worker thread; the transition
            # to RUNNING also makes late cancellations lose the race
            if future.set_running_or_notify_cancel():
                future.set_result(verdicts[cell_id])

    # --- shutdown ---------------------------------------------------------

    def close(self, timeout=30.0):
        """Drain pending work, stop the worker, refuse new submissions."""
        with self._lock:
            self._closed = True
            thread = self._thread
        self._gate.set()
        self._wake.set()
        if thread is not None:
            # repro-lint: ignore[CON001] — close() is the shutdown path,
            # called from the owning thread (ServerHandle.close / tests /
            # run_forever's finally), never from the event loop; the loop
            # context is the fuzzy `close` collision with the asyncio
            # stream writer's close() in ServiceServer._handle.
            thread.join(timeout)
