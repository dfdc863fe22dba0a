"""Cell execution: in-process, fanned out across workers, or from cache.

Cells are deterministic functions of their spec and their inputs' payloads
(see :mod:`repro.runner.cells`), so workers need no shared state and no
communication beyond (spec and input payloads in, payload out).  The
planner resolves the requested cells against the cache and expands the
inputs of each miss, in topological order; a consumer runs only after
all its inputs are accepted, and a consumer whose input failed for good
is finalized without running (attempt kind ``input-failed``).
``run_cells`` always returns results keyed and ordered by the *request*
order (followed by the inputs planned for them), never by completion
order — the deterministic-merge guarantee the differential tests hold
the runner to.

Workers are spawned (not forked) so every cell simulates from a fresh
interpreter with no inherited module state; a cell's payload therefore
cannot depend on which process ran it (tests/test_runner_workers.py
asserts exactly this, per cell).

**Failure model** (DESIGN.md "Runner failure model"): the scheduler
assumes workers can raise, hang, or die.  Every attempt is integrity-
checked (payload sha256); a failed attempt is retried with bounded
exponential backoff under a per-cell charged-failure budget
(``RetryPolicy.max_retries``); a hung worker is detected by a per-cell
deadline (``cell_timeout_s``) and its pool is torn down and rebuilt; a
hard worker exit (``BrokenProcessPool``) requeues every unfinished cell
into a fresh pool without charging their budgets.  A cell that exhausts
its budget degrades to one in-process serial execution, and only if
that also fails does the run abort with a structured
:class:`~repro.runner.resilience.CellFailure` — or, under
``keep_going``, record the failure and continue without the cell.

Per-cell accounting goes through a :class:`repro.obs.MetricsRegistry`:
``runner.cell.engines`` and ``runner.cell.simulated_cycles`` count the
discrete-event engines a cell built and the cycles they simulated (via
``Engine.created_hook``) — recorded even for *failed* attempts, so a
crash report still says how far the cell got — and
``runner.cell.wall_ms`` is host wall time, the one place in the tree
where a wall clock is legitimate, because it measures the *runner*,
never the model.  Resilience activity is counted run-wide:
``runner.cell.retries`` / ``.requeues`` / ``.timeouts`` /
``.pool_crashes`` / ``.corrupt_payloads`` / ``.degraded`` / ``.failed``
and ``runner.cache.quarantined``.
"""

import dataclasses
import json
import threading
import time
import traceback
from collections import OrderedDict

from repro.obs import MetricsRegistry
from repro.runner import cells, faults, resilience
from repro.runner.resilience import (
    AttemptFailure,
    CellExecutionError,
    FailedCell,
    RetryPolicy,
)
from repro.sim.engine import Engine

#: scheduler poll interval: deadline checks and backoff wakeups
_TICK_S = 0.05

#: every resilience counter the runner maintains (pre-registered so a
#: clean run still reports explicit zeros)
RESILIENCE_COUNTERS = (
    "runner.cell.retries",
    "runner.cell.requeues",
    "runner.cell.timeouts",
    "runner.cell.pool_crashes",
    "runner.cell.corrupt_payloads",
    "runner.cell.degraded",
    "runner.cell.failed",
    "runner.cache.quarantined",
    "runner.cache.write_error",
)

# test seam: backoff sleeps route through here.  A suppression on the
# alias definition waives every call routed through the seam.
# repro-lint: ignore[CON] — retry backoff in the serial fallback runs on
# the submitting thread by design; workers are separate processes.
_sleep = time.sleep

#: serializes in-process cell execution across threads.  Cells were
#: designed to run one-per-process (the pool spawns workers), but the
#: service broker executes batches on its own thread while other code
#: (tests, a --direct CLI query) may run cells on the main thread; the
#: ``Engine.created_hook`` accounting seam is process-global, so two
#: concurrent in-process executions would cross-record their engines.
_EXECUTE_LOCK = threading.Lock()


@dataclasses.dataclass
class CellResult:
    """One cell's payload plus where it came from and what it cost."""

    spec: cells.CellSpec
    payload: object
    wall_ms: float
    simulated_cycles: int
    engines: int
    source: str  # "run" | "cache"
    payload_sha256: str = ""
    attempts: int = 1
    degraded: bool = False


@dataclasses.dataclass
class RunOutcome:
    """Everything one ``run_cells_outcome`` call produced.

    ``results`` holds the successful cells in request order (all of
    them, unless ``keep_going`` swallowed failures); ``failures`` the
    cells that exhausted the degradation ladder; ``metrics`` the
    run-wide resilience counters.
    """

    results: "OrderedDict"
    failures: list
    metrics: MetricsRegistry


def execute_cell(spec, attempt=0, inputs=()):
    """Run one cell in this process, with engine/wall accounting.

    ``inputs`` holds the payloads of ``cells.inputs_of(spec)``.

    On failure, raises a picklable
    :class:`~repro.runner.resilience.CellExecutionError` carrying the
    traceback *and* the partial engine/cycle counts accumulated before
    the error — the hook is restored either way.
    """
    created = []
    with _EXECUTE_LOCK:
        previous_hook = Engine.created_hook
        Engine.created_hook = created.append
        start = time.perf_counter()
        try:
            payload = cells.run_cell(spec, attempt, inputs)
        except Exception as exc:
            raise CellExecutionError(
                spec.id,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                engines=len(created),
                simulated_cycles=sum(engine.now for engine in created),
            ) from exc
        finally:
            Engine.created_hook = previous_hook
    metrics = MetricsRegistry()
    metrics.counter("runner.cell.engines").inc(len(created))
    metrics.counter("runner.cell.simulated_cycles").inc(
        sum(engine.now for engine in created)
    )
    metrics.gauge("runner.cell.wall_ms").set((time.perf_counter() - start) * 1000.0)
    # Round-trip through JSON so a freshly simulated payload is
    # structurally identical to one loaded from the cache.
    payload = json.loads(json.dumps(payload))
    result = CellResult(
        spec=spec,
        payload=payload,
        wall_ms=metrics.get("runner.cell.wall_ms").value,
        simulated_cycles=metrics.get("runner.cell.simulated_cycles").value,
        engines=metrics.get("runner.cell.engines").value,
        source="run",
        payload_sha256=resilience.payload_digest(payload),
    )
    if faults.corrupts_payload(spec.id, attempt):
        # chaos hook: scribble *after* the digest so the parent's
        # verification must catch it (mimics bit-rot in flight)
        result.payload = {"__corrupted_by_fault_plan__": attempt}
    return result


def _from_cache(spec, entry):
    stats = entry["stats"]
    return CellResult(
        spec=spec,
        payload=entry["payload"],
        wall_ms=0.0,  # a hit costs no simulation time
        simulated_cycles=stats.get("simulated_cycles", 0),
        engines=stats.get("engines", 0),
        source="cache",
        payload_sha256=entry.get("payload_sha256", ""),
    )


def _verified(result):
    """True if the payload still matches the digest computed at run time."""
    return result.payload_sha256 == resilience.payload_digest(result.payload)


class _CellState:
    """Per-cell scheduler bookkeeping across retries and requeues."""

    __slots__ = ("spec", "inputs", "submissions", "charged", "history")

    def __init__(self, spec):
        self.spec = spec
        self.inputs = ()  # the input payloads, set once all are accepted
        self.submissions = 0  # attempt indices consumed (drives fault plans)
        self.charged = 0  # failures charged against the retry budget
        self.history = []  # AttemptFailure records, in order


def _input_payloads(spec, results):
    return tuple(results[source.id].payload for source in cells.inputs_of(spec))


def _failed_input(spec, failures):
    """The id of an input of ``spec`` that failed for good, or None."""
    failed = {failed.cell_id for failed in failures}
    for source in cells.inputs_of(spec):
        if source.id in failed:
            return source.id
    return None


def _fail_on_input(spec, input_id, policy, metrics, failures):
    """Finalize a consumer whose input failed, without running it."""
    state = _CellState(spec)
    state.history.append(
        AttemptFailure(
            attempt=0, kind="input-failed", error="input %s failed" % input_id
        )
    )
    _finalize_failure(state, policy, metrics, failures, degraded=False)


def _corrupt_failure(state, result):
    return AttemptFailure(
        attempt=state.submissions - 1,
        kind="corrupt-payload",
        error="payload hash mismatch (recorded %s)" % (result.payload_sha256[:12],),
        engines=result.engines,
        simulated_cycles=result.simulated_cycles,
    )


def _finalize_failure(state, policy, metrics, failures, degraded):
    """Last rung: record (keep_going) or abort with the structured report."""
    failed = FailedCell(
        cell_id=state.spec.id,
        kind=state.spec.kind,
        params=state.spec.params_dict(),
        attempts=list(state.history),
        degraded=degraded,
    )
    metrics.counter("runner.cell.failed").inc()
    if policy.keep_going:
        failures.append(failed)
        return
    raise resilience.CellFailure([failed])


def _attempt_inprocess(state):
    """One in-process attempt.  Returns (result|None, failure|None, retryable)."""
    index = state.submissions
    state.submissions += 1
    try:
        result = execute_cell(state.spec, index, state.inputs)
    except CellExecutionError as exc:
        return None, AttemptFailure.from_execution_error(index, exc), exc.retryable
    if not _verified(result):
        return None, _corrupt_failure(state, result), True
    return result, None, True


def _degrade_serial(state, policy, metrics, accept, failures):
    """Pool budget exhausted: one in-process execution, then the abyss."""
    metrics.counter("runner.cell.degraded").inc()
    result, failure, _retryable = _attempt_inprocess(state)
    if result is not None:
        result.attempts = state.submissions
        result.degraded = True
        accept(result)
        return
    if failure.kind == "corrupt-payload":
        metrics.counter("runner.cell.corrupt_payloads").inc()
    state.history.append(failure)
    _finalize_failure(state, policy, metrics, failures, degraded=True)


def _run_serial(pending, policy, metrics, accept, results, failures):
    """The ``jobs=1`` path: retry loop, no worker boundary, no watchdog.

    ``pending`` is in topological order, so every input has settled
    before its consumer comes up.
    """
    for spec in pending:
        input_id = _failed_input(spec, failures)
        if input_id is not None:
            _fail_on_input(spec, input_id, policy, metrics, failures)
            continue
        state = _CellState(spec)
        state.inputs = _input_payloads(spec, results)
        while True:
            result, failure, retryable = _attempt_inprocess(state)
            if result is not None:
                result.attempts = state.submissions
                accept(result)
                break
            if failure.kind == "corrupt-payload":
                metrics.counter("runner.cell.corrupt_payloads").inc()
            state.history.append(failure)
            state.charged += 1
            if retryable and state.charged <= policy.max_retries:
                metrics.counter("runner.cell.retries").inc()
                _sleep(policy.backoff_s(state.charged))
                continue
            _finalize_failure(state, policy, metrics, failures, degraded=False)
            break


def load_fanout():
    """Import what a ``jobs > 1`` fan-out needs; returns the modules.

    A serial run never calls this, so it never loads ``multiprocessing``.
    A server with ``jobs > 1`` calls it before it reports ready, so its
    first query pays no import.
    """
    import multiprocessing
    from concurrent import futures
    from concurrent.futures.process import BrokenProcessPool

    return multiprocessing, futures, BrokenProcessPool


def _run_parallel(pending, jobs, policy, metrics, accept, results, failures):
    """The fan-out path: watchdogged pool with retry/requeue/degrade.

    A cell waits until all its inputs are accepted; only then is it
    ready for submission, carrying their payloads to the worker.
    """
    multiprocessing, futures, BrokenProcessPool = load_fanout()
    context = multiprocessing.get_context("spawn")
    max_workers = resilience.clamp_workers(jobs, len(pending))
    states = {spec.id: _CellState(spec) for spec in pending}
    waiting = list(pending)  # in topological order
    ready = []
    delayed = []  # [(monotonic ready_at, spec), ...] — backoff parking lot
    inflight = {}  # future -> (spec, monotonic deadline or None)
    pool = None

    def promote():
        """Ready every waiting cell whose inputs are all accepted; finalize
        every one with a failed input.  One pass suffices: a consumer
        comes after its inputs in ``waiting``."""
        still = []
        for spec in waiting:
            input_id = _failed_input(spec, failures)
            if input_id is not None:
                _fail_on_input(spec, input_id, policy, metrics, failures)
            elif all(source.id in results for source in cells.inputs_of(spec)):
                states[spec.id].inputs = _input_payloads(spec, results)
                ready.append(spec)
            else:
                still.append(spec)
        waiting[:] = still

    def charge_and_route(state, failure, retryable):
        state.history.append(failure)
        state.charged += 1
        if retryable and state.charged <= policy.max_retries:
            metrics.counter("runner.cell.retries").inc()
            delay = policy.backoff_s(state.charged)
            delayed.append((time.monotonic() + delay, state.spec))
        else:
            _degrade_serial(state, policy, metrics, accept, failures)

    def requeue_uncharged(state, why):
        """Collateral damage (pool crash/restart): retry free of charge."""
        state.history.append(
            AttemptFailure(
                attempt=state.submissions - 1, kind="pool-crash", error=why
            )
        )
        metrics.counter("runner.cell.requeues").inc()
        ready.append(state.spec)

    def nuke_pool():
        """Kill every worker (hung or orphaned) and drop the executor."""
        nonlocal pool
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None

    try:
        while True:
            promote()
            if not (ready or delayed or inflight):
                break
            now = time.monotonic()
            if delayed:
                due = [item for item in delayed if item[0] <= now]
                if due:
                    delayed[:] = [item for item in delayed if item[0] > now]
                    ready.extend(spec for _at, spec in due)
            # Submit only up to the pool width: a queued-but-unstarted
            # cell must not burn its execution deadline waiting for a
            # slot (false timeouts on narrow hosts).
            while ready and len(inflight) < max_workers:
                if pool is None:
                    pool = futures.ProcessPoolExecutor(
                        max_workers=max_workers,
                        mp_context=context,
                        initializer=faults.mark_worker_process,
                    )
                spec = ready.pop(0)
                state = states[spec.id]
                try:
                    future = pool.submit(
                        execute_cell, spec, state.submissions, state.inputs
                    )
                except BrokenProcessPool:
                    # broken between completions; recycle and resubmit
                    if not inflight:
                        metrics.counter("runner.cell.pool_crashes").inc()
                    ready.insert(0, spec)
                    nuke_pool()
                    break
                state.submissions += 1
                deadline = (
                    now + policy.cell_timeout_s if policy.cell_timeout_s else None
                )
                inflight[future] = (spec, deadline)

            if not inflight:
                if delayed:
                    next_at = min(at for at, _spec in delayed)
                    _sleep(max(0.0, min(next_at - time.monotonic(), _TICK_S)))
                continue

            done, _not_done = futures.wait(
                list(inflight), timeout=_TICK_S, return_when=futures.FIRST_COMPLETED
            )
            broken = False
            for future in done:
                spec, _deadline = inflight.pop(future)
                state = states[spec.id]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    requeue_uncharged(
                        state, "worker hard exit broke the process pool"
                    )
                except CellExecutionError as exc:
                    charge_and_route(
                        state,
                        AttemptFailure.from_execution_error(
                            state.submissions - 1, exc
                        ),
                        exc.retryable,
                    )
                except Exception as exc:  # unpicklable payloads et al.
                    charge_and_route(
                        state,
                        AttemptFailure(
                            attempt=state.submissions - 1,
                            kind="exception",
                            error="%s: %s" % (type(exc).__name__, exc),
                        ),
                        True,
                    )
                else:
                    if _verified(result):
                        result.attempts = state.submissions
                        accept(result)
                    else:
                        metrics.counter("runner.cell.corrupt_payloads").inc()
                        charge_and_route(
                            state, _corrupt_failure(state, result), True
                        )
            if broken:
                metrics.counter("runner.cell.pool_crashes").inc()
                for _future, (spec, _deadline) in list(inflight.items()):
                    requeue_uncharged(
                        states[spec.id],
                        "requeued: sibling worker crash broke the pool",
                    )
                inflight.clear()
                nuke_pool()
                continue

            if policy.cell_timeout_s:
                now = time.monotonic()
                overdue = [
                    (future, spec)
                    for future, (spec, deadline) in inflight.items()
                    if deadline is not None and deadline < now and not future.done()
                ]
                if overdue:
                    # Hung worker(s): the only portable cure is to kill
                    # the whole pool; innocents are requeued uncharged.
                    metrics.counter("runner.cell.timeouts").inc(len(overdue))
                    overdue_ids = {spec.id for _future, spec in overdue}
                    survivors = [
                        spec
                        for _future, (spec, _dl) in inflight.items()
                        if spec.id not in overdue_ids
                    ]
                    inflight.clear()
                    nuke_pool()
                    for spec in survivors:
                        requeue_uncharged(
                            states[spec.id],
                            "requeued: pool restarted to kill a hung worker",
                        )
                    for _future, spec in overdue:
                        charge_and_route(
                            states[spec.id],
                            AttemptFailure(
                                attempt=states[spec.id].submissions - 1,
                                kind="timeout",
                                error="cell exceeded cell-timeout %.3fs "
                                "(hung worker killed)" % policy.cell_timeout_s,
                            ),
                            True,
                        )
    finally:
        if pool is not None:
            if inflight:  # erroring out mid-run: don't wait on stuck workers
                nuke_pool()
            else:
                pool.shutdown(wait=True, cancel_futures=True)


def run_cells_outcome(specs, jobs=1, cache=None, policy=None, metrics=None, journal=None):
    """Execute a cell list under a retry policy; returns :class:`RunOutcome`.

    ``jobs=1`` runs everything in-process (no subprocess overhead — the
    default path ``suite.full_report()`` takes); ``jobs>1`` fans cache
    misses out over spawned worker processes (width clamped to the
    host's cores).  Only a cache miss has its inputs planned
    (``cells.input_closure``), so a fully cached run looks up nothing
    else.  The result dict is always in (deduplicated) request order,
    followed by the planned inputs in plan order, regardless of which
    worker finished first.

    With a ``journal`` (an open :class:`repro.runner.journal.RunJournal`;
    requires a ``cache``), every cell's fate is appended write-ahead:
    hits resolved at planning time and fresh results in ``accept`` both
    land as ``cell-completed`` lines *before* the run proceeds past
    them, so ``bench --resume`` after a hard kill trusts exactly the
    cells whose completion made it to disk.
    """
    jobs = resilience.validate_jobs(jobs)
    policy = policy if policy is not None else RetryPolicy.from_env()
    metrics = metrics if metrics is not None else MetricsRegistry()
    for name in RESILIENCE_COUNTERS:
        metrics.counter(name)
    ordered = cells.dedupe(specs)
    results = {}
    failures = []
    keys = {}
    quarantined_before = cache.quarantined if cache is not None else 0
    write_errors_before = cache.write_errors if cache is not None else 0
    if cache is not None:
        base = cache.base_fingerprint()

        def resolved(spec):
            """Look ``spec`` up; a hit lands in ``results``."""
            key = keys[spec.id] = cache.key_for(spec, base)
            quarantined_mark = cache.quarantined
            entry = cache.load(key)
            if entry is None:
                if journal is not None and cache.quarantined > quarantined_mark:
                    # a journal-referenced (or just stale) entry failed
                    # verification: record the incident, then re-run
                    journal.cell_quarantined(spec.id, key)
                return False
            results[spec.id] = _from_cache(spec, entry)
            if journal is not None:
                journal.cell_completed(
                    spec.id, key, results[spec.id].payload_sha256, "cache"
                )
            return True

        planned = cells.input_closure(ordered, resolved)
    else:
        planned = cells.input_closure(ordered)
    pending = [spec for spec in planned if spec.id not in results]
    if journal is not None:
        for spec in pending:
            journal.cell_submitted(spec.id)

    def accept(result):
        """A verified result: record it and persist it immediately —
        never after the run, so a later failure cannot lose it."""
        results[result.spec.id] = result
        if cache is not None:
            cache.store(keys[result.spec.id], result)
        if journal is not None:
            journal.cell_completed(
                result.spec.id,
                keys.get(result.spec.id),
                result.payload_sha256,
                "run",
            )
            # chaos hook: die *here*, right after the completion line is
            # durable — the strongest point the journal promises to hold
            faults.maybe_parent_kill(result.spec.id)

    try:
        if pending:
            if jobs > 1:
                _run_parallel(
                    pending, jobs, policy, metrics, accept, results, failures
                )
            else:
                _run_serial(pending, policy, metrics, accept, results, failures)
    except resilience.CellFailure as exc:
        if journal is not None:
            for failed in exc.failed_cells:
                journal.cell_failed(
                    failed.cell_id,
                    failed.attempts[-1].kind if failed.attempts else "unknown",
                    failed.attempts[-1].error if failed.attempts else "",
                )
        raise
    if journal is not None:
        for failed in failures:
            journal.cell_failed(
                failed.cell_id,
                failed.attempts[-1].kind if failed.attempts else "unknown",
                failed.attempts[-1].error if failed.attempts else "",
            )
    if cache is not None:
        metrics.counter("runner.cache.quarantined").inc(
            cache.quarantined - quarantined_before
        )
        metrics.counter("runner.cache.write_error").inc(
            cache.write_errors - write_errors_before
        )
    requested = set(ordered)
    order = ordered + [spec for spec in planned if spec not in requested]
    return RunOutcome(
        results=OrderedDict(
            (spec.id, results[spec.id]) for spec in order if spec.id in results
        ),
        failures=failures,
        metrics=metrics,
    )


def run_cells(specs, jobs=1, cache=None, policy=None, metrics=None):
    """Back-compat wrapper: just the request-ordered result map."""
    return run_cells_outcome(
        specs, jobs=jobs, cache=cache, policy=policy, metrics=metrics
    ).results
