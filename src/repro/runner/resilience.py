"""Fault tolerance for the suite runner: policy, failure records, verdicts.

The runner's failure model (DESIGN.md, "Runner failure model") is a
degradation ladder:

1. **retry** — a failed attempt (raised exception, hung/crashed worker,
   corrupt payload) is retried with bounded exponential backoff while
   the cell's charged-failure count stays within ``max_retries``;
2. **degrade** — a cell that exhausts its pool budget is re-executed
   in-process serially (no worker boundary to crash through);
3. **abort or keep going** — only when the serial rung also fails does
   the run abort with a structured :class:`CellFailure` naming the
   cell, every attempt, and every traceback; under ``keep_going`` the
   failure is recorded and the run continues without the cell.

Everything here is deterministic: backoff delays are a pure function of
the charged-failure count, budgets are plain counters, and payload
integrity is a sha256 over the canonical payload JSON — so the chaos
tests can assert exact retry/degradation/quarantine metric counts.
"""

import dataclasses
import hashlib
import json
import os
import warnings

from repro.errors import ConfigurationError, ReproError

#: environment twins of the ``python -m repro bench`` resilience flags
ENV_MAX_RETRIES = "REPRO_MAX_RETRIES"
ENV_CELL_TIMEOUT = "REPRO_CELL_TIMEOUT"
ENV_KEEP_GOING = "REPRO_KEEP_GOING"
ENV_JOBS = "REPRO_JOBS"

#: default charged-failure budget per cell (attempts = budget + 1)
DEFAULT_MAX_RETRIES = 2
#: exponential backoff: ``min(base * factor**failures, max)`` seconds
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_FACTOR = 2.0
DEFAULT_BACKOFF_MAX_S = 2.0

#: exception types that are never worth retrying (a bad platform key
#: will not become valid on attempt two)
NONRETRYABLE_TYPES = ("ConfigurationError",)


def payload_digest(payload):
    """sha256 over the canonical payload JSON (order-preserving).

    Dict insertion order is meaningful (table row order) and survives
    pickling, JSON round-trips, and the cache — so the digest a worker
    computes matches the parent's recomputation unless the payload was
    corrupted in flight or on disk.
    """
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


class CellExecutionError(ReproError):
    """A cell attempt failed; carries the traceback and partial accounting.

    Picklable (workers raise it across the process boundary).  The
    partial engine/cycle counts let the failure report say how far the
    cell got before dying — without them the metrics of a failed cell
    are silently dropped.
    """

    def __init__(
        self,
        cell_id,
        error_type,
        error,
        traceback_text="",
        engines=0,
        simulated_cycles=0,
    ):
        super().__init__("cell %s failed (%s: %s)" % (cell_id, error_type, error))
        self.cell_id = cell_id
        self.error_type = error_type
        self.error = error
        self.traceback_text = traceback_text
        self.engines = engines
        self.simulated_cycles = simulated_cycles

    @property
    def retryable(self):
        return self.error_type not in NONRETRYABLE_TYPES

    def __reduce__(self):
        return (
            type(self),
            (
                self.cell_id,
                self.error_type,
                self.error,
                self.traceback_text,
                self.engines,
                self.simulated_cycles,
            ),
        )


@dataclasses.dataclass
class AttemptFailure:
    """One failed attempt of one cell."""

    attempt: int
    # "exception" | "timeout" | "pool-crash" | "corrupt-payload", or
    # "input-failed": an input failed for good, so the cell never ran
    kind: str
    error: str
    traceback: str = ""
    engines: int = 0
    simulated_cycles: int = 0

    def as_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_execution_error(cls, attempt, exc):
        return cls(
            attempt=attempt,
            kind="exception",
            error="%s: %s" % (exc.error_type, exc.error),
            traceback=exc.traceback_text,
            engines=exc.engines,
            simulated_cycles=exc.simulated_cycles,
        )


@dataclasses.dataclass
class FailedCell:
    """A cell that exhausted the whole degradation ladder."""

    cell_id: str
    kind: str
    params: dict
    attempts: list
    degraded: bool = False

    def as_dict(self):
        return {
            "id": self.cell_id,
            "kind": self.kind,
            "params": self.params,
            "degraded": self.degraded,
            "attempts": [failure.as_dict() for failure in self.attempts],
        }


class CellFailure(ReproError):
    """The structured abort: every failed cell, attempt by attempt."""

    def __init__(self, failed_cells):
        self.failed_cells = list(failed_cells)
        super().__init__(self.report_text())

    def report_text(self):
        lines = ["%d cell(s) failed after exhausting retries:" % len(self.failed_cells)]
        for failed in self.failed_cells:
            lines.append(
                "  %s: %d attempt(s)%s"
                % (
                    failed.cell_id,
                    len(failed.attempts),
                    " (incl. degraded serial rung)" if failed.degraded else "",
                )
            )
            for failure in failed.attempts:
                lines.append(
                    "    attempt %d [%s]: %s (engines=%d, simulated_cycles=%d)"
                    % (
                        failure.attempt,
                        failure.kind,
                        failure.error,
                        failure.engines,
                        failure.simulated_cycles,
                    )
                )
                for tb_line in failure.traceback.rstrip().splitlines():
                    lines.append("      " + tb_line)
        return "\n".join(lines)


@dataclasses.dataclass
class RetryPolicy:
    """How hard the runner fights for each cell before giving up."""

    max_retries: int = DEFAULT_MAX_RETRIES
    cell_timeout_s: float = None  # None: no watchdog deadline
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S
    backoff_factor: float = DEFAULT_BACKOFF_FACTOR
    backoff_max_s: float = DEFAULT_BACKOFF_MAX_S
    keep_going: bool = False

    def backoff_s(self, charged_failures):
        """Deterministic bounded exponential backoff before retry N."""
        if charged_failures <= 0:
            return 0.0
        delay = self.backoff_base_s * (self.backoff_factor ** (charged_failures - 1))
        return min(delay, self.backoff_max_s)

    @classmethod
    def from_env(cls, environ=None, **overrides):
        """Policy from ``REPRO_*`` variables, with explicit overrides."""
        environ = os.environ if environ is None else environ
        policy = cls(
            max_retries=_env_int(environ, ENV_MAX_RETRIES, DEFAULT_MAX_RETRIES, 0),
            cell_timeout_s=_env_float(environ, ENV_CELL_TIMEOUT, None),
            keep_going=_env_flag(environ, ENV_KEEP_GOING),
        )
        for name, value in overrides.items():
            if value is not None:
                setattr(policy, name, value)
        return policy

    def as_dict(self):
        return {
            "max_retries": self.max_retries,
            "cell_timeout_s": self.cell_timeout_s,
            "backoff_base_s": self.backoff_base_s,
            "backoff_factor": self.backoff_factor,
            "backoff_max_s": self.backoff_max_s,
            "keep_going": self.keep_going,
        }


def _env_int(environ, name, default, minimum):
    text = environ.get(name)
    if text is None or text == "":
        return default
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError("%s=%r is not an integer" % (name, text))
    if value < minimum:
        raise ConfigurationError("%s must be >= %d, got %d" % (name, minimum, value))
    return value


def _env_float(environ, name, default):
    text = environ.get(name)
    if text is None or text == "":
        return default
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError("%s=%r is not a number" % (name, text))
    if value <= 0:
        raise ConfigurationError("%s must be > 0, got %r" % (name, value))
    return value


def _env_flag(environ, name):
    return environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


def validate_jobs(jobs):
    """A usable worker-count: int >= 1, or a clear ConfigurationError.

    Accepts the string form (``REPRO_JOBS``), rejects bools, floats,
    zero and negatives — the errors a raw ``ProcessPoolExecutor`` call
    would otherwise surface as opaque tracebacks.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, (int, str)):
        raise ConfigurationError(
            "jobs must be an integer >= 1, got %r (%s)" % (jobs, type(jobs).__name__)
        )
    if isinstance(jobs, str):
        try:
            jobs = int(jobs)
        except ValueError:
            raise ConfigurationError("jobs must be an integer >= 1, got %r" % (jobs,))
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1, got %d" % jobs)
    return jobs


def clamp_workers(jobs, cells_pending):
    """The actual pool width: never wider than the host or the work.

    A request beyond ``os.cpu_count()`` is clamped with a warning —
    oversubscribing spawn-based workers only adds memory pressure and
    scheduler churn.  The *requested* jobs value still decides pool
    vs. in-process execution, so ``--jobs 4`` on a 2-core host runs a
    2-worker pool rather than silently going serial.
    """
    cpus = os.cpu_count() or 1
    workers = min(jobs, cells_pending) if cells_pending else jobs
    if workers > cpus:
        warnings.warn(
            "jobs=%d exceeds os.cpu_count()=%d; clamping worker pool to %d"
            % (jobs, cpus, cpus),
            stacklevel=3,
        )
        workers = cpus
    return max(1, workers)
