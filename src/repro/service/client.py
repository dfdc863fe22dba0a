"""Service clients: sync (``http.client``) and async (asyncio streams).

The sync client backs ``python -m repro query`` and thread-based tests;
the async client lets one thread hold many concurrent queries open —
the shape the coalescing burst tests and the loadgen need.  Both raise
:class:`ServiceError` for any non-ok response, carrying the server's
stable error document verbatim.

**Retry discipline** (the ``query`` helper only — ``request`` and
``query_raw`` are always single-attempt, so tests can count exact
server-side rejects): queries are idempotent by construction (the
simulation is deterministic and results are content-addressed), so a
connection reset or a 503 shed (``overloaded`` during a burst,
``shutting-down`` during a drain) is retried up to
:class:`RetryConfig.retries` times with bounded exponential backoff.
The 503 path honors the server's advised ``retry_after``; the jitter is
a deterministic hash of (pid, attempt), so two client processes
desynchronize without any wall-clock or RNG entropy.  ``retries=0``
(the ``--no-retry`` flag / ``REPRO_CLIENT_RETRIES=0``) restores strict
single-attempt behavior.
"""

import dataclasses
import hashlib
import http.client
import json
import os
import time

from repro.errors import ConfigurationError, ReproError
from repro.service import protocol

#: attempts after the first (``REPRO_CLIENT_RETRIES`` overrides)
DEFAULT_RETRIES = 2
ENV_RETRIES = "REPRO_CLIENT_RETRIES"

#: the 503 codes a retry can help with (anything else is the caller's)
RETRYABLE_CODES = (protocol.OVERLOADED, protocol.SHUTTING_DOWN)


class ServiceError(ReproError):
    """A non-ok service response; carries the full error document."""

    def __init__(self, status, document):
        error = (document or {}).get("error") or {}
        self.status = status
        self.document = document or {}
        self.code = error.get("code", protocol.INTERNAL)
        super().__init__(
            "service error %s (HTTP %d): %s"
            % (self.code, status, error.get("message", "no message"))
        )


def _default_port():
    text = os.environ.get("REPRO_SERVE_PORT")
    return int(text) if text else protocol.DEFAULT_PORT


@dataclasses.dataclass
class RetryConfig:
    """Bounded, jittered retry for idempotent queries."""

    retries: int = DEFAULT_RETRIES
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0

    @classmethod
    def from_env(cls, environ=None, **overrides):
        environ = os.environ if environ is None else environ
        text = environ.get(ENV_RETRIES)
        retries = DEFAULT_RETRIES
        if text:
            try:
                retries = int(text)
            except ValueError:
                raise ConfigurationError(
                    "%s=%r is not an integer" % (ENV_RETRIES, text)
                )
            if retries < 0:
                raise ConfigurationError("%s must be >= 0" % ENV_RETRIES)
        config = cls(retries=retries)
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        return config

    def backoff_s(self, attempt):
        """Deterministically jittered bounded exponential backoff.

        The jitter fraction lies in [0.5, 1.0) and is a hash of
        (pid, attempt) — stable within a process (testable), different
        across processes (no retry stampede after a mass shed).
        """
        delay = min(
            self.backoff_base_s * (self.backoff_factor ** attempt),
            self.backoff_max_s,
        )
        seed = hashlib.sha256(
            ("%d:%d" % (os.getpid(), attempt)).encode("utf-8")
        ).digest()
        return delay * (0.5 + (seed[0] / 256.0) * 0.5)

    def retry_delay(self, attempt, document):
        """The wait before retry ``attempt``, honoring ``retry_after``.

        Returns None when this response must not be retried (wrong
        code, or the budget is spent).
        """
        if attempt >= self.retries:
            return None
        error = (document or {}).get("error") or {}
        if error.get("code") not in RETRYABLE_CODES:
            return None
        retry_after = error.get("retry_after")
        if retry_after is not None:
            try:
                return float(retry_after)
            except (TypeError, ValueError):
                pass
        return self.backoff_s(attempt)


def _query_payload(target, params, costs, budget_cells, deadline_ms):
    payload = {"target": target}
    if params:
        payload["params"] = params
    if costs:
        payload["costs"] = costs
    if budget_cells is not None:
        payload["budget_cells"] = budget_cells
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return payload


def _checked(status, document):
    if status != 200 or not document.get("ok"):
        raise ServiceError(status, document)
    return document


class ServiceClient:
    """Blocking client: one HTTP connection per call, stdlib only."""

    #: test seam: retry waits route through here.  Suppressing at the
    #: alias definition waives every call routed through the seam.
    # repro-lint: ignore[CON001] — ServiceClient is the *blocking* surface
    # (CLI, threads, loadgen workers); loop callers use AsyncServiceClient.
    # The event-loop context is the fuzzy `query`/`request` name collision
    # with the async twin's coroutines.
    _sleep = staticmethod(time.sleep)

    def __init__(self, host="127.0.0.1", port=None, timeout=120.0, retry=None):
        self.host = host
        self.port = port if port is not None else _default_port()
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryConfig.from_env()

    def request(self, method, path, payload=None):
        """Raw round trip; returns ``(status, document)`` unchecked."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = json.dumps(payload) if payload is not None else None
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            # repro-lint: ignore[CON001] — blocking by contract: this is
            # the sync client (see the class-level note above _sleep).
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            status = response.status
        finally:
            connection.close()
        document = json.loads(text) if text.strip() else {}
        return status, document

    def query(
        self,
        target,
        params=None,
        costs=None,
        budget_cells=None,
        deadline_ms=None,
    ):
        """Submit one what-if query; returns the full success document.

        Retries on connection reset and retryable 503s per
        ``self.retry`` (queries are idempotent — see module docstring).
        """
        payload = _query_payload(target, params, costs, budget_cells, deadline_ms)
        attempt = 0
        while True:
            try:
                status, document = self.request("POST", "/v1/query", payload)
            except (ConnectionError, http.client.HTTPException, OSError):
                if attempt >= self.retry.retries:
                    raise
                self._sleep(self.retry.backoff_s(attempt))
                attempt += 1
                continue
            delay = self.retry.retry_delay(attempt, document)
            if status == 503 and delay is not None:
                self._sleep(delay)
                attempt += 1
                continue
            return _checked(status, document)

    def query_raw(self, payload):
        """Submit an arbitrary body; returns ``(status, document)``.

        Single-attempt by contract — the raw seam never retries.
        """
        return self.request("POST", "/v1/query", payload)

    def health(self):
        """True if the server answers ``/healthz`` with ok."""
        try:
            status, document = self.request("GET", "/healthz")
        except (OSError, ValueError):
            return False
        return status == 200 and bool(document.get("ok"))

    def metrics(self):
        return _checked(*self.request("GET", "/v1/metrics"))

    def targets(self):
        return _checked(*self.request("GET", "/v1/targets"))


class AsyncServiceClient:
    """Non-blocking client for concurrent queries from one event loop.

    Its methods import ``asyncio`` themselves (its caller runs a loop, so
    it is already loaded): the sync client behind ``python -m repro
    query`` never loads it.
    """

    @staticmethod
    async def _sleep(delay):
        """Test seam: retry waits route through here."""
        import asyncio

        await asyncio.sleep(delay)

    def __init__(self, host="127.0.0.1", port=None, retry=None):
        self.host = host
        self.port = port if port is not None else _default_port()
        self.retry = retry if retry is not None else RetryConfig.from_env()

    async def request(self, method, path, payload=None):
        import asyncio

        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                protocol.format_request(
                    method, path, "%s:%d" % (self.host, self.port), payload
                )
            )
            await writer.drain()
            status, document = await protocol.read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return status, document

    async def query(
        self,
        target,
        params=None,
        costs=None,
        budget_cells=None,
        deadline_ms=None,
    ):
        """Like :meth:`ServiceClient.query`, with the same retry rules."""
        payload = _query_payload(target, params, costs, budget_cells, deadline_ms)
        attempt = 0
        while True:
            try:
                status, document = await self.request("POST", "/v1/query", payload)
            except (ConnectionError, OSError):
                if attempt >= self.retry.retries:
                    raise
                await self._sleep(self.retry.backoff_s(attempt))
                attempt += 1
                continue
            delay = self.retry.retry_delay(attempt, document)
            if status == 503 and delay is not None:
                await self._sleep(delay)
                attempt += 1
                continue
            return _checked(status, document)

    async def query_raw(self, payload):
        """Single-attempt by contract — the raw seam never retries."""
        return await self.request("POST", "/v1/query", payload)

    async def metrics(self):
        return _checked(*await self.request("GET", "/v1/metrics"))
