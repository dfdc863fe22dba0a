"""The ``serve-whatif`` workload: an open-loop generator against ``repro serve``.

The server is a subprocess (``python -m repro serve --jobs 1 --cache-dir
<fresh dir>``, or the tracing launcher around the same entry point).
The generator is this process: one asyncio event loop on one thread,
holding at most ``CONNECTIONS`` connections at a time.  The whole
arrival schedule -- due times and request bodies -- is drawn from the
seed before the first request is sent, and every latency is measured
from the query's due time, so a stall also charges the queries queued
behind it.

Two phases run back to back at fixed rates, half of ``--seconds`` each.
``nominal`` gives the latency percentiles; queries wait for a free
connection in arrival order.  Its rate is about 20% of one broker
worker's capacity on this mix (about 60 queries/s) rather than a half:
on a shared host the server's speed swings by tens of percent, and
queueing nearer half load amplifies every swing into the latency tail.
``peak`` (about 1.5 times capacity) gives goodput: queries answered OK
within ``LIMIT_S`` of their due time, per schedule second.  There a free
connection takes the newest waiting query and a query whose limit passed
unsent is abandoned -- it has already missed, and it was never attempted
-- so the backlog stays bounded and goodput is the rate the service
sustains in overload, not an artefact of how long the backlog has grown.
Responses are kept as bytes and parsed only after the phase, so the
generator's own work stays small and steady.

The server is pinned to one CPU, next to a :mod:`speed` probe; the
generator runs on the other.
"""

import asyncio
import collections
import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import tempfile
import time

from common import ROOT, WORK, Result, child_env, p50, p90, vm_hwm_mb
from repro.service import protocol
from repro.service.client import ServiceClient

#: at most this many connections open at once (the container's CPU count)
CONNECTIONS = 2
#: fixed arrival rates, queries per second
NOMINAL_QPS = 12.0
PEAK_QPS = 90.0
#: latency limit for goodput
LIMIT_S = 0.25
#: ``GET /v1/targets`` names the schedule leaves out.  ``report`` is the
#: whole evaluation: about 220 ms of simulation on a miss against 2-40 ms
#: for every other target, most of the goodput limit on its own; it is
#: the ``whatif-sweep`` op, which measures it.
LEFT_OUT = ("report",)
#: repeats in one block of the schedule, next to one fresh query per
#: target.  A repeat re-sends one of the last block-length queries: a cache
#: read, or a coalesce while that query is still in flight.  Seven in a
#: block of fifteen puts cache reads beside about as many cache writes,
#: and puts the median and the 90th percentile each in the middle of one
#: class of query cost (nominal: table3 misses and table5 misses), not on
#: the step between two classes, where a percentile would jump.
REPEATS = 7
#: served responses compared byte-for-byte with the direct runner path
DIRECT_SAMPLES = 3
#: the generator may run this late (p90) before the run is invalid
MAX_LATE_MS = 50.0
#: server start-ups timed per run for ``setup_s``
SETUP_SAMPLES = 5
ALL_KEYS = ("kvm-arm", "xen-arm", "kvm-x86", "xen-x86", "kvm-vhe-arm")
PAPER_KEYS = ALL_KEYS[:4]
ABLATION_WORKLOADS = ("Apache", "Memcached", "Hackbench", "Kernbench")


#: a cost document no schedule draws (the default 76 times any of
#: ``batch.SCALES`` is never 77): warm-up queries
#: with it load the server's lazy imports without seeding the cache
WARMUP_COSTS = {"arm": {"trap_to_el2": 77}}


def warm_up(port, targets):
    """One query per scheduled target before the clock starts; returns the count."""
    service = ServiceClient(port=port)
    for target in targets:
        status, document = service.query_raw({"target": target, "costs": WARMUP_COSTS})
        if status != 200:
            raise RuntimeError("warm-up query %s failed: %r" % (target, document))
    return len(targets)


async def _post(port, request):
    """The raw response bytes; parsing waits until the phase is over."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(request)
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()


async def _parse(raw):
    """``(status, document)`` of one response's raw bytes."""
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return await protocol.read_response(reader)


# --- server lifecycle ----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cpu, trace_out=None):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK)
        args = ["serve", "--port", "0", "--jobs", "1", "--cache-dir", cache_dir]
        if trace_out is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launcher.py")
            command = [sys.executable, launcher, trace_out] + args
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            self.port = self._await_announce(start + 60.0)
            self._await_healthy(start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.window = (start, time.perf_counter())

    def _await_announce(self, deadline):
        stream = self.process.stderr
        buffered = b""
        while time.perf_counter() < deadline:
            ready, _w, _x = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.split(b"\n"):
                if line.startswith(b"serving on http://"):
                    return int(line.rsplit(b":", 1)[1])
        raise RuntimeError("server did not announce a port: %r" % buffered[-500:])

    def _await_healthy(self, deadline):
        service = ServiceClient(port=self.port, timeout=1.0)
        while time.perf_counter() < deadline:
            if service.health():
                return
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def metrics(self):
        return ServiceClient(port=self.port).metrics()["metrics"]

    def peak_rss_mb(self):
        return vm_hwm_mb(self.process.pid)

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def server_setup_windows(cpu, samples):
    """Spawn-to-healthy windows of ``samples`` fresh servers, each stopped."""
    windows = []
    for _ in range(samples):
        server = Server(cpu)
        windows.append(server.window)
        server.stop()
    return windows


# --- the seeded schedule ----------------------------------------------------------


#: the parameter choices of each target; a schedule walks each list in
#: seeded order and reshuffles it when used up, so every seed covers the
#: choices (and their simulation costs) evenly
PAIRS = (
    ["kvm-arm", "xen-arm"],
    ["kvm-x86", "xen-x86"],
    ["kvm-arm", "kvm-vhe-arm"],
    ["xen-arm", "xen-x86"],
    ["kvm-arm", "kvm-x86"],
)
PARAMS = {
    "micro": [{"key": key} for key in ALL_KEYS],
    "table2": [{"keys": [key]} for key in ALL_KEYS] + [{"keys": list(pair)} for pair in PAIRS],
    "figure4": [{"keys": [key]} for key in ALL_KEYS] + [{"keys": list(pair)} for pair in PAIRS],
    "oversub": [
        {"keys": [key], "timeslices_us": [timeslice]}
        for key in PAPER_KEYS
        for timeslice in (100.0, 500.0, 1000.0)
    ],
    "ablation": [
        {"keys": [key], "workloads": [workload]}
        for key in ("kvm-arm", "xen-arm")
        for workload in ABLATION_WORKLOADS
    ],
}


def fresh_query(rng, walks, target):
    """One query for ``target``: its next parameter choice, seeded costs."""
    from batch import cost_variant, walk

    params = {}
    if target in PARAMS:
        if target not in walks:
            walks[target] = walk(rng, PARAMS[target])
        params = next(walks[target])
    return {"target": target, "params": params, "costs": cost_variant(rng)}


def build_schedule(seed, targets, seconds):
    """The arrival schedule, fixed before the run.

    Returns ``(schedule, bodies)``: ``{phase: [(due_offset_s, query_index)]}``
    and the JSON body of each query index.  A block is one fresh query
    per scheduled target plus ``REPEATS`` repeats, in seeded order; each
    phase is whole blocks.
    """
    rng = random.Random(seed)
    walks = {}
    block = [name for name in targets if name not in LEFT_OUT] + ["repeat"] * REPEATS
    bodies = []
    schedule = {}
    for phase, rate in (("nominal", NOMINAL_QPS), ("peak", PEAK_QPS)):
        kinds = []
        for _ in range(max(1, round(seconds * rate / len(block)))):
            order = rng.sample(block, len(block))
            if not bodies and not kinds:
                # the very first query has nothing to repeat
                first = next(i for i, kind in enumerate(order) if kind != "repeat")
                order[0], order[first] = order[first], order[0]
            kinds.extend(order)
        entries = []
        for index, kind in enumerate(kinds):
            if kind == "repeat":
                body = bodies[rng.randrange(max(0, len(bodies) - len(block)), len(bodies))]
            else:
                body = json.dumps(fresh_query(rng, walks, kind)).encode("utf-8")
            bodies.append(body)
            entries.append((index / rate, len(bodies) - 1))
        schedule[phase] = entries
    return schedule, bodies


def requests(bodies):
    """Each query's complete HTTP request, framed by the service protocol."""
    return [
        protocol.format_request("POST", "/v1/query", "127.0.0.1", json.loads(body))
        for body in bodies
    ]


# --- the open-loop generator --------------------------------------------------


async def _drive(port, entries, framed, overload):
    """Send ``entries`` on schedule; returns per-query records.

    Times are ``time.perf_counter`` seconds.  With ``overload`` a free
    connection serves the newest waiting query and expired ones are
    abandoned; otherwise queries wait their turn in arrival order.
    """
    loop = asyncio.get_running_loop()
    waiting = collections.deque()
    free = [CONNECTIONS]
    records = []
    inflight = []

    async def send(record, request):
        sent = time.perf_counter()
        try:
            record["raw"] = await _post(port, request)
        except OSError as exc:
            record["error"] = type(exc).__name__
        record.update(sent=sent, done=time.perf_counter())
        free[0] += 1
        dispatch()

    def dispatch():
        now = time.perf_counter()
        while free[0] and waiting:
            record = waiting.pop() if overload else waiting.popleft()
            if overload and now - record["due"] > LIMIT_S:
                record["abandoned"] = True
                continue
            free[0] -= 1
            inflight.append(loop.create_task(send(record, framed[record["index"]])))

    start = time.perf_counter() + 0.05
    for offset, index in entries:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record = {"index": index, "due": due, "late_ms": (time.perf_counter() - due) * 1000.0}
        records.append(record)
        waiting.append(record)
        dispatch()
    while waiting or any(not task.done() for task in inflight):
        await asyncio.gather(*inflight)
    for record in records:
        if "raw" in record:
            try:
                record["status"], record["document"] = await _parse(record.pop("raw"))
            except (ValueError, EOFError, protocol.ProtocolError) as exc:
                record["error"] = type(exc).__name__
        if "error" in record:
            record["status"], record["document"] = 0, {"error": {"code": record["error"]}}
    return records


def _digest(result):
    return hashlib.sha256(json.dumps(result, separators=(",", ":")).encode("utf-8")).hexdigest()


def _check_responses(records, result):
    """Every OK response's ``result_sha256`` must match its ``result``."""
    ok = []
    for record in records:
        if record.get("abandoned"):
            continue
        document = record["document"]
        if record["status"] != 200 or not document.get("ok"):
            result.op_failed("http %s %s" % (record["status"], (document.get("error") or {}).get("code")))
            continue
        if not result.check(
            _digest(document["result"]) == document.get("result_sha256"),
            "query %d: result_sha256 does not match its result" % record["index"],
        ):
            result.op_failed("digest mismatch")
            continue
        ok.append(record)
    return ok


def _check_direct(ok_records, bodies, seed, result):
    """A seeded sample of served results must equal the direct runner path."""
    from repro.service import queries

    rng = random.Random(seed ^ 0x5EED)
    by_body = {}
    for record in ok_records:
        by_body.setdefault(bodies[record["index"]], record)
    sample = rng.sample(sorted(by_body), min(DIRECT_SAMPLES, len(by_body)))
    for body in sample:
        query, _options = queries.canonicalize(json.loads(body))
        direct, _stats = queries.run_direct(query)
        served = by_body[body]["document"]["result"]
        if not result.check(
            json.dumps(served, separators=(",", ":"))
            == json.dumps(json.loads(json.dumps(direct)), separators=(",", ":")),
            "query %s: served result differs from run_direct" % query.key[:12],
        ):
            result.op_failed("direct mismatch")


def run_phases(port, schedule, framed):
    """Drive both phases against the server; returns records per phase."""

    async def main():
        nominal = await _drive(port, schedule["nominal"], framed, overload=False)
        peak = await _drive(port, schedule["peak"], framed, overload=True)
        return nominal, peak

    return asyncio.run(main())


def serve_whatif(seed, seconds, cpu, trace_out=None, setup_samples=SETUP_SAMPLES):
    """One serve run: set-up timing, both phases, checks.

    The server runs on ``cpu``; the caller has pinned this process
    elsewhere.  Returns ``(result, details)``; ``details`` carries the
    records and the server's metric snapshot for the caller's metrics.
    A peak-phase query abandoned unsent was never attempted: it counts
    against goodput, not as a failed op.
    """
    result = Result("serve-whatif")
    setup_windows = server_setup_windows(cpu, setup_samples - 1)
    server = Server(cpu, trace_out)
    try:
        targets = [entry["name"] for entry in ServiceClient(port=server.port).targets()["targets"]]
        schedule, bodies = build_schedule(seed, targets, seconds / 2.0)
        warmups = warm_up(server.port, [name for name in targets if name not in LEFT_OUT])
        nominal, peak = run_phases(server.port, schedule, requests(bodies))
        snapshot = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    setup_windows.append(server.window)  # the measured server's start-up counts too
    abandoned = sum(1 for record in peak if record.get("abandoned"))
    result.attempted = len(nominal) + len(peak) - abandoned
    ok_nominal = _check_responses(nominal, result)
    ok_peak = _check_responses(peak, result)
    _check_direct(ok_nominal + ok_peak, bodies, seed, result)
    return result, {
        "nominal": nominal,
        "peak": peak,
        "ok_nominal": ok_nominal,
        "ok_peak": ok_peak,
        "abandoned": abandoned,
        "peak_seconds": len(schedule["peak"]) / PEAK_QPS,
        "snapshot": snapshot,
        "rss_mb": rss,
        "setup_windows": setup_windows,
        "warmups": warmups,
    }


def late_p90(details):
    return p90([record["late_ms"] for record in details["nominal"] + details["peak"]])


def service_times_ms(records, monitor):
    """Send-to-answer time of each record, at the reference speed."""
    return [(r["done"] - r["sent"]) * 1000.0 * monitor.factor(r["sent"], r["done"]) for r in records]


def serve_metrics(result, details, monitor):
    latencies = [
        (r["done"] - r["due"]) * 1000.0 * monitor.factor(r["due"], r["done"])
        for r in details["ok_nominal"]
    ]
    # each answer in time counts 1 / (speed when it completed): the count a
    # reference-speed server would have completed over the same schedule
    good = sum(
        1.0 / monitor.factor(r["done"], r["done"])
        for r in details["ok_peak"]
        if r["done"] - r["due"] <= LIMIT_S
    )
    setup = [(end - start) * monitor.factor(start, end) for start, end in details["setup_windows"]]
    result.put("throughput_per_s", good / details["peak_seconds"], "1/s", len(details["peak"]))
    result.put("latency_ms.p50", p50(latencies), "ms", len(latencies))
    result.put("latency_ms.p90", p90(latencies), "ms", len(latencies))
    result.put("setup_s", p50(setup), "s", len(setup))
