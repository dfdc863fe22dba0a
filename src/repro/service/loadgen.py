"""The service meta-benchmark: replay a serversim-style load profile.

``python -m repro serve-bench`` boots an in-process server and drives
it the way :mod:`repro.core.serversim` models a server workload: a
fixed population of closed-loop clients, each issuing its next request
the moment the previous response lands (think time zero).  Three phases
exercise the three service behaviors worth measuring:

* **sweep** — one client walks distinct targets back to back (the
  no-contention baseline; every cell misses the in-flight registry);
* **burst** — every client issues the *identical* query while the
  broker is held, so the whole burst coalesces onto one in-flight cell
  set and exactly one batch simulates it (the coalescing headline);
* **mix** — clients issue *distinct* targets whose plans overlap
  (table2 / vhe / micro share their KVM ARM cells), measuring
  cross-query deduplication under concurrency.

The emitted document (schema ``repro-service-bench/1``) carries
per-phase wall time and aggregated stats plus the server's full metric
snapshot — wall clocks are legitimate here (this measures the service,
never the model; cell payloads stay byte-deterministic throughout).
"""

import asyncio
import json
import time

from repro import constants
from repro.service import protocol
from repro.service.client import AsyncServiceClient
from repro.service.server import ServiceConfig, start_in_thread

DEFAULT_CLIENTS = constants.SERVE_BENCH_CLIENTS
DEFAULT_DOCUMENT_PATH = constants.SERVE_BENCH_DOCUMENT_PATH

#: the sweep phase's request walk (target, params)
SWEEP_QUERIES = (
    ("micro", {"key": "kvm-arm"}),
    ("micro", {"key": "xen-arm"}),
    ("table3", {}),
    ("table2", {}),
    ("vhe", {}),
)

#: the mix phase's overlapping targets — table2/vhe/micro share cells
MIX_QUERIES = (
    ("table2", {}),
    ("vhe", {}),
    ("micro", {"key": "kvm-arm"}),
    ("micro", {"key": "kvm-x86"}),
)


def _aggregate(documents):
    totals = {"cells": 0, "coalesced": 0, "cached": 0, "simulated": 0}
    for document in documents:
        for name in totals:
            totals[name] += document["stats"][name]
    return totals


async def _run_sweep(client):
    documents = []
    for target, params in SWEEP_QUERIES:
        documents.append(await client.query(target, params))
    return documents


async def _run_burst(client, clients, broker, metrics):
    # Hold the broker so every client's submission lands before any
    # batch runs: the burst coalesces deterministically, not by luck.
    requested_before = metrics.counter("service.cells.requested").value
    target_requested = requested_before + clients * 4  # table2 = 4 cells
    broker.hold()
    try:
        tasks = [
            asyncio.ensure_future(client.query("table2", {}))
            for _client_index in range(clients)
        ]
        # every client has submitted (and all but the first coalesced)
        # once the requested counter covers the whole burst
        deadline = time.monotonic() + 30.0
        while (
            metrics.counter("service.cells.requested").value < target_requested
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.005)
    finally:
        broker.release()
    return await asyncio.gather(*tasks)


async def _run_mix(client, clients):
    queries = [MIX_QUERIES[index % len(MIX_QUERIES)] for index in range(clients)]
    tasks = [
        asyncio.ensure_future(client.query(target, params))
        for target, params in queries
    ]
    return await asyncio.gather(*tasks)


def run_profile(clients=DEFAULT_CLIENTS, config=None):
    """Run the three-phase profile; returns the bench document."""
    if config is None:
        config = ServiceConfig(port=0, admit_max=max(16, clients * 2))
    handle = start_in_thread(config=config)
    phases = []
    try:
        client = AsyncServiceClient(port=handle.port)

        def run_phase(name, coroutine):
            start = time.perf_counter()
            documents = asyncio.run(coroutine)
            wall_ms = (time.perf_counter() - start) * 1000.0
            phases.append(
                {
                    "name": name,
                    "queries": len(documents),
                    "ok": all(document.get("ok") for document in documents),
                    "wall_ms": wall_ms,
                    "stats": _aggregate(documents),
                }
            )
            return documents

        run_phase("sweep", _run_sweep(client))
        run_phase(
            "burst", _run_burst(client, clients, handle.broker, handle.metrics)
        )
        run_phase("mix", _run_mix(client, clients))
        snapshot = handle.metrics.snapshot()
    finally:
        handle.close()
    return {
        "schema": protocol.BENCH_SCHEMA,
        "clients": clients,
        "phases": phases,
        "totals": _aggregate_phases(phases),
        "metrics": snapshot,
    }


def _aggregate_phases(phases):
    totals = {"queries": 0, "cells": 0, "coalesced": 0, "cached": 0, "simulated": 0}
    for phase in phases:
        totals["queries"] += phase["queries"]
        for name in ("cells", "coalesced", "cached", "simulated"):
            totals[name] += phase["stats"][name]
    return totals


def summary_text(document):
    lines = [
        "service bench: %d closed-loop clients, %d queries"
        % (document["clients"], document["totals"]["queries"])
    ]
    for phase in document["phases"]:
        stats = phase["stats"]
        lines.append(
            "  %-6s %2d queries in %7.1f ms  (cells=%d coalesced=%d "
            "cached=%d simulated=%d)"
            % (
                phase["name"],
                phase["queries"],
                phase["wall_ms"],
                stats["cells"],
                stats["coalesced"],
                stats["cached"],
                stats["simulated"],
            )
        )
    return "\n".join(lines)


def write_document(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
