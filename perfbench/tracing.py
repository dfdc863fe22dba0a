"""Span and counter tracing installed around the package's layer boundaries.

The tracer wraps public functions and methods of ``repro`` from the
outside: nothing in ``src/`` knows it exists.  Each wrapped call records a
span ``[name, start, end, parent, request_id]`` in memory; hot paths
(``Pcpu.op``, ``Engine.schedule``, ``Process.resume``,
``Stage2Tables.map_page``) only bump a counter, because a span per event
would cost more than the event.  Spans are written out once, at the end
of a run (:meth:`Tracer.dump`).

Self time is a span's duration minus the part of it covered by its child
spans; inclusive time of a layer counts only spans with no ancestor of
the same name, so a recursive or re-entrant layer is not double counted.
"""

import collections
import contextvars
import functools
import inspect
import json
import sys
import threading
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)

#: cell kinds of ``repro.runner.cells`` (one per-kind run-time metric each)
CELL_KINDS = ("micro", "breakdown", "tcprr", "appcol", "ablation", "oversub")

#: span name -> per-layer metric carrying its inclusive host ms per op
SPAN_METRICS = {
    "core.testbed.build": "core.testbed.build_ms",
    "hv.create_vm": "hv.create_vm_ms",
    "hw.stage2.map": "hw.stage2.map_ms",
    "sim.run": "sim.run_ms",
    "runner.merge": "runner.merge.ms",
    "core.reporting.render": "core.reporting.render_ms",
    "runner.cache.get": "runner.cache.get_ms",
    "runner.cache.put": "runner.cache.put_ms",
    "service.queries.canonicalize": "service.queries.canonicalize_ms",
    "service.queries.plan": "service.queries.plan_ms",
    "service.queries.assemble": "service.queries.assemble_ms",
}

#: spans whose self time is reported as ``self_ms.<span>``
SELF_SPANS = (
    "bench.op",
    "core.testbed.build",
    "hv.create_vm",
    "hw.stage2.map",
    "sim.run",
    "core.netanalysis.tcprr",
    "core.oversubscription.run",
    "runner.pool.run",
    "runner.cells.run",
    "runner.cache.get",
    "runner.cache.put",
    "runner.merge",
    "core.reporting.render",
    "service.server.query",
    "service.queries.canonicalize",
    "service.queries.plan",
    "service.queries.assemble",
    "service.broker.submit",
    "service.broker.batch",
)

#: counters reported per op
COUNTER_METRICS = {
    "core.testbed.builds": "core.testbed.build",
    "hw.stage2.pages_mapped": "hw.stage2.pages_mapped",
    "sim.events": "sim.events",
    "sim.resumes": "sim.resumes",
    "hw.pcpu.ops": "hw.pcpu.ops",
    "runner.cells.count": "runner.cells.run",
}


class Tracer:
    """In-memory spans plus named counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.samples = collections.defaultdict(list)
        self._lock = threading.Lock()
        self._installed = []

    # --- recording ---------------------------------------------------------

    def begin(self, name, request_id=None):
        parent = _CURRENT.get()
        span = [name, time.perf_counter(), None, parent, request_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        return index, _CURRENT.set(index)

    def end(self, index, token):
        self.spans[index][2] = time.perf_counter()
        _CURRENT.reset(token)

    def tag_request(self, request_id):
        """Name the request the innermost enclosing root span serves."""
        index = _CURRENT.get()
        while index is not None and self.spans[index][3] is not None:
            index = self.spans[index][3]
        if index is not None:
            self.spans[index][4] = request_id

    def clear(self):
        """Forget what was recorded so far (warm-up work)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.samples.clear()

    def sample(self, name, value):
        with self._lock:
            self.samples[name].append(value)

    # --- wrapping ----------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        if inspect.isfunction(original) and not isinstance(owner, type):
            # ``from module import name`` copies: rebind them too
            for module in list(sys.modules.values()):
                if (
                    module is not owner
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))
        return original

    def span(self, owner, attr, name, after=None):
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a callable of the call's arguments;
        ``after(result, args)`` runs inside the span once the call returns.
        """
        original = getattr(owner, attr)
        naming = name if callable(name) else (lambda *_args, **_kw: name)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index, token = tracer.begin(naming(*args, **kwargs))
                try:
                    result = await original(*args, **kwargs)
                    if after is not None:
                        after(result, args)
                    return result
                finally:
                    tracer.end(index, token)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index, token = tracer.begin(naming(*args, **kwargs))
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, args)
                    return result
                finally:
                    tracer.end(index, token)

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr, counter):
        original = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --- output ------------------------------------------------------------

    def dump(self):
        """A JSON-ready document: spans with resolved request ids, counters."""
        spans = []
        for name, start, end, parent, request_id in self.spans:
            cursor = parent
            while request_id is None and cursor is not None:
                request_id = self.spans[cursor][4]
                cursor = self.spans[cursor][3]
            spans.append([name, start, end, parent, request_id])
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }


def install(tracer):
    """Wrap every measured layer boundary of an imported ``repro``."""
    from repro.core import netanalysis, oversubscription, reporting, testbed
    from repro.hv import base as hv_base
    from repro.hw import platform
    from repro.hw.mem import stage2
    from repro.runner import cache, cells, merge, pool
    from repro.service import broker, queries, server
    from repro.sim import engine, process

    tracer.span(testbed, "build_testbed", "core.testbed.build")
    tracer.span(hv_base.Hypervisor, "create_vm", "hv.create_vm")
    tracer.span(hv_base, "identity_map", "hw.stage2.map")
    tracer.count(stage2.Stage2Tables, "map_page", "hw.stage2.pages_mapped")
    tracer.span(engine.Engine, "run", "sim.run")
    tracer.span(engine.Engine, "run_until_fired", "sim.run")
    tracer.count(engine.Engine, "schedule", "sim.events")
    tracer.count(process.Process, "resume", "sim.resumes")
    tracer.count(platform.Pcpu, "op", "hw.pcpu.ops")
    tracer.span(netanalysis.TcpRrBenchmark, "run", "core.netanalysis.tcprr")
    tracer.span(
        oversubscription.OversubscriptionExperiment, "run", "core.oversubscription.run"
    )

    tracer.span(cells, "run_cell", lambda spec, *_a, **_k: "runner.cells.run." + spec.kind)
    tracer.span(pool, "run_cells_outcome", "runner.pool.run")

    def cache_lookup(entry, _args):
        tracer.counters["runner.cache.hits" if entry is not None else "runner.cache.misses"] += 1

    tracer.span(cache.ResultCache, "load", "runner.cache.get", after=cache_lookup)
    tracer.span(cache.ResultCache, "store", "runner.cache.put")
    for name in (
        "full_report_text",
        "table2_results",
        "breakdown_result",
        "table5_results",
        "figure4_grid",
        "ablation_grid",
        "vhe_comparison",
        "oversubscription_grid",
    ):
        tracer.span(merge, name, "runner.merge")
    for name in (
        "render_table2",
        "render_table3",
        "render_table5",
        "render_figure4",
        "render_ablation",
        "render_vhe",
    ):
        tracer.span(reporting, name, "core.reporting.render")

    def canonicalized(result, _args):
        tracer.tag_request(result[0].key)

    tracer.span(queries, "canonicalize", "service.queries.canonicalize", after=canonicalized)
    tracer.span(queries, "plan", "service.queries.plan")
    tracer.span(queries, "assemble", "service.queries.assemble")
    tracer.span(server.ServiceServer, "_query", "service.server.query")

    submitted = {}

    def on_submit(result, _args):
        _futures, stats = result
        now = time.perf_counter()
        for cell_id in stats["owned"]:
            submitted[cell_id] = now

    def batch_name(_broker, batch):
        now = time.perf_counter()
        tracer.sample("service.broker.batch_cells", len(batch))
        for spec in batch:
            queued = submitted.pop(spec.id, None)
            if queued is not None:
                tracer.sample("service.broker.wait_ms", (now - queued) * 1000.0)
        return "service.broker.batch"

    tracer.span(broker.SimulationBroker, "submit", "service.broker.submit", after=on_submit)
    tracer.span(broker.SimulationBroker, "_execute", batch_name)


# --- summarizing -----------------------------------------------------------


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _family(name):
    return "runner.cells.run" if name.startswith("runner.cells.run.") else name


def layer_times(spans):
    """``(inclusive_s, self_s, count)`` per span name, from a dump's spans."""
    children = collections.defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    inclusive = collections.Counter()
    own = collections.Counter()
    count = collections.Counter()
    for index, (name, start, end, parent, _rid) in enumerate(spans):
        if end is None:
            continue
        names = {name, _family(name)}
        count.update(names)
        cover = _covered(
            [
                (max(spans[child][1], start), min(spans[child][2], end))
                for child in children[index]
                if spans[child][2] is not None
            ]
        )
        for label in names:
            own[label] += max(0.0, (end - start) - cover)
        cursor = parent
        nested = set()
        while cursor is not None:
            nested.update({spans[cursor][0], _family(spans[cursor][0])})
            cursor = spans[cursor][3]
        for label in names - nested:
            inclusive[label] += end - start
    return inclusive, own, count


def per_layer_metrics(document, ops):
    """The per-layer metric values of one traced run with ``ops`` ops.

    Times and counts are per succeeded op; ratios and means are taken over
    the run.  A layer that did no work on this workload reads 0.
    """
    ops = max(ops, 1)
    inclusive, own, count = layer_times(document["spans"])
    counters = collections.Counter(document["counters"])
    counters.update(
        {name: count[name] for name in ("core.testbed.build", "runner.cells.run")}
    )
    samples = document.get("samples", {})
    metrics = {}
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = (inclusive[span_name] * 1000.0 / ops, "ms")
    for metric, counter in COUNTER_METRICS.items():
        metrics[metric] = (counters[counter] / ops, "count")
    events = counters["sim.events"]
    metrics["sim.host_us_per_event"] = (
        inclusive["sim.run"] * 1e6 / events if events else 0.0,
        "us",
    )
    for kind in CELL_KINDS:
        metrics["runner.cells.run_ms." + kind] = (
            inclusive["runner.cells.run." + kind] * 1000.0 / ops,
            "ms",
        )
    metrics["runner.pool.overhead_ms"] = (
        max(0.0, inclusive["runner.pool.run"] - inclusive["runner.cells.run"])
        * 1000.0
        / ops,
        "ms",
    )
    lookups = counters["runner.cache.hits"] + counters["runner.cache.misses"]
    metrics["runner.cache.hit_ratio"] = (
        counters["runner.cache.hits"] / lookups if lookups else 0.0,
        "ratio",
    )
    for name in ("service.broker.wait_ms", "service.broker.batch_cells"):
        values = samples.get(name, [])
        metrics[name] = (
            sum(values) / len(values) if values else 0.0,
            "ms" if name.endswith("_ms") else "count",
        )
    for name in SELF_SPANS:
        metrics["self_ms." + name] = (own[name] * 1000.0 / ops, "ms")
    return metrics


def write_trace(path, document):
    """Write one run's spans and counters as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
