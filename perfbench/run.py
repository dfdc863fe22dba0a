"""The repository benchmark: what-if sweeps, long simulations, served queries.

Usage::

    python3 perfbench/run.py --workload whatif-sweep|long-sim|serve-whatif|all \\
        --seed N --seconds S --trace 0|1

Run from a checkout's root (or anywhere: paths resolve from this file).
The package is imported from ``src/``; nothing is installed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced and then with the tracing wrappers of
``tracing.py`` installed, each for half of ``--seconds``, and prints the
per-layer metrics plus the tracing overhead.  Either way the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every correctness check held, 1 when one failed (or
the load generator ran too late for its numbers to mean anything), 2
when the tree is not a runnable checkout.  ``design.json`` records why
each workload exists and which layer metric should move which
end-to-end metric.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("whatif-sweep", "long-sim", "serve-whatif")
END_TO_END = (
    "setup_s",
    "throughput_per_s",
    "latency_ms.p50",
    "latency_ms.p90",
    "peak_rss_mb",
    "ok_share",
)


def measure(workload, seed, seconds, tracer=None, trace_out=None, setup=True):
    """One pass of ``workload`` next to a speed probe.

    Returns ``(result, op_ms, details)``: the result with its end-to-end
    metrics, the reference-speed host ms of each succeeded op (for the
    tracing overhead), and the serve workload's details (else ``None``).
    """
    import speed

    measured, other = speed.cpus()
    if workload == "serve-whatif":
        import serve

        speed.pin(other)
        samples = serve.SETUP_SAMPLES if setup else 1
        with speed.Monitor(measured, common.WORK) as monitor:
            result, details = serve.serve_whatif(seed, seconds, measured, trace_out, samples)
        late = serve.late_p90(details)
        details["late_ms_p90"] = late
        result.info["abandoned_peak_queries"] = details["abandoned"]
        if result.check(late <= serve.MAX_LATE_MS,
                        "load generator ran %.1f ms late (p90): run invalid" % late):
            if details["ok_nominal"] and details["ok_peak"]:
                raw = common.Result(workload)
                for target, scale in ((result, monitor), (raw, common.UNSCALED)):
                    serve.serve_metrics(target, details, scale)
                result.raw_metrics = raw.metrics
                result.put("peak_rss_mb", details["rss_mb"], "MB", 1)
        op_ms = serve.service_times_ms(details["ok_nominal"], monitor)
        return result, op_ms, details
    import batch

    speed.pin(measured)
    with speed.Monitor(measured, common.WORK) as monitor:
        if workload == "whatif-sweep":
            result, done = batch.whatif_sweep(seed, seconds, tracer)
        else:
            result, done = batch.long_sim(seed, seconds, tracer)
        windows = common.import_setup_windows(measured) if setup else []
    raw = common.Result(workload)
    for target, scale in ((result, monitor), (raw, common.UNSCALED)):
        if done:
            if workload == "whatif-sweep":
                batch.sweep_metrics(target, done, scale)
            else:
                batch.longsim_metrics(target, done, scale)
        if windows:
            setup_s = [batch.scaled_s(scale, start, end) for start, end in windows]
            target.put("setup_s", common.p50(setup_s), "s", len(setup_s))
    if windows:
        result.put("peak_rss_mb", common.self_peak_rss_mb(), "MB", 1)
    result.raw_metrics = raw.metrics
    op_ms = [batch.scaled_s(monitor, start, end) * 1000.0 for _l, start, end, _v in done]
    return result, op_ms, None


def end_to_end(workload, seed, seconds):
    result, _op_ms, _details = measure(workload, seed, seconds)
    if result.attempted:
        result.put("ok_share", (result.attempted - result.failed) / result.attempted, "ratio",
                   result.attempted)
    return result


def _service_layers(details):
    """Per-layer service metrics from the server's own registry."""
    if details is None:
        return {
            "service.cells.coalesced_ratio": (0.0, "ratio"),
            "service.cells.cached_ratio": (0.0, "ratio"),
            "service.admit.rejects": (0, "count"),
            "loadgen.late_ms.p90": (0.0, "ms"),
        }
    snapshot = details["snapshot"]

    def value(name):
        entry = snapshot.get(name, {})
        return entry.get("value", 0) if isinstance(entry, dict) else entry

    requested = value("service.cells.requested")
    executed = value("service.cells.cached") + value("service.cells.simulated")
    return {
        "service.cells.coalesced_ratio": (
            value("service.cells.coalesced") / requested if requested else 0.0, "ratio"),
        "service.cells.cached_ratio": (
            value("service.cells.cached") / executed if executed else 0.0, "ratio"),
        "service.admit.rejects": (value("service.admit.rejects"), "count"),
        "loadgen.late_ms.p90": (details["late_ms_p90"], "ms"),
    }


def traced(workload, seed, seconds):
    """Untraced half, then traced half: per-layer metrics and overhead."""
    import tracing

    common.TRACE_DIR.mkdir(exist_ok=True)
    trace_path = common.TRACE_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    half = seconds / 2.0
    plain, plain_ms, _details = measure(workload, seed, half, setup=False)
    if workload == "serve-whatif":
        result, op_ms, details = measure(workload, seed, half, trace_out=str(trace_path), setup=False)
        with open(trace_path, encoding="utf-8") as handle:
            document = json.load(handle)
        # the server's spans include its warm-up queries
        ops = len(details["ok_nominal"]) + len(details["ok_peak"]) + details["warmups"]
    else:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            result, op_ms, details = measure(workload, seed, half, tracer=tracer, setup=False)
        finally:
            tracer.uninstall()
        document = tracer.dump()
        tracing.write_trace(trace_path, document)
        ops = len(op_ms)
    per_layer = tracing.per_layer_metrics(document, ops)
    per_layer.update(_service_layers(details))
    for name, value in common.import_times_ms().items():
        per_layer["import.%s_ms" % name] = (value, "ms")
    paired = min(len(plain_ms), len(op_ms))
    untraced_ms = sum(plain_ms[:paired]) / max(paired, 1)
    traced_ms = sum(op_ms[:paired]) / max(paired, 1)
    per_layer["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    per_layer["trace.overhead_share"] = (
        (traced_ms - untraced_ms) / untraced_ms if untraced_ms else 0.0, "ratio")
    result.attempted += plain.attempted
    result.failed += plain.failed
    result.check_failures.extend(plain.check_failures)
    for kind, count in plain.errors.items():
        result.errors[kind] = result.errors.get(kind, 0) + count
    result.metrics = {}
    for name, (value, unit) in sorted(per_layer.items()):
        result.put(name, value, unit, ops)
    return result


def report(result, names):
    """Human-readable lines, then the JSON object (the last line)."""
    for name in names:
        if name in result.metrics:
            value, unit, samples = result.metrics[name]
            print("%-14s %-36s %14.6g %-6s n=%d" % (result.workload, name, value, unit, samples))
    for name in names:
        if name in result.raw_metrics:
            value, unit, samples = result.raw_metrics[name]
            print("%-14s raw %-32s %14.6g %-6s n=%d" % (result.workload, name, value, unit, samples))
    for name, value in sorted(result.info.items()):
        print("%-14s info %-31s %14.6g" % (result.workload, name, value))
    for kind, count in sorted(result.errors.items()):
        print("%-14s failed op x%d: %s" % (result.workload, count, kind))
    for message in result.check_failures:
        print("%-14s CHECK FAILED: %s" % (result.workload, message))


def run_all(args):
    """Every workload in its own process (own pinning, own peak memory)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            document = json.loads(lines[-1])
        except (IndexError, ValueError):
            document = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        merged["correct"] = merged["correct"] and document["correct"] and completed.returncode == 0
        merged["attempted"] += document["attempted"]
        merged["failed"] += document["failed"]
        for name, metric in document["metrics"].items():
            merged["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.prepare()
    except common.NotACheckout as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds)
            names = sorted(result.metrics)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
            names = END_TO_END
    finally:
        common.cleanup()
    report(result, names)
    complete = bool(args.trace) or all(name in result.metrics for name in END_TO_END)
    correct = result.correct and complete
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in result.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
