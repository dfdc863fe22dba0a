"""The two single-process workloads: ``whatif-sweep`` and ``long-sim``.

Both drive the package through its public API in this process, serially
and without a result cache.  Ops run back to back until the measured
window closes; an op that started inside the window is finished and
counted.
"""

import gc
import hashlib
import random
import time

from common import Result, p50, p90

#: ``sha256`` of the default-calibration full report (the repository's
#: golden; ``tests/test_obs_invariance.py``)
GOLDEN_FULL_REPORT_SHA256 = "506bcac1f2ebd268c475acd778a53c6fcdeadb15db143102d8077468a7f46725"
#: what ``merge.full_report_text`` writes in place of a section it lost
OMISSION_MARKER = "omitted: cell"

#: what-if primitives a sweep variant may override, per architecture
ARM_PRIMITIVES = (
    "trap_to_el2",
    "eret_to_el1",
    "virt_feature_toggle",
    "kvm_exit_dispatch",
    "xen_dispatch",
    "gic_dist_access",
    "eventfd_signal",
    "vhost_dequeue",
    "evtchn_send",
    "grant_map",
    "xen_ctx_extra",
    "sched_wakeup",
)
X86_PRIMITIVES = (
    "vmexit_hw",
    "vmentry_hw",
    "kvm_exit_dispatch",
    "xen_dispatch",
    "apic_access_kvm",
    "eventfd_signal",
    "vhost_dequeue",
    "grant_map",
    "vmcs_switch",
    "xen_ctx_extra",
    "sched_wakeup",
)
#: scale factors a variant applies to a primitive's default cost
SCALES = (0.5, 0.75, 1.25, 1.5, 2.0, 3.0)

#: long-sim sizes, each list walked in seeded order: TCP_RR transactions
#: (KVM's rx virtqueue holds 256) and simulated VM switches per
#: oversubscription op.  Every run covers the same sizes, so the size mix
#: (and the per-op set-up it amortizes) does not depend on the seed.
RR_TRANSACTIONS = (1000, 1500, 2000, 2500, 3000, 3500, 4000)
OVERSUB_SWITCHES = (2000, 2500, 3000, 3500, 4000)
OVERSUB_TIMESLICES_US = (100.0, 500.0)
RR_KEYS = ("kvm-arm", "xen-arm")
OVERSUB_KEYS = ("kvm-arm", "xen-arm", "kvm-x86", "xen-x86")


def cost_variant(rng):
    """A what-if document overriding 1-2 primitives of arm, x86 or both."""
    from repro.hw import costs

    defaults = {"arm": costs.ArmCosts(), "x86": costs.X86Costs()}
    pools = {"arm": ARM_PRIMITIVES, "x86": X86_PRIMITIVES}
    mode = rng.choice(("arm", "x86", "both"))
    if mode == "both":
        picks = [("arm", rng.choice(ARM_PRIMITIVES)), ("x86", rng.choice(X86_PRIMITIVES))]
    else:
        picks = [(mode, name) for name in rng.sample(pools[mode], rng.choice((1, 2)))]
    document = {}
    for arch, name in picks:
        value = max(1, round(getattr(defaults[arch], name) * rng.choice(SCALES)))
        document.setdefault(arch, {})[name] = value
    return document


def sweep_variants(seed):
    """Variant 0 is the default calibration; then seeded what-ifs forever."""
    rng = random.Random(seed)
    yield {}
    while True:
        yield cost_variant(rng)


def render_report(overrides):
    """The full report under one what-if document, serial and uncached."""
    from repro import runner
    from repro.runner import cells, merge

    base = cells.full_report_cells()
    execs = [cells.with_cost_overrides(spec, overrides) for spec in base]
    outcome = runner.run_cells_outcome(
        execs, jobs=1, cache=None, policy=runner.RetryPolicy(max_retries=0, keep_going=True)
    )
    results = {
        spec.id: outcome.results[twin.id]
        for spec, twin in zip(base, execs)
        if twin.id in outcome.results
    }
    text = merge.full_report_text(results, partial=True)
    return text, len(outcome.failures)


def _run_ops(ops, seconds, result, tracer=None, warmup=0):
    """Run ``ops`` (a generator of ``(label, thunk)``) for ``seconds``.

    Returns ``[(label, start, end, value)]`` for the ops that succeeded; a
    thunk raising is a failed op, recorded by exception type.  The first
    ``warmup`` ops are run and checked before the clock starts, and are
    not returned.
    """
    if warmup:
        for _index, (_label, thunk) in zip(range(warmup), ops):
            result.attempted += 1
            try:
                thunk()
            except Exception as exc:  # the op boundary: count it and go on
                result.op_failed("%s: %s" % (type(exc).__name__, str(exc)[:80]))
        if tracer is not None:
            tracer.clear()
    done = []
    deadline = time.perf_counter() + seconds
    for index, (label, thunk) in enumerate(ops):
        if time.perf_counter() >= deadline:
            break
        result.attempted += 1
        # the previous op's garbage goes before the clock starts, so neither
        # an op's time nor the run's peak memory depends on when the cyclic
        # collector happened to run
        gc.collect()
        span = tracer.begin("bench.op", "%s#%d" % (label, index)) if tracer else None
        start = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:  # the op boundary: count it and go on
            result.op_failed("%s: %s" % (type(exc).__name__, str(exc)[:80]))
            value = None
        end = time.perf_counter()
        if span is not None:
            tracer.end(*span)
        if value is not None:
            done.append((label, start, end, value))
    return done


def scaled_s(monitor, start, end):
    """Host seconds over ``[start, end]``, at the reference speed."""
    return (end - start) * monitor.factor(start, end)


# --- whatif-sweep ------------------------------------------------------------


def sweep_ops(seed, result):
    for index, overrides in enumerate(sweep_variants(seed)):

        def op(index=index, overrides=overrides):
            text, failures = render_report(overrides)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            ok = result.check(OMISSION_MARKER not in text and not failures,
                              "variant %d: report has omitted sections" % index)
            if index == 0:
                ok = result.check(digest == GOLDEN_FULL_REPORT_SHA256,
                                  "variant 0: report sha256 %s is not the golden" % digest) and ok
            if not ok:
                raise AssertionError("report check failed")
            return digest

        yield "variant%d" % index, op


def whatif_sweep(seed, seconds, tracer=None):
    result = Result("whatif-sweep")
    # variant 0 (the golden check) also loads every lazily imported module
    return result, _run_ops(sweep_ops(seed, result), seconds, result, tracer, warmup=1)


def sweep_metrics(result, done, monitor):
    times_ms = [scaled_s(monitor, start, end) * 1000.0 for _l, start, end, _v in done]
    result.put("throughput_per_s", len(times_ms) * 1000.0 / sum(times_ms), "1/s", len(times_ms))
    result.put("latency_ms.p50", p50(times_ms), "ms", len(times_ms))
    result.put("latency_ms.p90", p90(times_ms), "ms", len(times_ms))


# --- long-sim ------------------------------------------------------------------


def walk(rng, choices):
    """Endless seeded permutations of ``choices``."""
    while True:
        yield from rng.sample(choices, len(choices))


def longsim_rounds(seed):
    """Rounds of TCP_RR on each ARM hypervisor and oversubscription on all four.

    Round 0 runs at the top of both size ranges, so the run's peak memory
    does not depend on the seed; later rounds walk the sizes in seeded order.
    """
    rng = random.Random(seed)
    yield RR_TRANSACTIONS[-1], OVERSUB_SWITCHES[-1], OVERSUB_TIMESLICES_US[0]
    yield from zip(
        walk(rng, RR_TRANSACTIONS),
        walk(rng, OVERSUB_SWITCHES),
        walk(rng, OVERSUB_TIMESLICES_US),
    )


def _tcprr(key, transactions, result):
    from repro.core.netanalysis import TcpRrBenchmark
    from repro.core.testbed import build_testbed

    testbed = build_testbed(key)
    rr = TcpRrBenchmark(testbed, transactions).run()
    completed = testbed.client_nic.rx_packets
    if not result.check(
        completed == transactions and rr.time_per_trans_us > 0,
        "%s TCP_RR completed %d of %d transactions" % (key, completed, transactions),
    ):
        raise AssertionError("TCP_RR check failed")
    return ("tx", transactions)


def _oversub(key, timeslice, switches, result):
    from repro.core.oversubscription import OversubscriptionExperiment

    interval_ms = switches * timeslice / 1000.0
    point = OversubscriptionExperiment(key, timeslice, interval_ms=interval_ms).run()
    if not result.check(
        point.switches > 0 and 0.0 < point.efficiency < 1.0,
        "%s oversubscription: %d switches, efficiency %r"
        % (key, point.switches, point.efficiency),
    ):
        raise AssertionError("oversubscription check failed")
    return ("switches", point.switches)


def longsim_ops(seed, result):
    for round_index, (transactions, switches, timeslice) in enumerate(longsim_rounds(seed)):
        ops = [
            ("rr:%s" % key, lambda key=key: _tcprr(key, transactions, result))
            for key in RR_KEYS
        ] + [
            ("oversub:%s" % key, lambda key=key: _oversub(key, timeslice, switches, result))
            for key in OVERSUB_KEYS
        ]
        for label, thunk in ops:
            yield "r%d/%s" % (round_index, label), thunk


def long_sim(seed, seconds, tracer=None):
    """Whole rounds only, so every run has the same mix of op kinds."""
    result = Result("long-sim")
    per_round = len(RR_KEYS) + len(OVERSUB_KEYS)
    ops = longsim_ops(seed, result)
    done = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        batch = [next(ops) for _ in range(per_round)]
        done.extend(_run_ops(iter(batch), float("inf"), result, tracer))
    return result, done


def longsim_metrics(result, done, monitor):
    """TCP_RR transactions per second; host ms per 1000 VM switches per round."""
    tx = tx_s = 0.0
    rounds = {}
    for label, start, end, (unit, count) in done:
        seconds = scaled_s(monitor, start, end)
        if unit == "tx":
            tx += count
            tx_s += seconds
        else:
            spent, switches = rounds.get(label.split("/")[0], (0.0, 0))
            rounds[label.split("/")[0]] = (spent + seconds, switches + count)
    ms_per_k = [spent * 1e6 / switches for spent, switches in rounds.values()]
    result.put("throughput_per_s", tx / tx_s, "1/s", sum(1 for d in done if d[3][0] == "tx"))
    result.put("latency_ms.p50", p50(ms_per_k), "ms", len(ms_per_k))
    result.put("latency_ms.p90", p90(ms_per_k), "ms", len(ms_per_k))
