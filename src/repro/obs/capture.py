"""Trace capture: run an instrumented operation with observability on.

This is the machinery behind ``python -m repro trace``: build a fresh
testbed, enable ``machine.obs``, execute one Table I operation (or the
Table III breakdown run), and hand back the populated recorder plus —
for ``table3`` — the breakdown object, so exporters can prove the span
totals reconcile with the published table's rows.

Imports run downward only (obs.capture -> core -> hv/hw -> obs), and
this module is *not* pulled in by ``repro.obs`` itself, so the base
observability layer stays import-light.
"""

import dataclasses

from repro import constants
from repro.core.breakdown import hypercall_breakdown
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.testbed import build_testbed
from repro.errors import ConfigurationError
from repro.hw.cpu.registers import RegClass

#: CLI trace target -> MicrobenchmarkSuite method name.
MICROBENCH_TARGETS = constants.TRACE_MICROBENCH_METHODS

#: Everything ``python -m repro trace`` accepts.
ALL_TARGETS = constants.TRACE_TARGETS


@dataclasses.dataclass
class Capture:
    """One traced run: the machine's populated observability bundle."""

    key: str
    target: str
    cycles: int
    obs: object
    machine: object
    breakdown: object = None

    def reconciliation(self):
        """Span-layer save/restore totals next to the Table III rows.

        Only meaningful for ``table3`` captures; proves the exported
        spans carry exactly the cycles the breakdown attributes.
        """
        if self.breakdown is None:
            return None
        leaf = self.obs.spans.leaf_totals()
        rows = []
        for reg_class in RegClass:
            suffix = reg_class.name.lower()
            row = self.breakdown.row(reg_class.value)
            rows.append(
                {
                    "register_state": reg_class.value,
                    "save_cycles": row.save_cycles,
                    "save_span_cycles": leaf.get("save_%s" % suffix, 0),
                    "restore_cycles": row.restore_cycles,
                    "restore_span_cycles": leaf.get("restore_%s" % suffix, 0),
                }
            )
        return {
            "rows": rows,
            "total_cycles": self.breakdown.total_cycles,
            "root_span_cycles": sum(root.duration for root in self.obs.spans.roots),
            "other_cycles": self.breakdown.other_cycles,
        }


def capture_table3(trace_resume=False):
    """Run the Table III breakdown (KVM ARM hypercall) with spans on."""
    testbed = build_testbed("kvm-arm")
    machine = testbed.machine
    machine.obs.enable(trace_resume=trace_resume)
    breakdown = hypercall_breakdown(testbed)
    machine.obs.disable()
    return Capture(
        key="kvm-arm",
        target="table3",
        cycles=breakdown.total_cycles,
        obs=machine.obs,
        machine=machine,
        breakdown=breakdown,
    )


def capture_microbench(target, key="kvm-arm", trace_resume=False):
    """Run one Table I microbenchmark traced on platform ``key``."""
    if target not in MICROBENCH_TARGETS:
        raise ConfigurationError(
            "unknown trace target %r (choose from %s)" % (target, ", ".join(ALL_TARGETS))
        )
    testbed = build_testbed(key)
    machine = testbed.machine
    machine.obs.enable(trace_resume=trace_resume)
    suite = MicrobenchmarkSuite(testbed, iterations=1)
    result = getattr(suite, MICROBENCH_TARGETS[target])()
    machine.obs.disable()
    return Capture(
        key=key,
        target=target,
        cycles=result.cycles,
        obs=machine.obs,
        machine=machine,
    )


def capture(target, key="kvm-arm", trace_resume=False):
    """Dispatch on ``target`` (``table3`` or a microbenchmark name)."""
    if target == "table3":
        return capture_table3(trace_resume=trace_resume)
    return capture_microbench(target, key=key, trace_resume=trace_resume)
