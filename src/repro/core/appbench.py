"""Figure 4: application benchmark performance, normalized to native.

For each platform column the runner:

1. measures the per-operation costs by executing the simulated
   hypervisor paths (:mod:`repro.core.derived`),
2. runs the packet-level TCP_RR simulation for the latency bar,
3. feeds both into the workload models' event mixes.

Normalized values use the paper's convention: 1.0 = native, higher =
worse.
"""

import dataclasses

from repro.core.derived import measure_derived_costs
from repro.core.netanalysis import TcpRrBenchmark
from repro.core.testbed import build_platform, build_testbed, native_testbed, parse_key
from repro.os.kernel import KernelModel
from repro.os.netstack import NetstackModel
from repro.sim import Clock
from repro.workloads import FIGURE4_WORKLOADS


@dataclasses.dataclass
class AppBenchContext:
    """Everything a workload model may consult besides derived op costs."""

    costs: object  # the platform's primitive cost model
    clock: Clock
    netstack: NetstackModel
    kernel: KernelModel
    #: how many VCPUs receive virtual device interrupts (Section V: 1 by
    #: default; 4 for the distributed-IRQ ablation)
    irq_vcpus: int = 1
    wire_bps: float = 10e9
    #: whether the guest's TCP autosizing regression has been tuned away
    tso_autosizing_fixed: bool = False
    _rr_cache: dict = dataclasses.field(default_factory=dict)
    rr_transactions: int = 12

    @property
    def bulk_segment_us(self):
        return self.clock.us_from_cycles(self.netstack.bulk_segment_cycles())

    @property
    def native_ipi_cycles(self):
        return self.kernel.resched_ipi_cycles() + self.kernel.local_wakeup_cycles()

    def rr_times_us(self, key):
        """(native, virtualized) time-per-transaction for this platform."""
        if key not in self._rr_cache:
            _hv_kind, arch, _vhe = parse_key(key)
            native = TcpRrBenchmark(
                native_testbed(arch), transactions=self.rr_transactions
            ).run()
            virt = TcpRrBenchmark(
                build_testbed(key), transactions=self.rr_transactions
            ).run()
            self._rr_cache[key] = (native.time_per_trans_us, virt.time_per_trans_us)
        return self._rr_cache[key]


def make_context(key, irq_vcpus=1, tso_autosizing_fixed=False):
    """Build the model context for one platform key.

    The context only reads the platform's costs and clock and the OS
    models over that clock, so no testbed (machine, hypervisor, VMs) is
    booted for it.
    """
    platform = build_platform(key)
    clock = Clock(platform.frequency_hz)
    return AppBenchContext(
        costs=platform.costs,
        clock=clock,
        netstack=NetstackModel(clock),
        kernel=KernelModel(clock),
        irq_vcpus=irq_vcpus,
        tso_autosizing_fixed=tso_autosizing_fixed,
    )


def run_workload(workload, key, irq_vcpus=1, tso_autosizing_fixed=False, derived=None):
    """Run one workload model on one platform."""
    if derived is None:
        derived = measure_derived_costs(key)
    context = make_context(key, irq_vcpus, tso_autosizing_fixed)
    return workload.run(derived, context)


def run_figure4(keys, irq_vcpus=1, workloads=None):
    """The full Figure 4 grid: {workload name: {key: WorkloadResult}}."""
    if workloads is None:
        workloads = FIGURE4_WORKLOADS
    derived = {key: measure_derived_costs(key) for key in keys}
    contexts = {key: make_context(key, irq_vcpus) for key in keys}
    grid = {}
    for workload in workloads:
        grid[workload.name] = {
            key: workload.run(derived[key], contexts[key]) for key in keys
        }
    return grid
