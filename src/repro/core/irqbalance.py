"""Section V ablation: distributing virtual interrupts across VCPUs.

The paper verified the interrupt bottleneck by spreading virtual
interrupts over all VCPUs and watching the overhead collapse (Apache:
KVM 35%->14%, Xen 84%->16%; Memcached: KVM 26%->8%, Xen 32%->9%).
This module reruns the affected workload models with the IRQ affinity
widened from one VCPU to all four.
"""

import dataclasses

from repro.core.appbench import run_workload
from repro.core.derived import measure_derived_costs
from repro.workloads import Apache, Memcached


@dataclasses.dataclass
class AblationPoint:
    workload: str
    key: str
    single_overhead_pct: float
    distributed_overhead_pct: float
    single_bottleneck: str
    distributed_bottleneck: str

    @property
    def improvement_pct(self):
        return self.single_overhead_pct - self.distributed_overhead_pct


def run_irq_distribution_ablation(
    keys=("kvm-arm", "xen-arm"), workloads=None, derived=None
):
    """Returns {(key, workload): AblationPoint}.

    ``derived`` maps a key to its already measured
    :class:`~repro.core.derived.DerivedOpCosts`; a key it lacks is
    measured here.
    """
    if workloads is None:
        workloads = [Apache(), Memcached()]
    results = {}
    for key in keys:
        costs = (derived or {}).get(key) or measure_derived_costs(key)
        for workload in workloads:
            single = run_workload(workload, key, irq_vcpus=1, derived=costs)
            distributed = run_workload(workload, key, irq_vcpus=4, derived=costs)
            results[(key, workload.name)] = AblationPoint(
                workload=workload.name,
                key=key,
                single_overhead_pct=(single.normalized - 1.0) * 100.0,
                distributed_overhead_pct=(distributed.normalized - 1.0) * 100.0,
                single_bottleneck=single.bottleneck,
                distributed_bottleneck=distributed.bottleneck,
            )
    return results
