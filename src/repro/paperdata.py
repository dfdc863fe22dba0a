"""Published results from the paper, as reference data.

Used only for *validation and reporting* — never as inputs to the
simulation (see the calibration discipline in DESIGN.md: primitives may
come from Table III; composed results must emerge from executed paths).

Sources:
* TABLE2, TABLE3, TABLE5: verbatim from the paper.
* FIGURE4: the paper prints Figure 4 as a bar chart without a data table;
  entries marked ``exact=False`` are digitized/derived from the prose
  (e.g. "35% overhead on Apache", "more than 250% overhead on
  TCP_STREAM") and carry looser tolerances in the benches.
"""

import dataclasses

#: Table II: microbenchmark cycle counts.
TABLE2 = {
    "Hypercall": {"kvm-arm": 6500, "xen-arm": 376, "kvm-x86": 1300, "xen-x86": 1228},
    "Interrupt Controller Trap": {
        "kvm-arm": 7370,
        "xen-arm": 1356,
        "kvm-x86": 2384,
        "xen-x86": 1734,
    },
    "Virtual IPI": {
        "kvm-arm": 11557,
        "xen-arm": 5978,
        "kvm-x86": 5230,
        "xen-x86": 5562,
    },
    "Virtual IRQ Completion": {
        "kvm-arm": 71,
        "xen-arm": 71,
        "kvm-x86": 1556,
        "xen-x86": 1464,
    },
    "VM Switch": {
        "kvm-arm": 10387,
        "xen-arm": 8799,
        "kvm-x86": 4812,
        "xen-x86": 10534,
    },
    "I/O Latency Out": {
        "kvm-arm": 6024,
        "xen-arm": 16491,
        "kvm-x86": 560,
        "xen-x86": 11262,
    },
    "I/O Latency In": {
        "kvm-arm": 13872,
        "xen-arm": 15650,
        "kvm-x86": 18923,
        "xen-x86": 10050,
    },
}

#: Table III: KVM ARM hypercall save/restore breakdown (cycles).
TABLE3 = {
    "GP Regs": {"save": 152, "restore": 184},
    "FP Regs": {"save": 282, "restore": 310},
    "EL1 System Regs": {"save": 230, "restore": 511},
    "VGIC Regs": {"save": 3250, "restore": 181},
    "Timer Regs": {"save": 104, "restore": 106},
    "EL2 Config Regs": {"save": 92, "restore": 107},
    "EL2 Virtual Memory Regs": {"save": 92, "restore": 107},
}

#: Table V: Netperf TCP_RR analysis on ARM (microseconds).
TABLE5 = {
    "Trans/s": {"native": 23911, "kvm": 11591, "xen": 10253},
    "Time/trans": {"native": 41.8, "kvm": 86.3, "xen": 97.5},
    "Overhead": {"native": None, "kvm": 44.5, "xen": 55.7},
    "send to recv": {"native": 29.7, "kvm": 29.8, "xen": 33.9},
    "recv to send": {"native": 14.5, "kvm": 53.0, "xen": 64.6},
    "recv to VM recv": {"native": None, "kvm": 21.1, "xen": 25.9},
    "VM recv to VM send": {"native": None, "kvm": 16.9, "xen": 17.4},
    "VM send to send": {"native": None, "kvm": 15.0, "xen": 21.4},
}


@dataclasses.dataclass
class Figure4Point:
    """One bar of Figure 4: overhead normalized to native (1.0)."""

    value: float
    exact: bool  # True when derivable from the paper's prose/tables


#: Figure 4: normalized application benchmark performance (lower = better,
#: 1.0 = native).  None = the configuration could not run (Apache crashed
#: Dom0 on Xen x86 — a Mellanox driver bug exposed by Xen's I/O model).
FIGURE4 = {
    "Kernbench": {
        "kvm-arm": Figure4Point(1.12, False),
        "xen-arm": Figure4Point(1.07, False),
        "kvm-x86": Figure4Point(1.12, False),
        "xen-x86": Figure4Point(1.05, False),
    },
    "Hackbench": {
        "kvm-arm": Figure4Point(1.15, True),  # Xen beats KVM by ~5% of native
        "xen-arm": Figure4Point(1.10, True),
        # the x86 hypervisors share the VMCS IPI path, so their bars sit
        # close together; both digitizations are low-confidence
        "kvm-x86": Figure4Point(1.15, False),
        "xen-x86": Figure4Point(1.12, False),
    },
    "SPECjvm2008": {
        "kvm-arm": Figure4Point(1.05, False),
        "xen-arm": Figure4Point(1.04, False),
        "kvm-x86": Figure4Point(1.04, False),
        "xen-x86": Figure4Point(1.05, False),
    },
    "TCP_RR": {
        "kvm-arm": Figure4Point(2.06, True),  # 86.3 / 41.8 us (Table V)
        "xen-arm": Figure4Point(2.33, True),  # 97.5 / 41.8 us
        "kvm-x86": Figure4Point(1.90, False),
        "xen-x86": Figure4Point(2.10, False),
    },
    "TCP_STREAM": {
        "kvm-arm": Figure4Point(1.02, True),  # "almost no overhead"
        "xen-arm": Figure4Point(3.55, True),  # "more than 250% overhead"
        "kvm-x86": Figure4Point(1.02, True),
        "xen-x86": Figure4Point(2.90, False),
    },
    "TCP_MAERTS": {
        "kvm-arm": Figure4Point(1.10, False),
        "xen-arm": Figure4Point(2.55, True),  # "substantially higher" (TSO bug)
        "kvm-x86": Figure4Point(1.05, False),
        "xen-x86": Figure4Point(2.20, False),
    },
    "Apache": {
        "kvm-arm": Figure4Point(1.35, True),  # "overhead ... 35%" (Section V)
        "xen-arm": Figure4Point(1.84, True),  # "from 84% to 16%"
        # the kvm-x86 bar is the least-constrained digitization in the
        # figure; the paper's prose only says ARM overhead is "similar,
        # and in some cases lower" than x86's
        "kvm-x86": Figure4Point(1.30, False),
        "xen-x86": None,  # Dom0 kernel panic; could not run
    },
    "Memcached": {
        "kvm-arm": Figure4Point(1.26, True),  # "from 26% to 8%"
        "xen-arm": Figure4Point(1.32, True),  # "from 32% to 9%"
        "kvm-x86": Figure4Point(1.25, False),
        "xen-x86": Figure4Point(1.45, False),
    },
    "MySQL": {
        "kvm-arm": Figure4Point(1.10, False),
        "xen-arm": Figure4Point(1.12, False),
        "kvm-x86": Figure4Point(1.08, False),
        "xen-x86": Figure4Point(1.13, False),
    },
}

#: Section V ablation: overhead (%) with all virtual IRQs on one VCPU vs
#: distributed across VCPUs.
IRQ_DISTRIBUTION_ABLATION = {
    ("kvm-arm", "Apache"): {"single": 35, "distributed": 14},
    ("kvm-arm", "Memcached"): {"single": 26, "distributed": 8},
    ("xen-arm", "Apache"): {"single": 84, "distributed": 16},
    ("xen-arm", "Memcached"): {"single": 32, "distributed": 9},
}

#: Section VI projections for VHE (KVM ARM running entirely in EL2).
VHE_PROJECTIONS = {
    "hypercall_improvement_floor": 10.0,  # "more than an order of magnitude"
    "io_workload_improvement_range": (0.10, 0.20),  # "10% to 20%"
}

#: The paper's platform columns (Table II order).
PLATFORM_ORDER = ["kvm-arm", "xen-arm", "kvm-x86", "xen-x86"]

#: Every platform key a testbed can be built for: the paper's four
#: columns plus the ARMv8.1 VHE projection.
ALL_KEYS = PLATFORM_ORDER + ["kvm-vhe-arm"]
