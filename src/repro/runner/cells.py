"""The cell graph: the full report sharded into independent units.

A *cell* is the smallest independently simulable unit of the suite —
one (platform, hypervisor, benchmark/table) combination, or one sweep
point of the ablation/VHE/oversubscription grids.  Every cell is:

* **self-contained** — it builds its own testbeds from the platform key
  and parameters, so it can run in any process in any order;
* **deterministic** — the simulator guarantees the same payload for the
  same parameters, which is what makes both the worker fan-out and the
  content-addressed cache (:mod:`repro.runner.cache`) sound;
* **JSON-valued** — the payload is plain data (dicts/lists/numbers/
  strings), so a cached result is indistinguishable from a fresh one.

Cells deliberately deduplicate across report sections: Table II and the
Section VI VHE comparison both need the ``micro[key=kvm-arm]`` cell, so
the runner simulates it once and both sections merge from the same
payload (:mod:`repro.runner.merge` reassembles the ``*_data`` shapes).
"""

import dataclasses
import json

from repro import constants
from repro.core.appbench import run_figure4
from repro.core.breakdown import hypercall_breakdown
from repro.core.irqbalance import run_irq_distribution_ablation
from repro.core.microbench import MicrobenchmarkSuite
from repro.core.netanalysis import TcpRrBenchmark
from repro.core.oversubscription import OversubscriptionExperiment
from repro.core.testbed import build_testbed, native_testbed
from repro.errors import ConfigurationError
from repro.hw import costs as hw_costs
from repro.paperdata import PLATFORM_ORDER
from repro.runner import faults
from repro.workloads import FIGURE4_WORKLOADS

#: netperf TCP_RR transactions simulated per Table V cell (the
#: ``run_table5`` default; ``python -m repro table5 --transactions`` and
#: the cache key both carry the actual value).  Its home is
#: :mod:`repro.constants`, which the CLI parser reads without this module.
DEFAULT_RR_TRANSACTIONS = constants.DEFAULT_RR_TRANSACTIONS

#: Table V columns, in report order.
TCPRR_CONFIGS = ("native", "kvm", "xen")
#: the Section V ablation grid (keys outer, workloads inner — the
#: serial ``run_irq_distribution_ablation`` iteration order).
ABLATION_KEYS = ("kvm-arm", "xen-arm")
ABLATION_WORKLOADS = ("Apache", "Memcached")
#: the Section VI comparison pair: split-mode KVM vs the VHE what-if.
VHE_KEYS = ("kvm-arm", "kvm-vhe-arm")
#: timeslice sweep of the oversubscription experiment (mirrors
#: ``repro.core.oversubscription.sweep``'s default grid).
OVERSUB_TIMESLICES_US = (100.0, 500.0, 1000.0, 4000.0)

_WORKLOADS_BY_NAME = {workload.name: type(workload) for workload in FIGURE4_WORKLOADS}


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One independently simulable unit: a kind plus frozen parameters.

    ``params`` is a tuple of ``(name, value)`` pairs sorted by name, so
    equal cells compare (and hash, and pickle) equal and the cell id is
    canonical.
    """

    kind: str
    params: tuple = ()

    @property
    def id(self):
        if not self.params:
            return self.kind
        inner = ",".join("%s=%s" % (name, value) for name, value in self.params)
        return "%s[%s]" % (self.kind, inner)

    def params_dict(self):
        return dict(self.params)


def _spec(kind, **params):
    return CellSpec(kind, tuple(sorted(params.items())))


#: reserved parameter name carrying a what-if cost-override document
#: (canonical JSON text; see :func:`with_cost_overrides`)
COSTS_PARAM = "costs"


def with_cost_overrides(spec, overrides):
    """The same cell under a what-if cost-override document.

    The document is validated and canonicalized
    (:func:`repro.hw.costs.validate_overrides`) and then embedded in the
    cell's parameters as compact sorted JSON — so the override travels
    with the spec across process boundaries, distinguishes the cell's
    content-addressed cache key from the default-calibration cell, and
    shows up verbatim in the cell id (which fault plans key on).
    """
    if not overrides:
        return spec
    document = hw_costs.validate_overrides(overrides)
    if not document:
        return spec
    params = dict(spec.params)
    params[COSTS_PARAM] = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    )
    return CellSpec(spec.kind, tuple(sorted(params.items())))


def strip_cost_overrides(spec):
    """The default-calibration twin of an override-carrying cell."""
    if COSTS_PARAM not in dict(spec.params):
        return spec
    return CellSpec(
        spec.kind, tuple(item for item in spec.params if item[0] != COSTS_PARAM)
    )


# --- cell constructors (the vocabulary of the graph) ---------------------


def micro(key):
    """Table II column: the seven microbenchmarks on one platform."""
    return _spec("micro", key=key)


def breakdown():
    """Table III: the KVM ARM hypercall save/restore attribution."""
    return _spec("breakdown")


def tcprr(config, transactions=DEFAULT_RR_TRANSACTIONS):
    """Table V column: one TCP_RR configuration (native/kvm/xen)."""
    return _spec("tcprr", config=config, transactions=transactions)


def appcol(key, irq_vcpus=1):
    """Figure 4 column: every application workload on one platform."""
    return _spec("appcol", key=key, irq_vcpus=irq_vcpus)


def ablation(key, workload):
    """Section V sweep point: one (platform, workload) IRQ-distribution run."""
    return _spec("ablation", key=key, workload=workload)


def oversub(key, timeslice_us):
    """Oversubscription sweep point: one (platform, timeslice) run."""
    return _spec("oversub", key=key, timeslice_us=timeslice_us)


# --- cell executors ------------------------------------------------------


def _run_micro(params):
    testbed = build_testbed(params["key"])
    return dict(MicrobenchmarkSuite(testbed).run_all())


def _run_breakdown(_params):
    result = hypercall_breakdown()
    return {
        "rows": [dataclasses.asdict(row) for row in result.rows],
        "other_cycles": result.other_cycles,
        "total_cycles": result.total_cycles,
    }


def _run_tcprr(params):
    config = params["config"]
    if config == "native":
        testbed = native_testbed("arm")
    elif config in ("kvm", "xen"):
        testbed = build_testbed("%s-arm" % config)
    else:
        raise ConfigurationError("unknown TCP_RR config %r" % (config,))
    result = TcpRrBenchmark(testbed, params["transactions"]).run()
    return dataclasses.asdict(result)


def _run_appcol(params):
    key = params["key"]
    grid = run_figure4([key], irq_vcpus=params["irq_vcpus"])
    return {
        workload: dataclasses.asdict(row[key]) for workload, row in grid.items()
    }


def _run_ablation(params):
    name = params["workload"]
    if name not in _WORKLOADS_BY_NAME:
        raise ConfigurationError("unknown workload %r" % (name,))
    workload_cls = _WORKLOADS_BY_NAME[name]
    results = run_irq_distribution_ablation(
        keys=(params["key"],), workloads=[workload_cls()]
    )
    (point,) = results.values()
    return dataclasses.asdict(point)


def _run_oversub(params):
    point = OversubscriptionExperiment(params["key"], params["timeslice_us"]).run()
    payload = dataclasses.asdict(point)
    payload["efficiency"] = point.efficiency
    return payload


CELL_KINDS = {
    "micro": _run_micro,
    "breakdown": _run_breakdown,
    "tcprr": _run_tcprr,
    "appcol": _run_appcol,
    "ablation": _run_ablation,
    "oversub": _run_oversub,
}


def run_cell(spec, attempt=0):
    """Execute one cell in this process; returns its JSON payload.

    ``attempt`` is the cell's submission index (0 on the first try); it
    only matters to the deterministic fault-injection hook, which is a
    no-op unless ``REPRO_FAULT_PLAN`` is set (chaos tests / CI).

    A cell carrying a ``costs`` parameter (see
    :func:`with_cost_overrides`) simulates under that what-if override
    document; the testbeds it builds see the overridden primitives and
    nothing outside the cell does.
    """
    faults.on_run_cell(spec.id, attempt)
    runner = CELL_KINDS.get(spec.kind)
    if runner is None:
        raise ConfigurationError("unknown cell kind %r" % (spec.kind,))
    params = spec.params_dict()
    encoded = params.pop(COSTS_PARAM, None)
    if encoded is None:
        return runner(params)
    with hw_costs.overriding(json.loads(encoded)):
        return runner(params)


# --- grids ---------------------------------------------------------------


def dedupe(specs):
    """Drop repeated cells, keeping first-occurrence order."""
    seen = {}
    for spec in specs:
        if spec not in seen:
            seen[spec] = None
    return list(seen)


def table2_cells(keys=None):
    return [micro(key) for key in (keys or PLATFORM_ORDER)]


def table3_cells():
    return [breakdown()]


def table5_cells(transactions=DEFAULT_RR_TRANSACTIONS):
    return [tcprr(config, transactions) for config in TCPRR_CONFIGS]


def figure4_cells(keys=None, irq_vcpus=1):
    return [appcol(key, irq_vcpus) for key in (keys or PLATFORM_ORDER)]


def ablation_cells(keys=ABLATION_KEYS, workloads=ABLATION_WORKLOADS):
    return [ablation(key, workload) for key in keys for workload in workloads]


def vhe_cells():
    return [micro(key) for key in VHE_KEYS] + [appcol(key) for key in VHE_KEYS]


def oversubscription_cells(keys=None, timeslices_us=OVERSUB_TIMESLICES_US):
    return [
        oversub(key, timeslice)
        for key in (keys or PLATFORM_ORDER)
        for timeslice in timeslices_us
    ]


def full_report_cells(transactions=DEFAULT_RR_TRANSACTIONS):
    """Everything ``suite.full_report()`` needs, deduplicated, in order."""
    return dedupe(
        table2_cells()
        + table3_cells()
        + table5_cells(transactions)
        + figure4_cells()
        + ablation_cells()
        + vhe_cells()
    )


def bench_cells(transactions=DEFAULT_RR_TRANSACTIONS):
    """The ``python -m repro bench`` grid: the full report plus the
    oversubscription sweep (simulated and cached, reported in
    ``BENCH_suite.json``; not part of the rendered report)."""
    return dedupe(full_report_cells(transactions) + oversubscription_cells())
