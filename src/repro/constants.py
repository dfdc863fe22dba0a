"""Dependency-free names and defaults the command line offers.

``python -m repro --help`` lists every subcommand's choices and
defaults, but must not import the simulator, the runner or the server to
do it.  Each constant here has this one home; the subsystem that gives
it meaning imports it from here (``repro.runner.cells`` re-exports
``DEFAULT_RR_TRANSACTIONS``, ``repro.service.protocol`` re-exports
``DEFAULT_PORT``, ...), so the parser and the code it drives cannot
drift apart.  The platform keys live next to the paper's column order in
:mod:`repro.paperdata`.
"""

#: TCP_RR transactions simulated per Table V cell
DEFAULT_RR_TRANSACTIONS = 40

#: ``python -m repro bench``: result cache and bench document locations
BENCH_CACHE_DIR = ".repro-cache"
BENCH_DOCUMENT_PATH = "BENCH_suite.json"

#: ``python -m repro serve``/``query``: the service's TCP port
DEFAULT_PORT = 8123

#: ``python -m repro serve-bench``: closed-loop clients and document path
SERVE_BENCH_CLIENTS = 4
SERVE_BENCH_DOCUMENT_PATH = "SERVICE_bench.json"

#: ``python -m repro trace`` microbenchmark target -> MicrobenchmarkSuite method
TRACE_MICROBENCH_METHODS = {
    "hypercall": "hypercall",
    "intc-trap": "interrupt_controller_trap",
    "virtual-ipi": "virtual_ipi",
    "virq-complete": "virtual_irq_completion",
    "vm-switch": "vm_switch",
    "io-out": "io_latency_out",
    "io-in": "io_latency_in",
}

#: everything ``python -m repro trace`` accepts
TRACE_TARGETS = ["table3"] + sorted(TRACE_MICROBENCH_METHODS)

#: ``python -m repro sanitize`` target -> the ``repro.runner.cells`` group
#: it sweeps (``None``: the seeded fixtures of ``repro.sanitize.selftest``)
SANITIZE_TARGETS = {
    "suite": "full_report_cells",
    "table2": "table2_cells",
    "table3": "table3_cells",
    "table5": "table5_cells",
    "figure4": "figure4_cells",
    "ablation": "ablation_cells",
    "vhe": "vhe_cells",
    "oversub": "oversubscription_cells",
    "selftest": None,
}
