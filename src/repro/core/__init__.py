"""The paper's measurement framework and analyses.

* :mod:`repro.core.testbed` — builds the paper's Section III configurations
* :mod:`repro.core.microbench` — the seven Table I microbenchmarks
* :mod:`repro.core.breakdown` — the Table III save/restore breakdown
* :mod:`repro.core.netanalysis` — the Table V TCP_RR decomposition
* :mod:`repro.core.appbench` — the Figure 4 application benchmarks
* :mod:`repro.core.irqbalance` — the Section V interrupt-distribution ablation
* :mod:`repro.core.vhe_projection` — the Section VI VHE analysis
* :mod:`repro.core.reporting` — table/figure rendering
* :mod:`repro.core.suite` — one-call entry points
"""

from repro.lazy import lazy_attributes

# loaded on first use: ``repro.core.reporting`` alone needs no simulator
__getattr__ = lazy_attributes(
    __name__,
    {
        "MICROBENCHMARKS": "microbench",
        "MicrobenchmarkSuite": "microbench",
        "PLATFORM_KEYS": "testbed",
        "Testbed": "testbed",
        "build_testbed": "testbed",
    },
)

__all__ = [
    "MICROBENCHMARKS",
    "MicrobenchmarkSuite",
    "PLATFORM_KEYS",
    "Testbed",
    "build_testbed",
]
