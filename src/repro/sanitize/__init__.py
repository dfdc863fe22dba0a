"""SimSan: a simulation-time sanitizer for the deterministic DES.

See :mod:`repro.sanitize.simsan` for the detector design, and
``python -m repro sanitize --help`` for the CLI.
"""

from repro.lazy import lazy_attributes

# loaded on first use: the detector pulls in the runner and the simulator
__getattr__ = lazy_attributes(
    __name__,
    {
        "SCHEMA": "runner",
        "TARGETS": "runner",
        "SimSan": "simsan",
        "sanitize_cell": "runner",
        "sanitize_target": "runner",
        "report": None,
        "runner": None,
        "selftest": None,
        "simsan": None,
        "writes": None,
    },
)

__all__ = ["SCHEMA", "TARGETS", "SimSan", "sanitize_cell", "sanitize_target"]
