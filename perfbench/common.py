"""Helpers shared by the workloads: paths, set-up timing, memory, quantiles."""

import os
import pathlib
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (caches, server traces); removed after a run
WORK = ROOT / ".perfbench_tmp"
#: where traced runs leave their span files
TRACE_DIR = ROOT / ".perfbench_out"

#: fresh interpreters timed per run for the batch ``setup_s``
SETUP_SAMPLES = 7

#: packages whose import time the traced run reports
IMPORT_PACKAGES = ("repro.core", "repro.runner", "repro.service", "repro.analysis", "repro.obs")


class NotACheckout(Exception):
    """The tree is not a runnable checkout of the package."""


def prepare():
    """Make ``repro`` importable from the checkout; fail fast if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise NotACheckout("no package at %s: run from a checkout of the repository" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)


def cleanup():
    shutil.rmtree(WORK, ignore_errors=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def import_setup_windows(cpu, samples=SETUP_SAMPLES):
    """``(start, end)`` of fresh interpreters running ``import repro.cli`` on ``cpu``."""
    env = child_env()
    windows = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        windows.append((start, time.perf_counter()))
    return windows


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times_ms(samples=3):
    """Median cumulative import time per package, via ``-X importtime``."""
    env = child_env()
    statement = "; ".join("import %s" % name for name in ("repro.cli",) + IMPORT_PACKAGES)
    runs = {name: [] for name in IMPORT_PACKAGES}
    for _ in range(samples):
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", statement],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        seen = {}
        for line in completed.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(3).strip() in runs:
                seen[match.group(3).strip()] = int(match.group(2)) / 1000.0
        for name in IMPORT_PACKAGES:
            runs[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in runs.items()}


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid):
    """A live process's peak resident set (``VmHWM``) in MiB."""
    with open("/proc/%d/status" % pid, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def p50(values):
    return statistics.median(values)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


class Unscaled:
    """A stand-in for :class:`speed.Monitor` that leaves host times raw."""

    @staticmethod
    def factor(_start, _end):
        return 1.0


UNSCALED = Unscaled()


class Result:
    """One workload run: op accounting, end-to-end and per-layer metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.errors = {}
        self.metrics = {}  # name -> (value, unit, samples)
        self.raw_metrics = {}  # the same end-to-end metrics from unscaled host time
        self.info = {}  # name -> value: printed, not part of the result object

    def op_failed(self, kind):
        self.failed += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def check(self, condition, message):
        """A correctness check; a miss is kept and makes the run incorrect."""
        if not condition:
            self.check_failures.append(message)
        return condition

    def put(self, name, value, unit, samples):
        self.metrics[name] = (float(value), unit, int(samples))

    @property
    def correct(self):
        return not self.check_failures
