"""Import budgets: each ``repro`` command loads only what its path runs.

Every case starts a fresh interpreter under ``-X importtime`` and reads
the modules it imported from stderr, so what is measured is exactly what
a user's ``python -m repro <command>`` loads.  Each case names modules
(or whole packages) that must not appear, and one that must, so a broken
collector cannot pass silently.
"""

import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parents[1]

_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+\d+\s+\|\s+(\S+)\s*$")

#: what a bare ``import repro.cli``, ``--help`` or ``figures`` never needs
PARSER_ONLY = (
    "repro.core.testbed",
    "repro.hv",
    "repro.sim",
    "repro.runner",
    "repro.service",
    "repro.sanitize",
    "repro.analysis",
    "repro.obs.capture",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "ssl",
    "http",
)

#: what a serial, uncached report run never needs
SERIAL_REPORT = (
    "repro.service",
    "repro.sanitize",
    "repro.analysis",
    "repro.obs.capture",
    "repro.runner.bench",
    "repro.runner.journal",
    "repro.runner.cache",
    "multiprocessing",
    "concurrent.futures.process",
    "asyncio",
)

#: what a sync client never needs: the simulator and the runner stay
#: server-side, and only the async client uses asyncio
CLIENT = ("repro.core", "repro.hv", "repro.sim", "repro.runner", "asyncio")

#: what ``repro serve --jobs 1`` never needs
SERVE_ONE_JOB = (
    "repro.sanitize",
    "repro.analysis",
    "repro.obs.capture",
    "repro.service.loadgen",
    "multiprocessing",
)


def _env():
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _imported(lines):
    return [match.group(1) for match in map(_IMPORT_LINE.match, lines) if match]


def _loaded(args):
    """Modules a fresh interpreter imports running ``args``."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return _imported(completed.stderr.splitlines())


def _offenders(modules, forbidden):
    return sorted(
        name
        for name in modules
        if any(name == banned or name.startswith(banned + ".") for banned in forbidden)
    )


@pytest.mark.parametrize(
    "args",
    [["-c", "import repro.cli"], ["-m", "repro", "--help"], ["-m", "repro", "figures"]],
    ids=["import-cli", "help", "figures"],
)
def test_parser_commands_load_no_subsystem(args):
    modules = _loaded(args)
    assert "repro.cli" in modules
    assert _offenders(modules, PARSER_ONLY) == []


@pytest.mark.parametrize("command", ["all", "table2"])
def test_serial_report_loads_no_service_cache_or_process_pool(command):
    modules = _loaded(["-m", "repro", command])
    assert "repro.sim.engine" in modules and "repro.runner.pool" in modules
    assert _offenders(modules, SERIAL_REPORT) == []


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import repro.service.client"],
        # nothing listens there: the health probe fails fast, exit 1
        ["-m", "repro", "query", "--health", "--no-retry", "--port", "PORT"],
    ],
    ids=["import-client", "query-health"],
)
def test_client_loads_no_simulator_or_runner(args):
    args = [str(_free_port()) if arg == "PORT" else arg for arg in args]
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    modules = _imported(completed.stderr.splitlines())
    assert "repro.service.client" in modules
    assert _offenders(modules, CLIENT) == []


def test_serve_loads_what_a_query_needs_before_ready_and_nothing_else():
    from repro.service.client import ServiceClient

    with subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", "serve", "--port", "0", "--jobs", "1"],
        env=_env(),
        cwd=ROOT,
        stderr=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        text=True,
    ) as process:
        try:
            before = []
            for line in process.stderr:
                ready = re.match(r"serving on http://[^:]+:(\d+)", line)
                if ready:
                    break
                before.append(line)
            assert ready, "server exited before it was ready"
            client = ServiceClient(port=int(ready.group(1)), timeout=120)
            document = client.query("table3", {}, {"arm": {"trap_to_el2": 77}})
            assert document["target"] == "table3"
        finally:
            process.terminate()
            after = process.stderr.read()
            process.wait(timeout=60)
    modules = _imported(before)
    assert "repro.service.queries" in modules and "repro.sim.engine" in modules
    assert _offenders(modules, SERVE_ONE_JOB) == []
    # the query itself imported nothing: readiness came after every import
    assert _imported(after.splitlines()) == []


def _action(command, dest):
    parser = cli.build_parser()
    (subparsers,) = [
        action for action in parser._actions if action.dest == "command"
    ]
    (action,) = [
        action for action in subparsers.choices[command]._actions if action.dest == dest
    ]
    return action


def test_parser_choices_and_defaults_equal_their_owners():
    from repro.core import testbed
    from repro.obs import capture
    from repro.runner import bench, cells
    from repro.sanitize import runner as sanitize_runner
    from repro.service import loadgen, protocol

    assert list(_action("micro", "platform").choices) == testbed.ALL_KEYS
    assert list(_action("trace", "platform").choices) == testbed.ALL_KEYS
    assert list(_action("trace", "target").choices) == capture.ALL_TARGETS
    assert list(_action("sanitize", "target").choices) == sorted(sanitize_runner.TARGETS)
    assert _action("table5", "transactions").default == cells.DEFAULT_RR_TRANSACTIONS
    assert _action("bench", "transactions").default == cells.DEFAULT_RR_TRANSACTIONS
    assert _action("bench", "cache_dir").default == bench.DEFAULT_CACHE_DIR
    assert _action("bench", "output").default == bench.DEFAULT_DOCUMENT_PATH
    assert _action("serve-bench", "clients").default == loadgen.DEFAULT_CLIENTS
    assert _action("serve-bench", "output").default == loadgen.DEFAULT_DOCUMENT_PATH
    for command in ("serve", "query"):
        assert "or %d" % protocol.DEFAULT_PORT in _action(command, "port").help
