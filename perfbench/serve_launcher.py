"""Run ``repro serve`` with the benchmark's tracing wrappers installed.

Usage: ``python perfbench/serve_launcher.py TRACE_OUT serve [serve flags]``.
The server runs exactly as ``python -m repro serve`` would; when it exits
(SIGTERM drains it), the spans and counters it gathered are written to
``TRACE_OUT`` as JSON.
"""

import sys

from common import prepare
from tracing import Tracer, install, write_trace


def main(argv):
    trace_out, serve_args = argv[0], argv[1:]
    prepare()
    import repro.cli
    import repro.service.server  # noqa: F401  (the layers must be loaded to be wrapped)

    tracer = Tracer()
    install(tracer)
    try:
        return repro.cli.main(serve_args)
    finally:
        write_trace(trace_out, tracer.dump())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
