"""Host-speed monitor: express host times at a fixed reference speed.

The benchmark runs on shared machines whose CPUs change speed by tens of
percent from one second to the next (other tenants on sibling hardware
threads).  A *probe* -- a fixed slice of pure-Python work shaped like the
simulator's hot loop: heap pushes and pops, generator resumes, dict and
attribute traffic -- is timed on the CPU the measured code runs on,
every ``INTERVAL_S``, by a small process pinned to that CPU.  A host time
measured over ``[start, end]`` is then scaled by ``REFERENCE_PROBE_S /
median(probe times near that window)``: the time the same work would
have taken at the reference speed.  A change to the package moves the
scaled time exactly as it moves the raw time; a change in the machine's
speed moves raw time and probe time alike and cancels.

Run as a script (``python speed.py OUT``), this module is the probe
process: it appends ``<perf_counter> <probe thread-CPU seconds>`` lines
to ``OUT`` until its standard input closes.
"""

import bisect
import heapq
import os
import statistics
import subprocess
import sys
import tempfile
import time

#: probe time (thread CPU seconds) that defines the reference speed
REFERENCE_PROBE_S = 0.00125
INTERVAL_S = 0.025
#: probe samples are taken from this far around a measured window
MARGIN_S = 0.3


class _Node:
    __slots__ = ("value", "hits")

    def __init__(self, value):
        self.value = value
        self.hits = 0


def _worker(nodes):
    total = 0
    while True:
        index = yield total
        node = nodes[index % len(nodes)]
        node.hits += 1
        total += node.value


def probe():
    """Thread CPU seconds for one fixed slice of simulator-shaped work."""
    start = time.thread_time()
    nodes = [_Node(i) for i in range(64)]
    worker = _worker(nodes)
    next(worker)
    queue = []
    table = {}
    for step in range(1250):
        heapq.heappush(queue, ((step * 7919) % 1009, step))
        if len(queue) > 32:
            _when, item = heapq.heappop(queue)
            table[item & 255] = table.get(item & 255, 0) + worker.send(item)
    return time.thread_time() - start


def cpus():
    """``(measured_cpu, other_cpu)`` from this process's allowed set."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], (allowed[1] if len(allowed) > 1 else allowed[0])


def pin(cpu):
    os.sched_setaffinity(0, {cpu})


class Monitor:
    """A probe process pinned to ``cpu``; collects its samples."""

    def __init__(self, cpu, directory):
        handle, path = tempfile.mkstemp(prefix="probe-", suffix=".txt", dir=directory)
        os.close(handle)
        self.path = path
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdin=subprocess.PIPE,
            preexec_fn=lambda: pin(cpu),
        )
        self.times = []
        self.probes = []

    def stop(self):
        """End the probe process and keep its samples (sorted by time)."""
        self.process.communicate(input=b"", timeout=30)
        with open(self.path, encoding="ascii") as handle:
            lines = handle.read().splitlines()
        os.unlink(self.path)
        for line in lines:
            stamp, seconds = line.split()
            self.times.append(float(stamp))
            self.probes.append(float(seconds))

    def factor(self, start, end):
        """Reference-speed scale for host time measured over ``[start, end]``."""
        low = bisect.bisect_left(self.times, start - MARGIN_S)
        high = bisect.bisect_right(self.times, end + MARGIN_S)
        window = self.probes[low:high] or self.probes
        return REFERENCE_PROBE_S / statistics.median(window)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        if self.process.poll() is None:
            self.stop()
        return False


def main(path):
    import select

    with open(path, "w", encoding="ascii") as out:
        while True:
            ready, _w, _x = select.select([sys.stdin], [], [], INTERVAL_S)
            if ready and not os.read(sys.stdin.fileno(), 1):
                return 0
            seconds = probe()
            out.write("%.6f %.9f\n" % (time.perf_counter(), seconds))
            out.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
