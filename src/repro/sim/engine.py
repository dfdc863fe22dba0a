"""The discrete-event engine: a deterministic cycle-granular event loop."""

import heapq

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, SimEvent, Timeout
from repro.sim.process import Process

#: the in-place bound outside any run loop: no Timeout is below it
_NO_LOOP = -1
#: the in-place bound of a loop that has no ``until``/``deadline``
_UNBOUNDED = float("inf")


class Engine:
    """Deterministic discrete-event engine with integer cycle time.

    Events scheduled for the same cycle run in scheduling order (FIFO),
    making every simulation fully reproducible.

    A process whose yielded Timeout is the running loop's next event
    resumes in place, with no heap entry (see :meth:`dispatch`).
    """

    #: optional class-wide construction hook, called with each new engine.
    #: The suite runner (repro.runner) uses it to account the engines a
    #: cell builds and the cycles they simulate; it must never schedule
    #: events or otherwise feed back into the simulation.
    created_hook = None

    #: optional class-wide sanitizer (see repro.sanitize.SimSan).  When
    #: set, it supplies the equal-time ordering key pushed into the heap
    #: (which is how the tie-break can be deterministically inverted) and
    #: observes every schedule/fire for provenance.  When set, every
    #: Timeout goes through the heap (no in-place resume), so a FIFO
    #: sanitizer runs the heap-only reference schedule.  When ``None`` —
    #: the default — the hot paths do nothing beyond one identity check.
    sanitizer = None

    def __init__(self):
        self._now = 0
        self._queue = []  # heap of (time, seq, callable)
        self._seq = 0
        #: in-place resume limits of the innermost running loop: the last
        #: time it may pop, and the event it stops on (run_until_fired)
        self._bound = _NO_LOOP
        self._target = None
        #: optional observability hook (see repro.obs): when set, its
        #: ``process_resumed(process)`` is called on every process resume.
        self.observer = None
        if Engine.created_hook is not None:
            Engine.created_hook(self)

    @property
    def now(self):
        """Current simulation time in cycles."""
        return self._now

    def event(self, name=""):
        """Create a new :class:`SimEvent` bound to this engine."""
        return SimEvent(self, name)

    def schedule(self, delay, callback):
        """Run ``callback()`` after ``delay`` cycles (a non-negative int)."""
        if not isinstance(delay, int):
            # Float delays would silently break the integer-cycle
            # determinism contract Timeout already enforces.
            raise SimulationError(
                "delay must be an integer cycle count, got %r" % (delay,)
            )
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%d)" % delay)
        self._seq += 1
        if Engine.sanitizer is None:
            key = self._seq
        else:
            key = Engine.sanitizer.on_schedule(
                self, self._now + delay, self._seq, callback
            )
        heapq.heappush(self._queue, (self._now + delay, key, callback))

    def spawn(self, generator, name=""):
        """Start a new process from a generator; returns the Process."""
        process = Process(self, generator, name)
        self.schedule(0, lambda: process.resume(None))
        return process

    def wake(self, process, value):
        """Schedule ``process`` to resume with ``value`` this cycle."""
        self.schedule(0, lambda: process.resume(value))

    def dispatch(self, process, command):
        """Suspend ``process`` according to the yielded ``command``.

        Returns True instead when ``command`` is a Timeout the running
        loop would pop next: nothing queued is due at or before it (a
        same-cycle tie goes through the heap, which keeps FIFO order), it
        is within the loop's ``until``/``deadline``, the loop's target
        event has not fired, and no sanitizer is installed.  The clock and
        ``_seq`` have then advanced as if it had been scheduled and
        popped, and the caller resumes the process in place.
        """
        if type(command) is Timeout or isinstance(command, Timeout):
            time = self._now + command.delay
            queue = self._queue
            if (
                time <= self._bound
                and (not queue or queue[0][0] > time)
                and (self._target is None or not self._target.fired)
                and Engine.sanitizer is None
            ):
                self._seq += 1
                self._now = time
                return True
            self.schedule(command.delay, lambda: process.resume(None))
        elif isinstance(command, SimEvent):
            command.add_waiter(process)
        elif isinstance(command, AllOf):
            self._wait_all(process, command.events)
        elif isinstance(command, AnyOf):
            self._wait_any(process, command.events)
        elif isinstance(command, Process):
            command.add_join_waiter(process)
        else:
            raise SimulationError(
                "process %r yielded unsupported command %r" % (process.name, command)
            )
        return False

    def _wait_all(self, process, events):
        pending = [event for event in events if not event.fired]
        remaining = len(pending)
        if not remaining:
            self.wake(process, [event.value for event in events])
            return
        state = {"remaining": remaining}

        def make_callback():
            def callback(_value):
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    self.wake(process, [event.value for event in events])

            return callback

        for event in pending:
            event.on_fire(make_callback())

    def _wait_any(self, process, events):
        for index, event in enumerate(events):
            if event.fired:
                self.wake(process, (index, event.value))
                return

        # Losing registrations must be cancelled when the race completes:
        # a stale callback left in a loser's ``_callbacks`` would block a
        # later ``reset()`` and accumulate without bound across repeated
        # AnyOf waits over long-lived events.
        state = {"registered": []}

        def make_callback(index):
            def callback(value):
                registered = state["registered"]
                if registered is None:
                    # A duplicate membership of the winning event: the
                    # first copy already decided the race and cancelled
                    # everything (fire() had snapshotted this callback
                    # before the cancellation could remove it).
                    return
                state["registered"] = None
                for event, losing_callback in registered:
                    if losing_callback is not callback:
                        event.cancel_on_fire(losing_callback)
                self.wake(process, (index, value))

            return callback

        for index, event in enumerate(events):
            callback = make_callback(index)
            state["registered"].append((event, callback))
            event.on_fire(callback)

    def run(self, until=None):
        """Run the event loop.

        Stops when the queue is empty, or when simulation time would pass
        ``until`` (the clock then rests exactly at ``until``).
        """
        outer = self._bound, self._target
        self._bound = _UNBOUNDED if until is None else until
        self._target = None
        try:
            while self._queue:
                time, key, callback = self._queue[0]
                if until is not None and time > until:
                    self._now = until
                    return
                heapq.heappop(self._queue)
                if time < self._now:
                    raise SimulationError(
                        "time went backwards: %d < %d" % (time, self._now)
                    )
                self._now = time
                if Engine.sanitizer is not None:
                    Engine.sanitizer.on_fire(self, time, key)
                callback()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._bound, self._target = outer

    def run_until_fired(self, event, deadline=None):
        """Run until ``event`` fires; returns its value.

        ``deadline`` is an *absolute* simulation time: once the next queued
        event lies strictly past it, a :class:`SimulationError` is raised
        (the queue stays intact so the caller can recover or inspect).  It
        is not a relative cycle budget — an engine whose ``now`` is already
        at 1e9 needs a deadline past 1e9, not a small count.
        """
        outer = self._bound, self._target
        self._bound = _UNBOUNDED if deadline is None else deadline
        self._target = event
        try:
            while self._queue and not event.fired:
                time, key, callback = self._queue[0]
                if deadline is not None and time > deadline:
                    # Peek, don't pop: the queue must stay intact so the
                    # caller can recover (or inspect) after the deadline.
                    raise SimulationError(
                        "event %r did not fire by absolute deadline %d (now=%d)"
                        % (event.name, deadline, self._now)
                    )
                if time < self._now:
                    raise SimulationError(
                        "time went backwards: %d < %d" % (time, self._now)
                    )
                heapq.heappop(self._queue)
                self._now = time
                if Engine.sanitizer is not None:
                    Engine.sanitizer.on_fire(self, time, key)
                callback()
        finally:
            self._bound, self._target = outer
        if not event.fired:
            raise SimulationError("deadlock: queue drained before %r fired" % (event.name,))
        return event.value
