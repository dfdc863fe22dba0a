"""Generator-based simulation processes."""

from repro.errors import SimulationError


class Process:
    """A coroutine process driven by the engine.

    Wraps a generator that yields commands (Timeout, SimEvent, AllOf,
    AnyOf, or another Process to join on).  When the generator returns,
    the process is *done* and joiners are woken with its return value.
    """

    __slots__ = (
        "engine",
        "name",
        "_generator",
        "_done",
        "_result",
        "_joiners",
        "__weakref__",
    )

    def __init__(self, engine, generator, name=""):
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._done = False
        self._result = None
        self._joiners = []

    @property
    def done(self):
        return self._done

    @property
    def result(self):
        if not self._done:
            raise SimulationError("process %r has not finished" % (self.name,))
        return self._result

    def resume(self, value):
        """Advance the generator with ``value``; dispatch the next command.

        While the engine resumes a yielded Timeout in place (it was the
        running loop's next event, see :meth:`Engine.dispatch`), keep
        sending here instead of returning through the heap.
        """
        if self._done:
            return
        engine = self.engine
        send = self._generator.send
        while True:
            observer = engine.observer
            if observer is not None:
                observer.process_resumed(self)
            try:
                command = send(value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            if not engine.dispatch(self, command):
                return
            value = None

    def add_join_waiter(self, process):
        if self._done:
            self.engine.wake(process, self._result)
        else:
            self._joiners.append(process)

    def _finish(self, result):
        self._done = True
        self._result = result
        joiners, self._joiners = self._joiners, []
        for joiner in joiners:
            self.engine.wake(joiner, result)

    def __repr__(self):
        state = "done" if self._done else "running"
        return "Process(%r, %s)" % (self.name, state)
