"""The in-place resume path against the heap-only reference schedule.

An engine resumes a process in place when its yielded Timeout is the
event the running loop would pop next.  With a sanitizer installed it
never does: every Timeout goes through the heap.  A FIFO sanitizer
changes nothing else, so its runs are the reference — every bench cell
and every random process program must come out the same both ways.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.runner import cells
from repro.sanitize.runner import payload_sha256
from repro.sanitize.simsan import FIFO, SimSan
from repro.sim import AllOf, AnyOf, Engine, Timeout


def _run(thunk, sanitized):
    """``thunk()`` with or without a FIFO sanitizer; plus its engines."""
    engines = []
    hook = Engine.created_hook
    Engine.created_hook = engines.append
    Engine.sanitizer = SimSan(FIFO) if sanitized else None
    try:
        return thunk(), engines
    finally:
        Engine.sanitizer = None
        Engine.created_hook = hook


def test_every_bench_cell_matches_the_heap_only_reference():
    for spec in cells.bench_cells():  # the full report plus oversubscription
        fast, fast_engines = _run(lambda: cells.run_cell(spec), sanitized=False)
        reference, reference_engines = _run(lambda: cells.run_cell(spec), sanitized=True)
        assert payload_sha256(fast) == payload_sha256(reference), spec.id
        assert [(e._seq, e.now) for e in fast_engines] == [
            (e._seq, e.now) for e in reference_engines
        ], spec.id


# --- random process programs ---------------------------------------------

EVENTS = 3
event_index = st.integers(0, EVENTS - 1)
small = st.integers(0, 6)
event_group = st.lists(event_index, min_size=1, max_size=3)

child_op = st.one_of(
    st.tuples(st.just("timeout"), small),
    st.tuples(st.just("fire"), event_index),
    st.tuples(st.just("wait"), event_index),
)
op = st.one_of(
    child_op,
    st.tuples(st.just("any"), event_group),
    st.tuples(st.just("all"), event_group),
    st.tuples(st.just("spawn"), st.lists(child_op, max_size=4)),
    st.tuples(st.just("join")),
    st.tuples(st.just("run"), small),
    st.tuples(st.just("run_until_fired"), event_index, small),
)
programs = st.lists(st.lists(op, max_size=8), min_size=1, max_size=4)
stop = st.one_of(
    st.tuples(st.just("run"), st.none() | st.integers(0, 30)),
    st.tuples(st.just("run_until_fired"), event_index, st.none() | st.integers(0, 30)),
)


def _play(programs, stops):
    """Run ``programs`` through ``stops``; everything observable about it."""
    engine = Engine()
    events = [engine.event("e%d" % index) for index in range(EVENTS)]
    trace = []

    def body(name, ops):
        children = []
        for step, (kind, *args) in enumerate(ops):
            trace.append((engine.now, name, step))
            value = None
            if kind == "timeout":
                value = yield Timeout(args[0])
            elif kind == "fire":
                if not events[args[0]].fired:
                    events[args[0]].fire(engine.now)
            elif kind == "wait":
                value = yield events[args[0]]
            elif kind == "any":
                value = yield AnyOf([events[index] for index in args[0]])
            elif kind == "all":
                value = yield AllOf([events[index] for index in args[0]])
            elif kind == "spawn":
                child = "%s.%d" % (name, step)
                children.append(engine.spawn(body(child, args[0]), name=child))
            elif kind == "join":
                if children:
                    value = yield children[-1]
            elif kind == "run":
                engine.run(until=engine.now + args[0])
            else:
                value = engine.run_until_fired(
                    events[args[0]], deadline=engine.now + args[1]
                )
            trace.append(("got", name, step, value))
        return name

    for index, ops in enumerate(programs):
        engine.spawn(body("p%d" % index, ops), name="p%d" % index)
    outcomes = []
    for kind, *args in stops:
        try:
            if kind == "run":
                until = None if args[0] is None else engine.now + args[0]
                engine.run(until=until)
                outcomes.append(("ran", engine.now))
            else:
                deadline = None if args[1] is None else engine.now + args[1]
                value = engine.run_until_fired(events[args[0]], deadline=deadline)
                outcomes.append(("fired", engine.now, value))
        except SimulationError as error:
            outcomes.append(("error", str(error), engine.now))
    return trace, outcomes, engine.now, engine._seq, len(engine._queue)


@settings(max_examples=300, deadline=None)
@given(programs, st.lists(stop, min_size=1, max_size=4))
def test_random_programs_match_the_heap_only_reference(programs, stops):
    fast, _ = _run(lambda: _play(programs, stops), sanitized=False)
    reference, _ = _run(lambda: _play(programs, stops), sanitized=True)
    assert fast == reference
