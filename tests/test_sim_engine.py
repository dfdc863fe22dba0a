"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine, Timeout


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_schedule_runs_callback_at_delay():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [10]


def test_schedule_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_same_cycle_callbacks_run_fifo():
    engine = Engine()
    order = []
    engine.schedule(5, lambda: order.append("a"))
    engine.schedule(5, lambda: order.append("b"))
    engine.schedule(5, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_at_limit():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run(until=40)
    assert engine.now == 40
    engine.run()
    assert engine.now == 100


def test_run_until_advances_clock_when_queue_empty():
    engine = Engine()
    engine.run(until=25)
    assert engine.now == 25


def test_process_timeout_advances_time():
    engine = Engine()
    seen = []

    def proc():
        yield Timeout(7)
        seen.append(engine.now)
        yield Timeout(3)
        seen.append(engine.now)

    engine.spawn(proc())
    engine.run()
    assert seen == [7, 10]


def test_process_return_value_joinable():
    engine = Engine()
    results = []

    def child():
        yield Timeout(4)
        return "payload"

    def parent():
        value = yield engine.spawn(child())
        results.append((engine.now, value))

    engine.spawn(parent())
    engine.run()
    assert results == [(4, "payload")]


def test_join_already_finished_process():
    engine = Engine()
    results = []

    def child():
        yield Timeout(1)
        return 42

    child_proc = engine.spawn(child())

    def parent():
        yield Timeout(10)
        value = yield child_proc
        results.append(value)

    engine.spawn(parent())
    engine.run()
    assert results == [42]


def test_event_wakes_waiter_with_value():
    engine = Engine()
    event = engine.event("ping")
    got = []

    def waiter():
        value = yield event
        got.append((engine.now, value))

    engine.spawn(waiter())
    engine.schedule(30, lambda: event.fire("hello"))
    engine.run()
    assert got == [(30, "hello")]


def test_event_fire_twice_raises():
    engine = Engine()
    event = engine.event()
    event.fire()
    with pytest.raises(SimulationError):
        event.fire()


def test_event_reset_allows_refire():
    engine = Engine()
    event = engine.event()
    event.fire(1)
    event.reset()
    event.fire(2)
    assert event.value == 2


def test_wait_on_already_fired_event_resumes_immediately():
    engine = Engine()
    event = engine.event()
    event.fire("early")
    got = []

    def waiter():
        yield Timeout(5)
        value = yield event
        got.append((engine.now, value))

    engine.spawn(waiter())
    engine.run()
    assert got == [(5, "early")]


def test_allof_waits_for_every_event():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    got = []

    def waiter():
        values = yield AllOf(events)
        got.append((engine.now, values))

    engine.spawn(waiter())
    engine.schedule(10, lambda: events[1].fire("b"))
    engine.schedule(20, lambda: events[0].fire("a"))
    engine.schedule(30, lambda: events[2].fire("c"))
    engine.run()
    assert got == [(30, ["a", "b", "c"])]


def test_anyof_returns_first_event():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    got = []

    def waiter():
        index, value = yield AnyOf(events)
        got.append((engine.now, index, value))

    engine.spawn(waiter())
    engine.schedule(15, lambda: events[2].fire("late-win"))
    engine.schedule(25, lambda: events[0].fire("loser"))
    engine.run()
    assert got == [(15, 2, "late-win")]


def test_anyof_with_prefired_event():
    engine = Engine()
    events = [engine.event(), engine.event()]
    events[1].fire("pre")
    got = []

    def waiter():
        got.append((yield AnyOf(events)))

    engine.spawn(waiter())
    engine.run()
    assert got == [(1, "pre")]


def test_unsupported_yield_raises():
    engine = Engine()

    def proc():
        yield "not a command"

    engine.spawn(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_run_until_fired_returns_value():
    engine = Engine()
    event = engine.event()
    engine.schedule(50, lambda: event.fire("done"))
    assert engine.run_until_fired(event) == "done"
    assert engine.now == 50


def test_run_until_fired_deadlock_detected():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        engine.run_until_fired(event)


def test_run_until_fired_limit_enforced():
    engine = Engine()
    event = engine.event()
    engine.schedule(1000, lambda: event.fire())
    with pytest.raises(SimulationError):
        engine.run_until_fired(event, deadline=100)


def test_zero_timeout_lets_same_time_events_interleave():
    engine = Engine()
    order = []

    def proc_a():
        order.append("a1")
        yield Timeout(0)
        order.append("a2")

    def proc_b():
        order.append("b1")
        yield Timeout(0)
        order.append("b2")

    engine.spawn(proc_a())
    engine.spawn(proc_b())
    engine.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert engine.now == 0


def test_schedule_float_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(1.5, lambda: None)
    # Even a float that happens to be integral breaks the int-cycle contract.
    with pytest.raises(SimulationError):
        engine.schedule(10.0, lambda: None)


def test_run_until_fired_limit_leaves_queue_intact():
    engine = Engine()
    event = engine.event("late")
    engine.schedule(1000, lambda: event.fire("finally"))
    with pytest.raises(SimulationError):
        engine.run_until_fired(event, deadline=100)
    # The over-deadline entry was peeked, not popped: the caller can recover.
    assert engine.run_until_fired(event) == "finally"
    assert engine.now == 1000


def test_run_until_fired_rejects_backwards_time():
    import heapq

    engine = Engine()
    event = engine.event()
    engine.schedule(10, lambda: event.fire())
    engine.run()
    # White box: corrupt the queue with an entry in the past.
    heapq.heappush(engine._queue, (engine.now - 5, 10**9, lambda: None))
    event.reset()
    with pytest.raises(SimulationError):
        engine.run_until_fired(event)


def test_event_reset_with_pending_callbacks_raises():
    engine = Engine()
    event = engine.event("armed")
    event.on_fire(lambda value: None)
    with pytest.raises(SimulationError):
        event.reset()


def test_event_reset_after_fire_delivers_callbacks_then_allows_reuse():
    engine = Engine()
    event = engine.event()
    seen = []
    event.on_fire(seen.append)
    event.fire("first")
    event.reset()  # fire() consumed the callback list: reset is legal
    event.fire("second")
    assert seen == ["first"]


def test_anyof_later_index_prefired_among_three():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    events[2].fire("pre")
    got = []

    def waiter():
        got.append((yield AnyOf(events)))

    engine.spawn(waiter())
    engine.schedule(5, lambda: events[0].fire("late"))
    engine.run()
    assert got == [(2, "pre")]


def test_anyof_all_prefired_returns_lowest_index():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    for index, event in enumerate(events):
        event.fire("v%d" % index)
    got = []

    def waiter():
        got.append((yield AnyOf(events)))

    engine.spawn(waiter())
    engine.run()
    assert got == [(0, "v0")]


def test_allof_with_prefired_subset_preserves_event_order():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(3)]
    events[0].fire("a")
    events[2].fire("c")
    got = []

    def waiter():
        values = yield AllOf(events)
        got.append((engine.now, values))

    engine.spawn(waiter())
    engine.schedule(40, lambda: events[1].fire("b"))
    engine.run()
    # Values come back in event order, not firing order.
    assert got == [(40, ["a", "b", "c"])]


def test_allof_all_prefired_resumes_immediately():
    engine = Engine()
    events = [engine.event(str(i)) for i in range(2)]
    events[0].fire(1)
    events[1].fire(2)
    got = []

    def waiter():
        got.append((engine.now, (yield AllOf(events))))

    engine.spawn(waiter())
    engine.run()
    assert got == [(0, [1, 2])]


def test_join_process_that_finished_long_ago():
    engine = Engine()

    def child():
        yield Timeout(2)
        return "stale ok"

    child_proc = engine.spawn(child())
    engine.run()
    got = []

    def parent():
        got.append((yield child_proc))

    engine.spawn(parent())
    engine.run()
    assert got == ["stale ok"]


# --- AnyOf loser-callback lifecycle (regression: callbacks leaked) -------


def test_anyof_losing_event_can_reset_after_race():
    engine = Engine()
    winner, loser = engine.event("winner"), engine.event("loser")
    got = []

    def waiter():
        got.append((yield AnyOf([winner, loser])))

    engine.spawn(waiter())
    engine.schedule(5, lambda: winner.fire("w"))
    engine.run()
    assert got == [(0, "w")]
    # The losing registration must have been cancelled: a long-lived
    # event that lost a race is still resettable without tripping the
    # pending-callback guard, and reusable afterwards.
    loser.reset()
    assert not loser.fired
    loser.fire("later")
    assert loser.value == "later"


def test_anyof_repeated_waits_do_not_accumulate_callbacks():
    engine = Engine()
    winner, loser = engine.event("winner"), engine.event("loser")
    got = []

    def one_round():
        got.append((yield AnyOf([winner, loser])))

    for round_number in range(5):
        engine.spawn(one_round())
        engine.schedule(1, lambda: winner.fire(engine.now))
        engine.run()
        winner.reset()
        # White box: the loser's callback list must stay empty across
        # rounds — the pre-fix engine accumulated one entry per wait.
        assert len(loser._callbacks) == 0
        assert len(winner._callbacks) == 0
    assert len(got) == 5
    assert [index for index, _ in got] == [0] * 5


def test_anyof_fire_then_reset_mid_wait_reuses_cleanly():
    engine = Engine()
    first, second = engine.event("first"), engine.event("second")
    got = []

    def waiter():
        got.append((yield AnyOf([first, second])))

    def fire_reset_refire():
        first.fire("round1")
        first.reset()

    engine.spawn(waiter())
    engine.schedule(3, fire_reset_refire)
    engine.run()
    # The wait was decided by the fire; the reset afterwards is legal
    # because the race cancelled every registration it made.
    assert got == [(0, "round1")]
    assert not first.fired
    # Both events are reusable for a fresh wait.
    engine.spawn(waiter())
    engine.schedule(4, lambda: second.fire("round2"))
    engine.run()
    assert got == [(0, "round1"), (1, "round2")]
    assert len(first._callbacks) == 0 and len(second._callbacks) == 0


def test_anyof_duplicate_membership_of_winner_wakes_once():
    engine = Engine()
    event = engine.event("dup")
    other = engine.event("other")
    got = []

    def waiter():
        got.append((yield AnyOf([event, other, event])))

    engine.spawn(waiter())
    engine.schedule(2, lambda: event.fire("x"))
    engine.run()
    # Lowest index of the duplicated winner, exactly one wake.
    assert got == [(0, "x")]
    assert len(event._callbacks) == 0 and len(other._callbacks) == 0
    other.fire("later")
    other.reset()


def test_allof_duplicate_membership_counts_each_slot():
    engine = Engine()
    repeated, single = engine.event("repeated"), engine.event("single")
    got = []

    def waiter():
        values = yield AllOf([repeated, single, repeated])
        got.append((engine.now, values))

    engine.spawn(waiter())
    engine.schedule(10, lambda: repeated.fire("r"))
    engine.schedule(20, lambda: single.fire("s"))
    engine.run()
    assert got == [(20, ["r", "s", "r"])]


def test_anyof_prefired_tie_lowest_index_wins_with_duplicates():
    engine = Engine()
    event = engine.event("pre")
    event.fire("v")
    got = []

    def waiter():
        got.append((yield AnyOf([event, event])))

    engine.spawn(waiter())
    engine.run()
    assert got == [(0, "v")]


# --- run_until_fired absolute-deadline semantics -------------------------


def test_run_until_fired_deadline_is_absolute_not_relative():
    engine = Engine()
    warmup = engine.event("warmup")
    engine.schedule(1000, lambda: warmup.fire())
    engine.run_until_fired(warmup)
    assert engine.now == 1000
    # A naively-relative "limit" of 500 would allow 500 more cycles; the
    # documented semantics are absolute: the next event at t=1100 lies
    # past deadline=500, so this must raise even though only 100 cycles
    # of additional work are queued.
    event = engine.event("late")
    engine.schedule(100, lambda: event.fire("v"))
    with pytest.raises(SimulationError):
        engine.run_until_fired(event, deadline=500)
    # Recovery with a real absolute deadline past `now`.
    assert engine.run_until_fired(event, deadline=2000) == "v"
    assert engine.now == 1100


# --- in-place resume: a Timeout that is the loop's next event ------------


class _ResumeCounter:
    """An ``Engine.observer`` counting ``process_resumed`` calls."""

    def __init__(self):
        self.resumes = 0

    def process_resumed(self, _process):
        self.resumes += 1


def _chain(engine, seen, delays):
    for delay in delays:
        yield Timeout(delay)
        seen.append(engine.now)


def test_in_place_chain_skips_the_heap_but_counts_seq():
    engine = Engine()
    seen = []
    engine.spawn(_chain(engine, seen, [3, 4, 5]))
    pushed = []
    schedule = engine.schedule
    engine.schedule = lambda delay, callback: pushed.append(delay) or schedule(delay, callback)
    engine.run()
    assert seen == [3, 7, 12]
    assert pushed == []  # every Timeout was the next event
    assert engine._seq == 4  # the spawn plus one per Timeout, as on the heap


def test_in_place_chain_crossing_until_stops_at_until_with_resume_queued():
    engine = Engine()
    seen = []
    engine.spawn(_chain(engine, seen, [10, 10, 10]))
    engine.run(until=25)
    assert seen == [10, 20]
    assert engine.now == 25
    assert [entry[0] for entry in engine._queue] == [30]
    engine.run()
    assert seen == [10, 20, 30]


def test_in_place_chain_ending_exactly_at_until_runs_it():
    engine = Engine()
    seen = []
    engine.spawn(_chain(engine, seen, [10, 10]))
    engine.run(until=20)
    assert seen == [10, 20]
    assert engine.now == 20 and not engine._queue


def test_run_until_fired_stops_at_the_fire_time_mid_chain():
    engine = Engine()
    event = engine.event("mid")
    seen = []

    def proc():
        for step in range(5):
            yield Timeout(10)
            seen.append(engine.now)
            if step == 1:
                event.fire("at20")

    engine.spawn(proc())
    assert engine.run_until_fired(event) == "at20"
    assert engine.now == 20
    assert seen == [10, 20]
    assert [entry[0] for entry in engine._queue] == [30]


def test_in_place_chain_past_deadline_raises_with_queue_intact():
    engine = Engine()
    event = engine.event("never")
    seen = []
    engine.spawn(_chain(engine, seen, [10, 10, 10]))
    with pytest.raises(SimulationError, match="deadline 25"):
        engine.run_until_fired(event, deadline=25)
    assert seen == [10, 20]
    assert engine.now == 20
    assert [entry[0] for entry in engine._queue] == [30]


def test_same_cycle_tie_with_earlier_entry_goes_through_the_heap():
    engine = Engine()
    order = []

    def proc():
        yield Timeout(5)
        order.append(("proc", engine.now))

    engine.spawn(proc())
    engine.schedule(5, lambda: order.append(("callback", engine.now)))
    engine.run()
    # The callback was queued for cycle 5 first: FIFO puts it ahead.
    assert order == [("callback", 5), ("proc", 5)]


def test_strictly_earlier_entry_runs_before_the_in_place_chain_continues():
    engine = Engine()
    order = []
    engine.spawn(_chain(engine, order, [5, 5]))
    engine.schedule(7, lambda: order.append("cb@%d" % engine.now))
    engine.run()
    assert order == [5, "cb@7", 10]


def test_observer_counts_each_resume_on_both_paths():
    from repro.sanitize.simsan import SimSan

    def count(sanitized):
        engine = Engine()
        engine.observer = _ResumeCounter()
        seen = []
        engine.spawn(_chain(engine, seen, [1, 2, 0, 3]))
        engine.spawn(_chain(engine, seen, [2, 2]))
        Engine.sanitizer = SimSan() if sanitized else None
        try:
            engine.run()
        finally:
            Engine.sanitizer = None
        return engine.observer.resumes, seen, engine.now, engine._seq

    # 5 sends for the 4-Timeout chain, 3 for the 2-Timeout chain
    assert count(False) == count(True)
    assert count(False)[0] == 8


def test_a_sanitizer_sends_every_timeout_through_the_heap():
    from repro.sanitize.simsan import SimSan

    engine = Engine()
    seen = []
    engine.spawn(_chain(engine, seen, [3, 4, 5]))
    san = SimSan()
    Engine.sanitizer = san
    try:
        engine.run()
    finally:
        Engine.sanitizer = None
    assert seen == [3, 7, 12]
    # one fire per schedule: the spawn and each Timeout
    assert [fire[1] for fire in san.trace] == [0, 3, 7, 12]
    assert engine._seq == 4


def test_nested_run_restores_the_outer_bound_and_target():
    engine = Engine()
    event = engine.event("outer")
    bounds = []

    def nester():
        yield Timeout(1)
        engine.run(until=engine.now + 5)
        bounds.append((engine._bound, engine._target))
        yield Timeout(1)
        event.fire("done")

    def watcher():
        yield Timeout(2)  # resumed by the nested run(until=6)
        bounds.append((engine._bound, engine._target))

    engine.spawn(nester())
    engine.spawn(watcher())
    assert engine.run_until_fired(event, deadline=100) == "done"
    assert bounds == [(6, None), (100, event)]
    assert (engine._bound, engine._target) == (-1, None)


def test_loop_bound_is_restored_when_a_process_raises():
    engine = Engine()

    def broken():
        yield Timeout(3)
        raise RuntimeError("model bug")

    engine.spawn(broken())
    with pytest.raises(RuntimeError):
        engine.run(until=50)
    assert (engine._bound, engine._target) == (-1, None)
    assert engine.now == 3


def test_resume_outside_any_loop_never_advances_the_clock():
    engine = Engine()
    seen = []
    process = engine.spawn(_chain(engine, seen, [4, 4]))
    engine._queue.clear()  # drive the process by hand, not through run()
    process.resume(None)
    assert engine.now == 0
    assert seen == []
    assert [entry[0] for entry in engine._queue] == [4]


def test_finished_process_is_collectable_while_its_engine_lives():
    import gc
    import weakref

    engine = Engine()
    process = engine.spawn(_chain(engine, [], [1, 2]))
    ref = weakref.ref(process)
    del process
    engine.run()
    gc.collect()
    assert ref() is None
    assert engine.now == 3
