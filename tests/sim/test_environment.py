"""Unit tests for the DES environment and process model."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from repro.sim.events import AnyOf


def test_timeout_advances_clock():
    env = Environment()

    def body(env):
        yield env.timeout(5.0)
        return "done"

    proc = env.process(body(env))
    env.run()
    assert env.now == 5.0
    assert proc.value == "done"


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def body(env, name, delay):
        yield env.timeout(delay)
        trace.append((env.now, name))

    env.process(body(env, "slow", 10.0))
    env.process(body(env, "fast", 1.0))
    env.process(body(env, "mid", 5.0))
    env.run()
    assert trace == [(1.0, "fast"), (5.0, "mid"), (10.0, "slow")]


def test_nested_process_returns_value():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value + 1

    proc = env.process(parent(env))
    env.run()
    assert proc.value == 43


def test_run_until_event_returns_value():
    env = Environment()

    def body(env):
        yield env.timeout(3.0)
        return "x"

    proc = env.process(body(env))
    assert env.run(until=proc) == "x"
    assert env.now == 3.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def body(env):
        yield env.timeout(100.0)

    env.process(body(env))
    env.run(until=7.5)
    assert env.now == 7.5


def test_exception_in_process_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        with pytest.raises(ValueError, match="boom"):
            yield env.process(child(env))
        return "recovered"

    proc = env.process(parent(env))
    env.run()
    assert proc.value == "recovered"


def test_unhandled_process_failure_raised_by_run():
    env = Environment()

    def body(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(body(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_waiting_on_already_processed_event_resumes():
    env = Environment()
    done = env.event()
    done.succeed("early")

    def body(env):
        value = yield done
        return value

    # Let the event be processed before the process waits on it.
    env.run(until=0)
    proc = env.process(body(env))
    env.run()
    assert proc.value == "early"


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_any_of_returns_first_winner():
    env = Environment()

    def body(env):
        slow = env.timeout(9.0, "slow")
        fast = env.timeout(1.0, "fast")
        winner, value = yield env.any_of([slow, fast])
        assert winner is fast
        return value

    proc = env.process(body(env))
    env.run(until=proc)
    assert proc.value == "fast"
    assert env.now == 1.0


def test_fired_any_of_is_freed_while_its_loser_is_pending():
    """Once it fires, a race holds neither its children nor a place in
    a loser's callbacks: reference counting alone frees it although the
    loser (an event nobody ever triggers) stays pending."""

    class Race(AnyOf):
        __slots__ = ("__weakref__",)

    gc.collect()
    gc.disable()
    try:
        env = Environment()
        loser = env.event()
        race = Race(env, [loser, env.timeout(1.0, "won")])
        freed = weakref.ref(race)

        def body(race):
            _winner, value = yield race
            return value

        proc = env.process(body(race))
        del race
        env.run()
        assert proc.value == "won"
        assert not loser.triggered and loser.callbacks == []
        assert freed() is None
    finally:
        gc.enable()


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    trace = []

    def body(env, name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in ("a", "b", "c"):
        env.process(body(env, name))
    env.run()
    assert trace == ["a", "b", "c"]


def test_run_until_event_stops_between_same_time_events():
    env = Environment()
    first = env.timeout(2.0, value="a")
    target = env.timeout(2.0, value="b")
    last = env.timeout(2.0, value="c")
    # All three share a timestamp; run() must stop exactly at the
    # target, leaving the rest pending.
    assert env.run(until=target) == "b"
    assert first.processed and target.processed
    assert not last.processed
    env.run()
    assert last.processed


def test_peek_reports_now_while_same_time_events_pending():
    env = Environment()

    def body(env):
        yield env.timeout(4.0)

    env.process(body(env))
    env.process(body(env))
    env.run(until=1.0)
    assert env.peek() == 4.0
    env.step()  # fires the first timeout
    assert env.now == 4.0
    assert env.peek() == 4.0  # the second is still pending
    env.run()
    assert env.peek() == float("inf")


def test_empty_any_of_rejected_at_construction():
    env = Environment()
    with pytest.raises(SimulationError, match="at least one event"):
        env.any_of([])
