"""Unit tests for the DES environment and process model."""

import collections
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


@pytest.mark.parametrize("trigger", [
    lambda env: env.timeout(float("nan")),
    lambda env: env.event().succeed("v", delay=float("nan")),
    lambda env: env.event().succeed("v", delay=-1.0),
], ids=["timeout-nan", "succeed-nan", "succeed-negative"])
def test_a_time_before_now_or_nan_is_never_queued(trigger):
    """A NaN heap key compares false with every other key, so it would
    silently break the queue's order for every later event."""
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        trigger(env)
    assert env.events_scheduled == 0 and env.peek() == float("inf")


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


# -- processes nobody can wait on (Environment.start) -----------------------


def test_started_process_queues_only_its_bootstrap_event():
    env = Environment()
    ran = []

    def body(env):
        ran.append(env.now)
        return "ignored"
        yield  # pragma: no cover - makes body a generator

    assert env.start(body(env), name="detached") is None
    assert env.events_scheduled == 1  # the bootstrap
    env.run()
    assert ran == [0.0]
    assert env.events_scheduled == 1  # no completion event
    assert env.peek() == float("inf")


def test_started_process_costs_its_timers_and_no_completion():
    started, spawned = Environment(), Environment()

    def body(env):
        yield env.timeout(2.0)
        yield env.timeout(3.0)

    started.start(body(started), name="detached")
    spawned.process(body(spawned))
    started.run()
    spawned.run()
    assert started.now == spawned.now == 5.0
    assert started.events_scheduled == spawned.events_scheduled - 1 == 3


@pytest.mark.parametrize("delay", [None, 1.0])
def test_started_process_failure_raised_by_run(delay):
    expected = RuntimeError("unhandled")
    outcomes = []
    for spawn in ("process", "start"):
        env = Environment()

        def body(env):
            if delay is not None:
                yield env.timeout(delay)
            raise expected
            yield  # pragma: no cover - makes body a generator

        getattr(env, spawn)(body(env), name="failing")
        with pytest.raises(RuntimeError) as raised:
            env.run()
        outcomes.append((raised.value, env.now))
    # The same exception at the same instant, but without queuing a
    # failure event first.
    assert outcomes[0] == outcomes[1] == (expected, delay or 0.0)


# -- the cycle collector (decision 43) ---------------------------------------


def cyclic_garbage(body):
    """What a full collection finds after ``body()`` ran with the
    cycle collector off, by type: the objects only the collector would
    ever have freed."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        body()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_failed_process_leaves_no_cycle_for_its_waiter():
    """A process that raises holds its exception, whose traceback
    must not reach back to the process: the waiter catches, both
    processes end, and reference counting frees everything."""
    seen = []

    def body():
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                # The waiter still sees the generator's frames.
                seen.append(exc.__traceback__.tb_next.tb_frame.f_code.co_name)
            return "recovered"

        proc = env.process(parent(env))
        env.run()
        assert proc.value == "recovered"

    assert not cyclic_garbage(body)
    assert seen == ["child"]


def test_failure_passed_on_by_a_waiter_leaves_no_cycle():
    def body():
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent(env):
            yield env.process(child(env))

        def grandparent(env):
            try:
                yield env.process(parent(env))
            except ValueError:
                pass

        env.process(grandparent(env))
        env.run()

    assert not cyclic_garbage(body)


class Halt(BaseException):
    """Not an ``Exception``: what a callback's interrupt looks like."""


# Each sets up a run that raises and returns its ``until``.


def failed_event_nobody_waits_on(env):
    env.event().fail(ValueError("lost"))


def started_body_raises(env):
    def body(env):
        yield env.timeout(1.0)
        raise ValueError("body")

    env.start(body(env), name="failing")


def ran_out_of_events(env):
    return env.event()


def callback_raises_base_exception(env):
    def interrupt(_event):
        raise Halt

    env.timeout(1.0).callbacks.append(interrupt)
    return 5.0


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The caller's collector state, restored after the test."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("until", [None, 3.0, "event"])
def test_run_pauses_the_collector_and_restores_the_callers_state(
        collector, until):
    env = Environment()
    states = []
    env.timeout(1.0).callbacks.append(
        lambda _event: states.append(gc.isenabled()))
    env.run(env.timeout(2.0) if until == "event" else until)
    assert states == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("raising", [
    failed_event_nobody_waits_on, started_body_raises, ran_out_of_events,
    callback_raises_base_exception])
def test_a_run_that_raises_restores_the_callers_collector_state(
        collector, raising):
    env = Environment()
    until = raising(env)
    with pytest.raises((SimulationError, ValueError, Halt)):
        env.run(until)
    assert gc.isenabled() is collector


def test_nested_and_repeated_runs_restore_the_callers_state(collector):
    env = Environment()
    states = []

    def nested(_event):
        states.append(gc.isenabled())
        inner = Environment()
        inner.timeout(1.0)
        inner.run()
        states.append(gc.isenabled())

    env.timeout(1.0).callbacks.append(nested)
    env.timeout(2.0)
    env.run(until=1.5)
    assert gc.isenabled() is collector
    env.run()
    assert states == [False, False]
    assert gc.isenabled() is collector


def test_what_a_run_leaves_alive_skips_the_young_generation():
    # The collector comes back with the run's survivors in the oldest
    # generation, so the first allocation after the run starts no pass
    # over them (decision 46).
    before = gc.isenabled()
    gc.enable()
    try:
        env = Environment()
        kept = []

        def body(env):
            for index in range(2000):
                kept.append([index])
                yield env.timeout(1.0)

        env.start(body(env), name="keeper")
        env.run()
        counts = gc.get_count()
        young = gc.get_objects(0)
    finally:
        (gc.enable if before else gc.disable)()
    assert counts[0] == 0
    assert not any(obj is kept[-1] for obj in young)
    assert any(obj is kept[-1] for obj in gc.get_objects(2))
    assert gc.get_freeze_count() == 0


def test_a_run_leaves_the_callers_frozen_objects_frozen():
    before = gc.isenabled()
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        env = Environment()
        env.timeout(1.0)
        env.run()
        assert gc.get_freeze_count() == frozen > 0
    finally:
        gc.unfreeze()
        (gc.enable if before else gc.disable)()
