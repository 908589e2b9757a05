"""Unit tests for Store FIFO semantics and blocking behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Store


def test_put_then_get_preserves_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in ("a", "b", "c"):
            yield store.put(item)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == ["a", "b", "c"]


def test_get_blocks_until_item_arrives():
    env = Environment()
    store = Store(env)
    arrival_time = []

    def consumer(env):
        item = yield store.get()
        arrival_time.append((env.now, item))

    def producer(env):
        yield env.timeout(4.0)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert arrival_time == [(4.0, "late")]


def test_bounded_store_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("first")
        times.append(("queued-first", env.now))
        yield store.put("second")
        times.append(("queued-second", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("queued-first", 0.0) in times
    assert ("queued-second", 5.0) in times


def test_multiple_getters_served_in_request_order():
    env = Environment()
    store = Store(env)
    winners = []

    def consumer(env, name):
        item = yield store.get()
        winners.append((name, item))

    def producer(env):
        yield env.timeout(1.0)
        yield store.put("x")
        yield store.put("y")

    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))
    env.process(producer(env))
    env.run()
    assert winners == [("c1", "x"), ("c2", "y")]


def test_drain_removes_everything():
    env = Environment()
    store = Store(env)

    def body(env):
        for i in range(5):
            yield store.put(i)

    env.process(body(env))
    env.run()
    assert store.drain() == [0, 1, 2, 3, 4]
    assert len(store) == 0


def test_remap_filters_buffered_items():
    env = Environment()
    store = Store(env)

    def body(env):
        for i in range(6):
            yield store.put(i)

    env.process(body(env))
    env.run()
    store.remap(lambda i: None if i % 2 == 0 else i)
    assert store.drain() == [1, 3, 5]


def test_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)
