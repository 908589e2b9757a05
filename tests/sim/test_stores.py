"""Unit tests for Store FIFO semantics and blocking behaviour."""

from repro.sim import Environment, Store


def test_put_then_get_preserves_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    store.put_many(("a", "b", "c"))
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
        store.put_many(("late",))

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert arrival_time == [(4.0, "late")]


def test_multiple_getters_served_in_request_order():
    env = Environment()
    store = Store(env)
    winners = []

    def consumer(env, name):
        item = yield store.get()
        winners.append((name, item))

    def producer(env):
        yield env.timeout(1.0)
        store.put_many(("x",))
        store.put_many(("y",))

    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))
    env.process(producer(env))
    env.run()
    assert winners == [("c1", "x"), ("c2", "y")]


def test_drain_removes_everything():
    env = Environment()
    store = Store(env)
    store.put_many(range(5))
    assert store.drain() == [0, 1, 2, 3, 4]
    assert len(store) == 0


def test_remap_filters_buffered_items():
    env = Environment()
    store = Store(env)
    store.put_many(range(6))
    store.remap(lambda i: None if i % 2 == 0 else i)
    assert store.drain() == [1, 3, 5]

