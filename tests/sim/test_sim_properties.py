"""Property-based tests for the simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cpu, Environment


@given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=1, max_size=40))
@settings(max_examples=60)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def body(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(body(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert env.now == max(delays)


@given(st.lists(st.floats(min_value=0.01, max_value=50.0),
                min_size=1, max_size=30))
@settings(max_examples=60)
def test_fifo_cpu_serialises_work(works):
    env = Environment()
    cpu = Cpu(env)
    completions = []

    def body(env, work, index):
        yield cpu.execute(work)
        completions.append(index)

    for index, work in enumerate(works):
        env.process(body(env, work, index))
    env.run()
    assert completions == list(range(len(works)))
    assert env.now == pytest.approx(sum(works))
    assert cpu.busy_time == pytest.approx(sum(works))


@given(st.integers(min_value=0, max_value=2**32),
       st.text(min_size=1, max_size=20))
@settings(max_examples=60)
def test_random_streams_deterministic_and_independent(seed, name):
    from repro.sim import RandomStreams
    first = RandomStreams(seed)
    second = RandomStreams(seed)
    assert (first.stream(name).random()
            == second.stream(name).random())
    # Drawing from one stream never affects another.
    third = RandomStreams(seed)
    third.stream("other").random()
    assert (third.stream(name).random()
            == RandomStreams(seed).stream(name).random())


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=5000),
                          st.floats(min_value=0.0, max_value=5.0)),
                min_size=1, max_size=25))
@settings(max_examples=40)
def test_link_deliveries_preserve_send_order(messages):
    from repro.net.link import Link
    env = Environment()
    link = Link(env, latency_ms=1.0, bandwidth_bytes_per_ms=500.0)
    deliveries = []

    def sender(env):
        for index, (size, gap) in enumerate(messages):
            if gap:
                yield env.timeout(gap)
            env.process(waiter(env, link.transfer(size), index))

    def waiter(env, event, index):
        yield event
        deliveries.append(index)

    env.process(sender(env))
    env.run()
    assert deliveries == list(range(len(messages)))
