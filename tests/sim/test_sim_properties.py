"""Property-based tests for the simulation kernel."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.injector import NO_FAULT, MessageFault
from repro.net import KIND_DATA, Message, Network, NetworkConfig
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


class ReferenceLink:
    """The two-event link model: a FIFO of waiting transfers and one
    in flight; each transfer queues a transmit timeout, and its
    delivery is queued ``latency_ms`` after that timeout fires."""

    def __init__(self, env, latency_ms, bandwidth):
        self.env = env
        self.latency_ms = latency_ms
        self.bandwidth = bandwidth
        self.waiting = collections.deque()
        self.in_flight = None
        #: The transmit timeout of the transfer in flight, if any.
        self.transmitting = None

    def transfer(self, size_bytes, extra_delay_ms, delivered):
        item = (size_bytes, extra_delay_ms, delivered)
        if self.in_flight is None:
            self._transmit(item)
        else:
            self.waiting.append(item)

    def _transmit(self, item):
        self.in_flight = item
        self.transmitting = self.env.timeout(
            item[0] / self.bandwidth + item[1])
        self.transmitting.callbacks.append(self._on_transmitted)

    def _on_transmitted(self, _event):
        self.in_flight[2].succeed(None, delay=self.latency_ms)
        if self.waiting:
            self._transmit(self.waiting.popleft())
        else:
            self.in_flight = self.transmitting = None


#: (size, gap before the send, extra delay, dropped).  A gap of None
#: sends at the instant the link frees: the sender waits out every
#: transmission the reference has in flight or waiting.
LINK_SENDS = st.tuples(
    st.integers(min_value=1, max_value=5000),
    st.one_of(st.just(0.0), st.none(),
              st.floats(min_value=0.0, max_value=5.0)),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
    st.booleans())


@given(st.lists(LINK_SENDS, min_size=1, max_size=25),
       st.floats(min_value=0.0, max_value=5.0),
       st.sampled_from([7.0, 500.0, 12_500.0]))
@settings(max_examples=80)
def test_link_deliveries_preserve_send_order(messages, latency, bandwidth):
    """The one-event link (``Link.occupy`` plus the delivery
    ``Network.deliver`` queues ``latency_ms`` later) delivers each
    transfer at exactly the time the two-event reference does, in send
    order, queueing one event per delivered transfer; a dropped
    transfer holds the link like any other and queues nothing."""
    env = Environment()
    network = Network(env, NetworkConfig(
        latency_ms=latency, bandwidth_bytes_per_ms=bandwidth))
    network.register("a", "m1")
    network.register("b", "m2")
    link = network.link_between("m1", "m2")
    reference = ReferenceLink(env, latency, bandwidth)
    deliveries, expected = [], []

    def arrival(log, index):
        return lambda _event: log.append((index, env.now))

    def sender(env):
        for index, (size, gap, extra, dropped) in enumerate(messages):
            if gap is None:
                while reference.transmitting is not None:
                    yield reference.transmitting
            elif gap:
                yield env.timeout(gap)
            before = env.events_scheduled
            if dropped:
                link.occupy(size, extra)
                assert env.events_scheduled == before
                reference.transfer(size, extra, env.event())
                continue
            network.deliver(
                Message(sender="a", recipient="b", kind=KIND_DATA,
                        payload=None, size_bytes=size),
                link.occupy(size, extra) + link.latency_ms
            ).callbacks.append(arrival(deliveries, index))
            assert env.events_scheduled == before + 1
            delivered = env.event()
            delivered.callbacks.append(arrival(expected, index))
            reference.transfer(size, extra, delivered)

    env.process(sender(env))
    env.run()
    sent = [index for index, message in enumerate(messages)
            if not message[3]]
    assert [index for index, _time in deliveries] == sent
    assert deliveries == expected


def test_dropped_message_holds_the_link_and_queues_nothing():
    env = Environment()
    network = Network(env, NetworkConfig(latency_ms=1.0,
                                         bandwidth_bytes_per_ms=100.0))
    network.register("a", "m1")
    network.register("b", "m2")
    verdicts = iter([MessageFault(True, False, 3.0), NO_FAULT])

    class Chaos:
        def message_fault(self, _src, _dst, _kind):
            return next(verdicts)

    network.chaos = Chaos()

    def send(size):
        return network.send(Message(sender="a", recipient="b",
                                    kind=KIND_DATA, payload=None,
                                    size_bytes=size))

    before = env.events_scheduled
    lost = send(500)
    assert env.events_scheduled == before
    assert network.messages_dropped == 1
    kept = send(100)
    env.run()
    assert not lost.triggered
    # 5 ms transmission + 3 ms congestion for the dropped message, then
    # 1 ms transmission and 1 ms latency of its own.
    assert kept.value.delivered_at == 10.0
    assert env.events_scheduled == before + 1
