"""Unit tests for the link model.

A transfer is :meth:`Link.occupy` (when the transfer is sent) plus one
:meth:`Network.deliver` queued ``latency_ms`` after it: what
``Network.transmit`` and ``Network.send`` do for a remote message.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net import KIND_DATA, Message, Network, NetworkConfig
from repro.net.link import Link
from repro.sim import Environment


def make(latency_ms, bandwidth):
    """A network with endpoints ``a`` on m1 and ``b`` on m2, and the
    m1 -> m2 link."""
    env = Environment()
    network = Network(env, NetworkConfig(
        latency_ms=latency_ms, bandwidth_bytes_per_ms=bandwidth))
    network.register("a", "m1")
    network.register("b", "m2")
    return env, network, network.link_between("m1", "m2")


def transfer(network, link, size_bytes, extra_delay_ms=0.0, value=None):
    """Occupy ``link`` with one transfer and queue its delivery; the
    event fires at delivery time, carrying ``value`` as the payload."""
    message = Message(sender="a", recipient="b", kind=KIND_DATA,
                      payload=value, size_bytes=size_bytes)
    return network.deliver(
        message, link.occupy(size_bytes, extra_delay_ms) + link.latency_ms)


def test_transfer_time_is_latency_plus_transmission():
    env, network, link = make(latency_ms=2.0, bandwidth=100.0)

    def body(env):
        yield transfer(network, link, 500)
        return env.now

    proc = env.process(body(env))
    env.run()
    # 500 bytes / 100 B/ms = 5 ms transmission + 2 ms latency.
    assert proc.value == pytest.approx(7.0)


def test_concurrent_transfers_serialise_on_the_link():
    env, network, link = make(latency_ms=0.0, bandwidth=100.0)
    deliveries = []

    def body(env, name, size):
        yield transfer(network, link, size)
        deliveries.append((name, env.now))

    env.process(body(env, "a", 300))
    env.process(body(env, "b", 200))
    env.run()
    assert deliveries == [("a", pytest.approx(3.0)), ("b", pytest.approx(5.0))]


def test_fifo_delivery_order_preserved_with_latency():
    env, network, link = make(latency_ms=5.0, bandwidth=1000.0)
    order = []

    def body(env, name, size):
        yield transfer(network, link, size)
        order.append(name)

    env.process(body(env, "big", 2000))
    env.process(body(env, "small", 10))
    env.run()
    assert order == ["big", "small"]


def test_link_statistics():
    env, network, link = make(latency_ms=1.0, bandwidth=100.0)

    def body(env):
        yield transfer(network, link, 100)
        yield transfer(network, link, 50)

    env.process(body(env))
    env.run()
    assert link.bytes_sent == 150
    assert link.messages_sent == 2


def test_invalid_link_parameters_rejected():
    env = Environment()
    with pytest.raises(ConfigurationError):
        Link(env, latency_ms=-1.0, bandwidth_bytes_per_ms=1.0)
    with pytest.raises(ConfigurationError):
        Link(env, latency_ms=0.0, bandwidth_bytes_per_ms=0.0)


def test_transfer_on_an_idle_link_starts_in_the_call():
    env, network, link = make(latency_ms=0.0, bandwidth=100.0)
    arrivals = []
    for name, size in (("a", 300), ("b", 100), ("c", 200)):
        transfer(network, link, size, value=name).callbacks.append(
            lambda event: arrivals.append((event.value.payload, env.now)))
    # Same-instant transfers occupy the link in call order.
    env.run()
    assert arrivals == [("a", 3.0), ("b", 4.0), ("c", 6.0)]


def test_extra_delay_extends_occupancy_and_delays_the_next_transfer():
    env, network, link = make(latency_ms=1.0, bandwidth=100.0)
    arrivals = []
    for name, extra in (("slow", 30.0), ("behind", 0.0)):
        transfer(network, link, 100, extra_delay_ms=extra, value=name
                 ).callbacks.append(
            lambda event: arrivals.append((event.value.payload, env.now)))
    env.run()
    # 1 ms transmit + 30 ms congestion, then the second transmits.
    assert arrivals == [("slow", 32.0), ("behind", 33.0)]
    assert link.chaos_delay_ms == 30.0


def test_latency_overlaps_the_next_transmission():
    env, network, link = make(latency_ms=10.0, bandwidth=100.0)
    arrivals = []
    for _ in range(3):
        transfer(network, link, 100).callbacks.append(
            lambda _event: arrivals.append(env.now))
    env.run()
    assert arrivals == [11.0, 12.0, 13.0]


def test_delivery_event_carries_the_message_to_its_recipient():
    env, network, link = make(latency_ms=2.0, bandwidth=100.0)
    delivered = transfer(network, link, 100, value="payload")
    env.run()
    assert delivered.processed and delivered.value.payload == "payload"
    assert env.now == 3.0
    assert [message.payload for message in network.endpoint("b").mailbox
            .items] == ["payload"]
