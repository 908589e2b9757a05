"""Unit tests for the network fabric."""

import pytest

from repro.chaos.injector import NO_FAULT, MessageFault
from repro.errors import ConfigurationError, NetworkError
from repro.net import KIND_DATA, Message, Network, NetworkConfig
from repro.sim import Environment


def make_network(env, latency=1.0, bandwidth=1000.0):
    return Network(env, NetworkConfig(latency_ms=latency,
                                      bandwidth_bytes_per_ms=bandwidth,
                                      loopback_delay_ms=0.01))


def test_remote_message_arrives_in_mailbox():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    mailbox_b = net.register("b", "m2")
    received = []

    def receiver(env):
        message = yield mailbox_b.get()
        received.append((env.now, message.payload))

    env.process(receiver(env))
    net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                     payload="hello", size_bytes=500))
    env.run()
    # 500/1000 ms transmission + 1 ms latency.
    assert received == [(pytest.approx(1.5), "hello")]


def test_local_message_uses_loopback():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    mailbox_b = net.register("b", "m1")
    received = []

    def receiver(env):
        message = yield mailbox_b.get()
        received.append(env.now)

    env.process(receiver(env))
    net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                     payload="x", size_bytes=10_000_000))
    env.run()
    assert received == [pytest.approx(0.01)]


def test_send_event_fires_at_delivery():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    net.register("b", "m2")

    def sender(env):
        done = net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                                payload=None, size_bytes=1000))
        yield done
        return env.now

    proc = env.process(sender(env))
    env.run(until=proc)
    assert proc.value == pytest.approx(2.0)  # 1 ms transmit + 1 ms latency


def test_unknown_endpoint_raises():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    with pytest.raises(NetworkError):
        net.send(Message(sender="a", recipient="ghost", kind=KIND_DATA,
                         payload=None))


def test_duplicate_endpoint_rejected():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    with pytest.raises(NetworkError):
        net.register("a", "m2")


def test_messages_between_same_machines_share_link():
    env = Environment()
    net = make_network(env, latency=0.0, bandwidth=100.0)
    net.register("a", "m1")
    net.register("b", "m2")
    net.register("c", "m2")
    arrivals = []

    def receiver(env, mailbox, name):
        yield mailbox.get()
        arrivals.append((name, env.now))

    env.process(receiver(env, net.endpoint("b").mailbox, "b"))
    env.process(receiver(env, net.endpoint("c").mailbox, "c"))
    net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                     payload=None, size_bytes=100))
    net.send(Message(sender="a", recipient="c", kind=KIND_DATA,
                     payload=None, size_bytes=100))
    env.run()
    # Both messages traverse the single m1->m2 link: 1 ms then 2 ms.
    assert sorted(t for _, t in arrivals) == [pytest.approx(1.0),
                                              pytest.approx(2.0)]


def test_delivery_statistics_accumulate():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    net.register("b", "m2")
    net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                     payload=None, size_bytes=100))
    net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                     payload=None, size_bytes=200))
    env.run()
    assert net.messages_delivered == 2
    assert net.bytes_delivered == 300


class ScriptedChaos:
    """Stands in for the injector: hands out verdicts in order."""

    def __init__(self, *verdicts):
        self.verdicts = list(verdicts)

    def message_fault(self, _src, _dst, _kind):
        return self.verdicts.pop(0)


def chaos_pair(*verdicts):
    env = Environment()
    net = make_network(env, latency=1.0, bandwidth=100.0)
    net.register("a", "m1")
    mailbox = net.register("b", "m2")
    net.chaos = ScriptedChaos(*verdicts)
    return env, net, mailbox


def send(net, payload, size=100):
    return net.send(Message(sender="a", recipient="b", kind=KIND_DATA,
                            payload=payload, size_bytes=size))


def test_dropped_message_occupies_the_link_and_never_fires_done():
    env, net, mailbox = chaos_pair(MessageFault(True, False, 0.0), NO_FAULT)
    lost = send(net, "lost", size=500)
    kept = send(net, "kept")
    env.run()
    assert not lost.triggered
    assert net.messages_dropped == 1 and net.messages_delivered == 1
    # 5 ms behind the dropped transmission, 1 ms own, 1 ms latency.
    assert kept.value.delivered_at == pytest.approx(7.0)
    assert [m.payload for m in mailbox.items] == ["kept"]
    assert net.link_between("m1", "m2").messages_sent == 2


def test_duplicate_is_delivered_second_on_the_same_fifo():
    env, net, mailbox = chaos_pair(MessageFault(False, True, 0.0), NO_FAULT)
    arrivals = []
    for payload in ("twice", "after"):
        send(net, payload).callbacks.append(
            lambda event: arrivals.append((event.value.payload, env.now)))
    env.run()
    assert [m.payload for m in mailbox.items] == ["twice", "twice", "after"]
    # The copy's delivery is nobody's event; it holds the link 1 ms.
    assert arrivals == [("twice", 2.0), ("after", 4.0)]
    assert net.messages_delivered == 3


def test_delayed_message_holds_back_the_one_behind_it():
    env, net, _mailbox = chaos_pair(MessageFault(False, False, 30.0),
                                    NO_FAULT)
    first, second = send(net, "slow"), send(net, "behind")
    env.run()
    assert first.value.delivered_at == pytest.approx(32.0)
    assert second.value.delivered_at == pytest.approx(33.0)


def test_delivery_to_a_deactivated_endpoint_fires_done_and_counts_dropped():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    mailbox = net.register("b", "m2")
    done = send(net, "x")
    net.deactivate("b")  # the host dies while the message is in transit
    env.run()
    assert done.processed and done.value.delivered_at is not None
    assert net.messages_dropped == 1 and net.messages_delivered == 0
    assert len(mailbox) == 0


def test_message_is_in_the_mailbox_before_the_sender_resumes():
    env = Environment()
    net = make_network(env)
    net.register("a", "m1")
    mailbox = net.register("b", "m1")
    seen = []
    send(net, "x").callbacks.append(lambda _event: seen.append(len(mailbox)))
    env.run()
    assert seen == [1]


@pytest.mark.parametrize("field, value", [
    ("latency_ms", float("nan")), ("latency_ms", float("inf")),
    ("latency_ms", -1.0), ("loopback_delay_ms", float("nan")),
    ("loopback_delay_ms", float("inf")), ("loopback_delay_ms", -1.0),
    ("bandwidth_bytes_per_ms", float("nan")),
    ("bandwidth_bytes_per_ms", float("inf")),
    ("bandwidth_bytes_per_ms", 0.0), ("bandwidth_bytes_per_ms", -5.0)])
def test_config_rejects_what_no_arrival_time_survives(field, value):
    # Caught at construction, not at the first send: a heartbeat's
    # arrival time is data no ``schedule`` call ever checks.
    with pytest.raises(ConfigurationError, match=field):
        NetworkConfig(**{field: value})


def test_config_accepts_zero_delays():
    config = NetworkConfig(latency_ms=0.0, loopback_delay_ms=0.0)
    assert config.latency_ms == config.loopback_delay_ms == 0.0
