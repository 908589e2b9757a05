"""Unit tests for the GridService base class and pub/sub."""

import pytest

from repro.errors import ServiceError
from repro.grid import GridContext
from repro.services import GridService, NotificationPublisher


class EchoService(GridService):
    """Test service answering op_echo and recording notifications."""

    def __init__(self, context, name, machine_name):
        super().__init__(context, name, machine_name)
        self.notifications = []

    def op_echo(self, payload, sender):
        yield self.env.timeout(1.0)
        return {"echo": payload, "from": sender}

    def op_boom(self, payload, sender):
        raise ValueError("kapow")
        yield  # pragma: no cover

    def on_notification(self, topic, payload, sender):
        self.notifications.append((topic, payload, sender))


class PublisherService(GridService, NotificationPublisher):
    def __init__(self, context, name, machine_name):
        GridService.__init__(self, context, name, machine_name)
        NotificationPublisher.__init__(self)


def make_context():
    context = GridContext(seed=0)
    context.add_machine("m1")
    context.add_machine("m2")
    return context


def test_request_response_round_trip():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    EchoService(context, "svc-b", "m2")

    def caller(env):
        result = yield from a.call("svc-b", "echo", "ping")
        return result, env.now

    proc = context.env.process(caller(context.env))
    context.env.run(until=proc)
    result, when = proc.value
    assert result == {"echo": "ping", "from": "svc-a"}
    # Two network hops plus the 1 ms handler delay.
    assert when > 1.0


def test_handler_exception_propagates_to_caller():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    EchoService(context, "svc-b", "m2")

    def caller(env):
        with pytest.raises(ValueError, match="kapow"):
            yield from a.call("svc-b", "boom", None)
        return "ok"

    proc = context.env.process(caller(context.env))
    context.env.run(until=proc)
    assert proc.value == "ok"


def test_unknown_operation_returns_service_error():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    EchoService(context, "svc-b", "m2")

    def caller(env):
        with pytest.raises(ServiceError):
            yield from a.call("svc-b", "nope", None)
        return "ok"

    proc = context.env.process(caller(context.env))
    context.env.run(until=proc)
    assert proc.value == "ok"


def test_notify_is_asynchronous():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    b = EchoService(context, "svc-b", "m2")
    a.notify("svc-b", "topic-x", {"v": 1})
    assert b.notifications == []  # nothing delivered yet
    context.env.run()
    assert b.notifications == [("topic-x", {"v": 1}, "svc-a")]


def test_publisher_fans_out_to_subscribers():
    context = make_context()
    publisher = PublisherService(context, "pub", "m1")
    sub1 = EchoService(context, "sub1", "m2")
    sub2 = EchoService(context, "sub2", "m2")
    publisher.subscribe("imbalance", "sub1")
    publisher.subscribe("imbalance", "sub2")
    fan_out = publisher.publish("imbalance", "payload")
    context.env.run()
    assert fan_out == 2
    assert sub1.notifications == [("imbalance", "payload", "pub")]
    assert sub2.notifications == [("imbalance", "payload", "pub")]
    assert publisher.notifications_published == 2


def test_stale_reply_after_timeout_is_discarded():
    """Regression: a reply landing after its call timed out used to be
    treated as a protocol violation, killing the dispatch loop."""
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    EchoService(context, "svc-b", "m2")

    def caller(env):
        # op_echo takes >1 ms (handler delay plus two network hops);
        # this timeout fires first, the reply arrives afterwards.
        with pytest.raises(ServiceError, match="timed out"):
            yield from a.call("svc-b", "echo", "ping", timeout_ms=0.5)
        return "ok"

    proc = context.env.process(caller(context.env))
    context.env.run(until=proc)
    assert proc.value == "ok"
    # Drain the in-flight reply.
    context.env.run()
    assert a.stale_replies_discarded == 1

    # The dispatcher survived: later calls still round-trip.
    def second(env):
        return (yield from a.call("svc-b", "echo", "again"))

    proc = context.env.process(second(context.env))
    context.env.run(until=proc)
    assert proc.value == {"echo": "again", "from": "svc-a"}


def test_truly_unknown_correlation_id_still_raises():
    from repro.net import KIND_RESPONSE, Message

    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    EchoService(context, "svc-b", "m2")
    rogue = Message(sender="svc-b", recipient="svc-a",
                    kind=KIND_RESPONSE, payload="?",
                    correlation_id=999)
    with pytest.raises(ServiceError, match="unexpected response"):
        a._complete_call(rogue)
    assert a.stale_replies_discarded == 0


def test_duplicate_subscription_ignored():
    context = make_context()
    publisher = PublisherService(context, "pub", "m1")
    EchoService(context, "x", "m2")
    publisher.subscribe("t", "x")
    publisher.subscribe("t", "x")
    assert publisher.publish("t", "payload") == 1


def test_message_is_routed_in_the_delivery_step():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    b = EchoService(context, "svc-b", "m2")
    seen = []
    a.notify("svc-b", "t", 1).callbacks.append(
        lambda _event: seen.append(list(b.notifications)))
    context.env.run()
    # Routed by the delivery event's first callback: the handler has
    # run by the time anything waiting on the send resumes.
    assert seen == [[("t", 1, "svc-a")]]
    assert len(b.mailbox) == 0


def test_frozen_service_routes_held_messages_in_order_at_the_thaw():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    b = EchoService(context, "svc-b", "m2")
    routed_at = []
    b.on_notification = lambda topic, _payload, _sender: routed_at.append(
        (topic, context.env.now))
    b.machine.freeze(50.0)
    for topic in ("first", "second", "third"):
        a.notify("svc-b", topic, None)
    context.env.run(until=10.0)
    # Delivered, held in the mailbox, one thaw timeout armed.
    assert routed_at == [] and len(b.mailbox) == 3
    b.machine.freeze(70.0)  # the stall is extended to t=80 meanwhile
    a.notify("svc-b", "fourth", None)
    context.env.run()
    assert routed_at == [("first", 80.0), ("second", 80.0),
                         ("third", 80.0), ("fourth", 80.0)]
    assert len(b.mailbox) == 0


def test_crashed_service_routes_nothing():
    context = make_context()
    a = EchoService(context, "svc-a", "m1")
    b = EchoService(context, "svc-b", "m2")
    b.machine.freeze(50.0)
    a.notify("svc-b", "held", None)
    context.env.run(until=10.0)
    assert len(b.mailbox) == 1
    b.crash()  # dies during the stall, with a message in its buffer
    a.notify("svc-b", "blackholed", None)
    context.env.run()
    assert b.notifications == []
    assert context.network.messages_dropped == 1
