"""Property tests: the wire's verdict decides a data send (decisions
40 and 41).

:func:`race_send` is the send it replaced: every attempt queues the
buffer's delivery, a ``send_retry.timeout_ms`` timer and an ``AnyOf``
of the two, and re-sends when the timer wins.  The verdict send of
``ExchangeProducer._send_with_retry`` knows each copy's arrival as the
buffer goes on the wire, so it waits for the first copy's delivery
when it arrives by the deadline (a tie goes to the delivery, as the
heap order gave it to the race) and for the deadline alone otherwise
(``GridService.send_within``).  A frozen sender's attempt waits out
its stall and then goes on the wire against the same deadline, in
both sends; a sender that is down by then resolves at once.

Run beside each other under the same scripted wire verdicts — drop,
duplicate, a delay that lands below, at or above the deadline, a
crashed recipient, a frozen or crashed sender — the two must resume
the sender at the same instants, count the same ``send`` retries,
deliver the same copies at the same times and drain to the same clock,
the verdict send queuing exactly one timer and one ``AnyOf`` fewer per
attempt that arrives in time and one ``AnyOf`` fewer per attempt that
does not.
"""

import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import RetryPolicy
from repro.chaos.injector import NO_FAULT, MessageFault
from repro.engine.operators.exchange import ExchangeProducer
from repro.grid import GridContext
from repro.net import KIND_DATA, NetworkConfig
from repro.services.base import GridService

#: Every time in these worlds is a small integer, so an arrival placed
#: at the deadline lands on it exactly.
LATENCY_MS = 1.0
BANDWIDTH = 100.0
WIRE_BYTES = 100
TIMEOUT_MS = 20.0

VERDICTS = ("none", "drop", "duplicate", "below", "at", "above")


def race_send(producer, endpoint, payload, wire_bytes, chaos):
    """The parent's ``_send_with_retry``: race each attempt's delivery
    against the retry timer, once a frozen sender's stall is over."""
    policy = chaos.config.send_retry
    env, network = producer.env, producer.service.network
    attempt = 0
    while True:
        attempt += 1
        deadline = env.now + policy.timeout_ms
        while ((leave := network.leave(producer.service.name)) is not None
               and leave > env.now):
            yield env.event().succeed(at=leave)
        delivered = producer.service.send(endpoint, KIND_DATA, payload,
                                          size_bytes=wire_bytes)
        winner, _ = yield producer.env.any_of(
            [delivered, env.event().succeed(at=max(deadline, env.now))])
        if winner is delivered:
            return
        chaos.count_retry("send")
        backoff = chaos.retry_backoff_ms(policy, attempt)
        if backoff > 0:
            yield producer.env.timeout(backoff)


class ScriptedChaos:
    """The chaos injector's send-side interface, drawing each remote
    message's verdict from a script; a delay is placed relative to the
    deadline of a send made now, given the link's backlog."""

    def __init__(self, context, verdicts, backoff_base_ms):
        self.env = context.env
        self.network = context.network
        self.verdicts = iter(verdicts)
        self.config = types.SimpleNamespace(send_retry=RetryPolicy(
            timeout_ms=TIMEOUT_MS, backoff_base_ms=backoff_base_ms,
            backoff_cap_ms=4 * backoff_base_ms, jitter=0.0))
        self.retries = []

    def message_fault(self, src, dst, _kind):
        verdict = next(self.verdicts, "none")
        if verdict == "none":
            return NO_FAULT
        if verdict in ("drop", "duplicate"):
            return MessageFault(verdict == "drop", verdict == "duplicate",
                                0.0)
        link = self.network.link_between(src, dst)
        now = self.env.now
        # The arrival with no extra delay: transmission starts when the
        # link frees, and propagation follows it.
        undelayed = (max(now, link._free_at) + WIRE_BYTES / BANDWIDTH
                     + LATENCY_MS)
        target = now + TIMEOUT_MS + {"below": -5.0, "at": 0.0,
                                     "above": 5.0}[verdict]
        return MessageFault(False, False, max(0.0, target - undelayed))

    def count_retry(self, kind):
        self.retries.append((kind, self.env.now))

    def retry_backoff_ms(self, policy, attempt):
        return policy.backoff_ms(attempt)


class Recipient(GridService):
    def __init__(self, context, name, machine_name):
        super().__init__(context, name, machine_name)
        self.received = []

    def on_data(self, message):
        self.received.append((self.env.now, message.payload))


SCENARIOS = st.fixed_dictionaries(dict(
    #: Gap before each send (0: right after the previous one returns).
    gaps=st.lists(st.sampled_from([0, 0, 3, 20, 40]), min_size=1,
                  max_size=6),
    verdicts=st.lists(st.sampled_from(VERDICTS), max_size=16),
    backoff_base_ms=st.sampled_from([0.0, 4.0]),
    loopback=st.booleans(),
    #: ``(at, duration)`` of a sender freeze.
    freeze=st.none() | st.tuples(st.integers(0, 120), st.integers(1, 60)),
    sender_crash=st.none() | st.integers(0, 200),
    recipient_crash=st.none() | st.integers(0, 200),
))


def run(scenario, by_race):
    """Send ``len(gaps)`` buffers one after another under the scenario;
    returns what either send may not change, the events queued and the
    events the verdict send must have saved."""
    context = GridContext(seed=0, network_config=NetworkConfig(
        latency_ms=LATENCY_MS, bandwidth_bytes_per_ms=BANDWIDTH))
    for machine in ("m1", "m2"):
        context.add_machine(machine)
    network, env = context.network, context.env
    sender = GridService(context, "sender", "m1")
    recipient = Recipient(context, "recipient",
                          "m1" if scenario["loopback"] else "m2")
    chaos = ScriptedChaos(context, scenario["verdicts"],
                          scenario["backoff_base_ms"])
    network.chaos = chaos
    producer = types.SimpleNamespace(service=sender, env=env)
    send = race_send if by_race else ExchangeProducer._send_with_retry
    saved = [0]
    send_within = sender.send_within

    def counting_send_within(*args):
        delivered = yield from send_within(*args)
        # In time: no timer and no AnyOf; else: no AnyOf.
        saved[0] += 2 if delivered else 1
        return delivered

    sender.send_within = counting_send_within
    resumes = []

    def body():
        for index, gap in enumerate(scenario["gaps"]):
            if gap:
                yield env.timeout(gap)
            yield from send(producer, recipient.name, index, WIRE_BYTES,
                            chaos)
            resumes.append(env.now)

    def at(when, action):
        env.timeout(when).callbacks.append(lambda _event: action())

    if scenario["freeze"] is not None:
        freeze_at, duration = scenario["freeze"]
        at(freeze_at, lambda: sender.machine.freeze(duration))
    def crash_sender():
        # The sender's host fails: its schedule says so from now on.
        context.availability_of("m1").fail(env.now)
        sender.crash()

    if scenario["sender_crash"] is not None:
        at(scenario["sender_crash"], crash_sender)
    if scenario["recipient_crash"] is not None:
        at(scenario["recipient_crash"], recipient.crash)
    env.process(body())
    env.run()
    return dict(
        resumes=resumes,
        retries=chaos.retries,
        received=recipient.received,
        counters=(network.messages_delivered, network.messages_dropped,
                  network.bytes_delivered),
        now=env.now,
    ), env.events_scheduled, saved[0]


@given(scenario=SCENARIOS)
# A delay that lands exactly on the deadline: the delivery wins.
@example(scenario=dict(gaps=[0], verdicts=["at"], backoff_base_ms=4.0,
                       loopback=False, freeze=None, sender_crash=None,
                       recipient_crash=None))
# The last buffer arrives before its deadline: the drained clock still
# reaches the deadline, where the race's timer fired.
@example(scenario=dict(gaps=[0], verdicts=[], backoff_base_ms=4.0,
                       loopback=False, freeze=None, sender_crash=None,
                       recipient_crash=None))
# Dropped, then duplicated while the sender is frozen, then late.
@example(scenario=dict(gaps=[0, 3], verdicts=["drop", "duplicate", "above"],
                       backoff_base_ms=0.0, loopback=False,
                       freeze=(10, 30), sender_crash=None,
                       recipient_crash=40))
@settings(max_examples=300, deadline=None)
def test_verdict_send_is_indistinguishable_from_the_race(scenario):
    expected, race_events, _ = run(scenario, by_race=True)
    got, events, saved = run(scenario, by_race=False)
    assert got == expected
    assert race_events - events == saved
