"""Tid ledgers against the hash-set algebra they replaced (decision 48).

A :class:`~repro.data.tuples.TidLedger` keeps a set of tids as the tid
lists of the blocks that entered it.  Three properties, each against
an oracle written with plain ``set`` operations, the way the exchange
kept these tids before:

* the ledger itself, over drawn adds, removes, resets and snapshots —
  every snapshot keeps reading what the ledger held when it was taken,
  and no list a caller handed in is ever changed;
* a producer's :class:`~repro.engine.redistribution.Redistribution`
  ledger (place, sent, retract, redirect, announce) — equal attributed
  and on-wire tids, equal announcements with equal revision numbers,
  equal discards;
* an :class:`~repro.engine.operators.ExchangeConsumer`'s completion,
  over drawn settles, announcements, revisions and resets — complete
  exactly when every producer announced and its announced tids are a
  subset of its settled ones.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import CostModel, EngineConfig
from repro.data.batch import Batch
from repro.data.tuples import TidLedger
from repro.engine.control import ChannelAnnouncement
from repro.engine.distribution import WeightedRoundRobin
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators import ExchangeConsumer
from repro.engine.operators.base import EvalContext
from repro.engine.redistribution import Redistribution
from repro.grid import GridContext

TIDS = st.sampled_from([f"t{index}" for index in range(8)])
BLOCK = st.lists(TIDS, max_size=4)
DROP = st.sets(TIDS, max_size=4)
CHANNEL = st.integers(0, 1)

def tid_set(blocks) -> set:
    """The tids of a ledger snapshot or announcement."""
    return set().union(*blocks)


ledger_settings = settings(max_examples=200, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# -- the ledger -------------------------------------------------------------

LEDGER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), BLOCK),
    st.tuples(st.just("remove"), DROP),
    st.tuples(st.just("reset"), BLOCK),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("outside"), st.lists(BLOCK, max_size=3)),
), max_size=30)


@ledger_settings
@given(steps=LEDGER_STEPS)
def test_a_ledger_holds_what_a_set_holds(steps):
    ledger, model = TidLedger(), set()
    snapshots = []          # (snapshot, the model when it was taken)
    handed = []             # (list handed in, its content then)
    for step in steps:
        verb = step[0]
        if verb == "add":
            ledger.add(step[1])
            handed.append((step[1], list(step[1])))
            model |= set(step[1])
        elif verb == "remove":
            assert ledger.remove(step[1]) == step[1] & model
            model -= step[1]
        elif verb == "reset":
            ledger = TidLedger([list(step[1])])
            model = set(step[1])
        elif verb == "snapshot":
            snapshots.append((ledger.snapshot(), set(model)))
        else:
            blocks = tuple(step[1])
            assert ledger.outside(blocks) == tid_set(blocks) - model
        assert ledger.members() == model
        for snapshot, then in snapshots:
            assert tid_set(snapshot) == then
    for tids, then in handed:
        assert tids == then


# -- the producer's ledger ----------------------------------------------------

class SetLedgers:
    """A producer's per-channel tids as hash sets: the oracle."""

    def __init__(self, count: int) -> None:
        self.attributed = [set() for _ in range(count)]
        self.on_wire = [set() for _ in range(count)]
        self.announced = [None] * count
        self.revision = [0] * count
        self.discards = []

    def place(self, index, tids):
        self.attributed[index].update(tids)

    def sent(self, index, tids):
        self.on_wire[index].update(tids)

    def announcements(self):
        due = []
        for index, tids in enumerate(self.attributed):
            current = frozenset(tids)
            if self.announced[index] != current:
                self.announced[index] = current
                self.revision[index] += 1
                due.append((index, current, self.revision[index]))
        return due

    def redirect(self, index, outstanding):
        self.on_wire[index] = set()
        self.announced[index] = None
        if outstanding is not None:
            self.attributed[index] = set(outstanding)

    def retract(self, index, moved):
        self.attributed[index] -= moved
        discard = moved & self.on_wire[index]
        self.on_wire[index] -= moved
        if discard:
            self.discards.append((index, frozenset(discard)))


PROTOCOL_STEPS = st.lists(st.one_of(
    st.tuples(st.just("place"), CHANNEL, BLOCK),
    st.tuples(st.just("sent"), CHANNEL, BLOCK),
    st.tuples(st.just("retract"), CHANNEL, DROP),
    st.tuples(st.just("redirect"), CHANNEL, st.none() | BLOCK),
    st.tuples(st.just("announce")),
), max_size=30)


@ledger_settings
@given(steps=PROTOCOL_STEPS)
def test_a_producer_announces_and_discards_as_with_sets(steps):
    protocol = Redistribution(WeightedRoundRobin(2))
    oracle = SetLedgers(2)
    for step in steps:
        verb = step[0]
        if verb == "announce":
            got = [(index, tid_set(blocks), revision)
                   for index, blocks, revision in protocol.announcements()]
            assert got == [(index, set(tids), revision)
                           for index, tids, revision in oracle.announcements()]
        elif verb == "redirect":
            protocol.redirect(step[1], step[2])
            oracle.redirect(step[1], step[2])
        else:
            getattr(protocol, verb)(step[1], step[2])
            getattr(oracle, verb)(step[1], step[2])
        assert protocol.attributed == oracle.attributed
        assert protocol.on_wire == oracle.on_wire
    assert protocol.take_discards() == oracle.discards


# -- the consumer's completion ------------------------------------------------

PRODUCERS = ("xp:a", "xp:b")

CONSUMER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("settle"), st.sampled_from(PRODUCERS), BLOCK),
    st.tuples(st.just("announce"), st.sampled_from(PRODUCERS + ("xp:c",)),
              st.lists(BLOCK, max_size=3), st.integers(1, 3)),
    st.tuples(st.just("reset"), st.sampled_from(PRODUCERS)),
), max_size=30)


def make_consumer() -> ExchangeConsumer:
    context = GridContext(seed=0)
    context.add_machine("host")
    ctx = EvalContext(
        grid=context, machine=context.machine("host"),
        metrics=SubplanMetrics("compute:0"), cost=CostModel(),
        engine_config=EngineConfig(), monitor=None)
    return ExchangeConsumer(ctx, "compute:0:0", list(PRODUCERS))


def settle(consumer: ExchangeConsumer, producer_id: str, tids) -> None:
    """Deliver one block and take it off the queue (no simulated time:
    a queued block is taken without an event)."""
    consumer.deliver(producer_id, "gqes-x", [Batch([], list(tids))])
    taking = consumer.try_next()
    try:
        next(taking)
    except StopIteration as done:
        assert len(done.value) == len(tids)
    else:
        raise AssertionError("settling a queued block yielded")


@ledger_settings
@given(steps=CONSUMER_STEPS)
# Complete only once a block settled after the announcement: random
# orders reach a complete state with both producers announced rarely.
@example(steps=[("announce", "xp:a", [["t0", "t1"]], 1),
                ("announce", "xp:b", [], 1),
                ("settle", "xp:a", ["t1"]), ("settle", "xp:a", ["t0"])])
def test_completion_is_announced_within_settled(steps):
    consumer = make_consumer()
    expected = list(PRODUCERS)
    settled = {producer: set() for producer in PRODUCERS}
    announced: dict = {}    # producer -> (tids, revision)
    for step in steps:
        verb, producer = step[0], step[1]
        if verb == "settle":
            settle(consumer, producer, step[2])
            settled[producer] |= set(step[2])
        elif verb == "announce":
            blocks, revision = tuple(step[2]), step[3]
            consumer.apply_announcement(ChannelAnnouncement(
                "compute:0:0", producer, blocks, revision))
            if producer not in settled:
                settled[producer] = set()
                expected.append(producer)
            current = announced.get(producer)
            if current is None or revision > current[1]:
                announced[producer] = (frozenset(tid_set(blocks)), revision)
        else:
            consumer.reset_producer(producer)
            announced.pop(producer, None)
        assert consumer.is_complete() == all(
            producer in announced
            and announced[producer][0] <= settled[producer]
            for producer in expected)
