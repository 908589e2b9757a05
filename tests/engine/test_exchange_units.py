"""Direct unit tests for exchange producer/consumer internals."""

from repro.config import CostModel, EngineConfig
from repro.data.batch import Batch
from repro.data.tuples import Row
from repro.engine.control import (
    ChannelAnnouncement,
    DiscardTuples,
    DistributionUpdate,
)
from repro.engine.distribution import HashBucketPolicy, WeightedRoundRobin
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators import (
    ConsumerRef,
    ExchangeConsumer,
    ExchangeProducer,
)
from repro.engine.operators.base import END, EvalContext, Operator
from repro.grid import GridContext
from repro.recovery.checkpoint import Checkpoint


class ListSource(Operator):
    def __init__(self, ctx, rows):
        super().__init__(ctx)
        self.rows = list(rows)
        self._cursor = 0

    def next_batch(self, max_rows):
        rows = self.rows[self._cursor:self._cursor + max_rows]
        if not rows:
            return END
        self._cursor += len(rows)
        return Batch(rows)
        yield  # pragma: no cover


class CapturingService:
    """Stands in for a GQES: records sends, delivers nothing."""

    def __init__(self, env):
        self.env = env
        self.sent = []

    def send(self, recipient, kind, payload, size_bytes=0, **_kw):
        from repro.sim.events import Event
        self.sent.append((recipient, kind, payload))
        return Event(self.env).succeed(None)

    def data_rows_to(self, recipient):
        rows = []
        for rcpt, _kind, payload in self.sent:
            if rcpt == recipient and hasattr(payload, "items"):
                for item in payload.items:
                    if isinstance(item, Batch):  # a wire block
                        rows.extend(item)
                    elif isinstance(item, Row):
                        rows.append(item)
        return rows


def make_world(policy=None, consumers=2, logging_enabled=True,
               buffer_size=4, checkpoint_interval=8):
    context = GridContext(seed=0)
    context.add_machine("host")
    ctx = EvalContext(
        grid=context,
        machine=context.machine("host"),
        metrics=SubplanMetrics("feed0:0"),
        cost=CostModel(),
        engine_config=EngineConfig(buffer_size=buffer_size,
                                   checkpoint_interval=checkpoint_interval,
                                   logging_enabled=logging_enabled),
        monitor=None)
    refs = [ConsumerRef(f"gqes-{i}", f"compute:{i}:0", f"compute:{i}",
                        f"m{i}") for i in range(consumers)]
    rows = [Row((f"key{i}", i), f"t#{i}") for i in range(16)]
    producer = ExchangeProducer(
        ctx, ListSource(ctx, rows), "xp:feed0:0", "compute", refs,
        policy or WeightedRoundRobin(consumers), row_bytes=32,
        estimated_total=len(rows))
    service = CapturingService(context.env)
    producer.service = service
    return context, ctx, producer, service, rows


def pump(context, producer):
    def body(env):
        while True:
            batch = yield from producer.next_batch(
                producer.ctx.engine_config.batch_size)
            if batch is END:
                break
        yield from producer.finish()

    process = context.env.process(body(context.env))
    context.env.run(until=process)


class TestProducerInternals:
    def test_pass_through_and_attribution(self):
        context, _ctx, producer, service, rows = make_world()
        pump(context, producer)
        assert producer.routed_total == 16
        assert sum(producer.sent_per_consumer) == 16
        assert producer.finished
        sent = (service.data_rows_to("gqes-0")
                + service.data_rows_to("gqes-1"))
        assert {r.tid for r in sent} == {r.tid for r in rows}

    def test_morsel_is_capped_one_row_short_of_a_flush(self):
        context, _ctx, producer, service, rows = make_world(
            consumers=1, checkpoint_interval=4)

        def body(env):
            yield from producer.next_batch(3)
            assert service.sent == []  # buffer_size - 1 rows buffered
            return (yield from producer.next_batch(32))

        process = context.env.process(body(context.env))
        context.env.run(until=process)
        assert [r.tid for r in process.value] == ["t#3"]
        (_recipient, _kind, payload), = service.sent
        assert payload.tuple_count == 4
        assert ([r.tid for r in service.data_rows_to("gqes-0")]
                == [r.tid for r in rows[:4]])
        # The marker closes the buffer it checkpoints.
        assert payload.items[-1] == Checkpoint(1, "xp:feed0:0", 4)
        assert not any(isinstance(item, Checkpoint)
                       for item in payload.items[:-1])

    def test_checkpoints_inserted_at_interval(self):
        context, _ctx, producer, service, _rows = make_world(
            checkpoint_interval=4)
        pump(context, producer)
        markers = [item for _r, _k, payload in service.sent
                   if hasattr(payload, "items")
                   for item in payload.items
                   if isinstance(item, Checkpoint)]
        # 8 rows per channel with interval 4 -> 2 markers each.
        assert len(markers) == 4
        assert all(m.producer_id == "xp:feed0:0" for m in markers)

    def test_no_checkpoints_without_logging(self):
        context, _ctx, producer, service, _rows = make_world(
            logging_enabled=False, checkpoint_interval=4)
        pump(context, producer)
        markers = [item for _r, _k, payload in service.sent
                   if hasattr(payload, "items")
                   for item in payload.items
                   if isinstance(item, Checkpoint)]
        assert markers == []

    def test_announcements_cover_all_attributed(self):
        context, _ctx, producer, service, _rows = make_world()
        pump(context, producer)
        announcements = [payload for _r, _k, payload in service.sent
                         if isinstance(payload, ChannelAnnouncement)]
        assert len(announcements) == 2
        union = set()
        for announcement in announcements:
            union |= announcement.sent_tids
        assert len(union) == 16

    def test_stale_epoch_update_is_ignored(self):
        context, _ctx, producer, _service, _rows = make_world()
        pump(context, producer)
        update = DistributionUpdate("compute", (0.9, 0.1), None, False, 1)

        def apply(env):
            first = yield from producer.apply_update_replay(update)
            yield from producer.apply_update_discard()
            second = yield from producer.apply_update_replay(update)
            return first, second

        process = context.env.process(apply(context.env))
        context.env.run(until=process)
        assert process.value == (True, False)
        assert producer.adaptations_applied == 1

    def test_retrospective_update_moves_and_discards(self):
        policy = HashBucketPolicy(2, key_position=0, bucket_count=16)
        context, _ctx, producer, service, _rows = make_world(policy=policy)
        pump(context, producer)
        new_map = [1] * 16  # everything to consumer 1
        update = DistributionUpdate("compute", (0.01, 0.99),
                                    tuple(new_map), True, 1)

        def apply(env):
            yield from producer.apply_update_replay(update)
            assert producer.moving
            yield from producer.apply_update_discard()
            assert not producer.moving

        process = context.env.process(apply(context.env))
        context.env.run(until=process)
        assert producer.tuples_moved > 0
        discards = [payload for _r, _k, payload in service.sent
                    if isinstance(payload, DiscardTuples)]
        assert len(discards) == 1
        assert discards[0].channel_key == "compute:0:0"
        # Everything now attributed to consumer 1.
        assert producer.sent_per_consumer[0] == 0
        assert producer.sent_per_consumer[1] == 16

    def test_prospective_update_never_discards(self):
        context, _ctx, producer, service, _rows = make_world()
        pump(context, producer)
        update = DistributionUpdate("compute", (0.9, 0.1), None, False, 1)

        def apply(env):
            yield from producer.apply_update_replay(update)
            yield from producer.apply_update_discard()

        process = context.env.process(apply(context.env))
        context.env.run(until=process)
        assert producer.tuples_moved == 0
        assert not any(isinstance(p, DiscardTuples)
                       for _r, _k, p in service.sent)

    def test_progress_report(self):
        context, _ctx, producer, _service, _rows = make_world()
        pump(context, producer)
        report = producer.progress()
        assert report.tuples_sent == 16
        assert report.fraction_sent == 1.0


class TestConsumerInternals:
    def make_consumer(self, expected=("xp:feed0:0",), defer_acks=False):
        context = GridContext(seed=0)
        context.add_machine("host")
        ctx = EvalContext(
            grid=context, machine=context.machine("host"),
            metrics=SubplanMetrics("compute:0"), cost=CostModel(),
            engine_config=EngineConfig(), monitor=None)
        consumer = ExchangeConsumer(ctx, "compute:0:0", list(expected),
                                    defer_acks=defer_acks)
        consumer.service = CapturingService(context.env)
        return context, consumer

    def drain_rows(self, context, consumer, count):
        def body(env):
            rows = []
            for _ in range(count):
                batch = yield from consumer.next_batch(1)
                if batch is END:
                    break
                rows.extend(batch)
            return rows

        process = context.env.process(body(context.env))
        context.env.run(until=process)
        return process.value

    def test_incomplete_without_announcement(self):
        _context, consumer = self.make_consumer()
        assert not consumer.is_complete()

    def test_completion_requires_all_settled(self):
        context, consumer = self.make_consumer()
        rows = [Row((i,), f"t#{i}") for i in range(3)]
        consumer.deliver("xp:feed0:0", "gqes-x", rows)
        consumer.apply_announcement(ChannelAnnouncement(
            "compute:0:0", "xp:feed0:0",
            frozenset(r.tid for r in rows), 1))
        assert not consumer.is_complete()
        self.drain_rows(context, consumer, 3)
        assert consumer.is_complete()

    def test_older_announcement_revision_ignored(self):
        _context, consumer = self.make_consumer()
        newer = ChannelAnnouncement("compute:0:0", "xp:feed0:0",
                                    frozenset({"t#1"}), 2)
        older = ChannelAnnouncement("compute:0:0", "xp:feed0:0",
                                    frozenset({"t#1", "t#2"}), 1)
        consumer.apply_announcement(newer)
        consumer.apply_announcement(older)
        assert consumer._announcements["xp:feed0:0"] is newer

    def test_discard_removes_queued_rows(self):
        context, consumer = self.make_consumer()
        rows = [Row((i,), f"t#{i}") for i in range(4)]
        consumer.deliver("xp:feed0:0", "gqes-x", rows)
        removed = consumer.apply_discard(DiscardTuples(
            "compute:0:0", "xp:feed0:0", frozenset({"t#1", "t#3"})))
        assert removed == 2
        got = self.drain_rows(context, consumer, 2)
        assert [r.tid for r in got] == ["t#0", "t#2"]

    def test_eager_ack_sent_on_checkpoint(self):
        context, consumer = self.make_consumer()
        consumer.deliver("xp:feed0:0", "gqes-x",
                         [Row((1,), "t#1"),
                          Checkpoint(1, "xp:feed0:0", 1)])
        self.drain_rows(context, consumer, 1)
        # Pull once more so the marker is handled (blocks afterwards).
        consumer.apply_announcement(ChannelAnnouncement(
            "compute:0:0", "xp:feed0:0", frozenset({"t#1"}), 1))
        self.drain_rows(context, consumer, 1)
        assert consumer.acks_sent == 1

    def test_deferred_acks_for_stateful_channels(self):
        context, consumer = self.make_consumer(defer_acks=True)
        consumer.deliver("xp:feed0:0", "gqes-x",
                         [Row((1,), "t#1"),
                          Checkpoint(1, "xp:feed0:0", 1)])
        consumer.apply_announcement(ChannelAnnouncement(
            "compute:0:0", "xp:feed0:0", frozenset({"t#1"}), 1))
        self.drain_rows(context, consumer, 2)
        assert consumer.acks_sent == 0

    def test_reset_producer_forgets_announcement(self):
        _context, consumer = self.make_consumer()
        consumer.apply_announcement(ChannelAnnouncement(
            "compute:0:0", "xp:feed0:0", frozenset(), 5))
        assert consumer.is_complete()
        consumer.reset_producer("xp:feed0:0")
        assert not consumer.is_complete()

    def test_unknown_producer_announcement_extends_expectations(self):
        _context, consumer = self.make_consumer(expected=())
        consumer.apply_announcement(ChannelAnnouncement(
            "compute:0:0", "xp:new:0", frozenset(), 1))
        assert "xp:new:0" in consumer.expected_producers
