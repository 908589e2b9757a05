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
import pytest

from repro.engine.operators import (
    ConsumerRef,
    ExchangeConsumer,
    ExchangeProducer,
    HashJoin,
)
from repro.engine.operators.base import END, EvalContext, Operator
from repro.errors import ExecutionError
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
        return Batch.from_rows(rows)
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
                    if isinstance(item, Batch):  # not a checkpoint marker
                        rows.extend(item.rows)
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
        assert process.value.tids() == ["t#3"]
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
        applied = context.metrics.find(
            "counter", "exchange_adaptations_applied",
            producer=producer.producer_id)
        assert applied.value == 1

    def test_retrospective_update_moves_and_discards(self):
        policy = HashBucketPolicy(2, key_position=0, bucket_count=16)
        context, _ctx, producer, service, _rows = make_world(policy=policy)
        pump(context, producer)
        new_map = [1] * 16  # everything to consumer 1
        update = DistributionUpdate("compute", (0.01, 0.99),
                                    tuple(new_map), True, 1)

        def apply(env):
            yield from producer.apply_update_replay(update)
            assert producer.protocol.moving
            yield from producer.apply_update_discard()
            assert not producer.protocol.moving

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

    def test_redirect_resends_outstanding_rows_as_one_unlogged_block(self):
        # 8 rows per channel at buffer size 3: two buffers sent, two
        # rows and the checkpoint marker still buffered, nothing acked.
        context, _ctx, producer, service, rows = make_world(
            buffer_size=3)

        def body(env):
            while (yield from producer.next_batch(32)) is not END:
                pass
            return (yield from producer.redirect_instance(
                "compute:1", "gqes-new"))

        log = producer._logs[1]
        process = context.env.process(body(context.env))
        context.env.run(until=process)
        assert process.value == 1
        assert log.appended_total == 8  # the resend is not re-logged
        assert producer.tuples_replayed_for_recovery == 6
        (payload,) = [payload for recipient, _k, payload in service.sent
                      if recipient == "gqes-new"]
        assert payload.tuple_count == 8
        # The still-buffered rows and their marker, then one block.
        *buffered, marker, resend = payload.items
        assert all(isinstance(item, Batch) for item in buffered)
        assert sum(len(item) for item in buffered) == 2
        assert marker == Checkpoint(1, "xp:feed0:0", 8)
        assert isinstance(resend, Batch) and len(resend) == 6
        # Every outstanding tid exactly once, buffered ones included.
        received = [r.tid for r in service.data_rows_to("gqes-new")]
        assert sorted(received) == sorted(log.outstanding().tids())
        assert len(received) == len(set(received)) == 8


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
                rows.extend(batch.rows)
            return rows

        process = context.env.process(body(context.env))
        context.env.run(until=process)
        return process.value

    @staticmethod
    def queue_depth_samples(context):
        series = context.metrics.find("series", "exchange_queue_depth",
                                      channel="compute:0:0")
        return [value for _time, value in series.samples]

    def test_incomplete_without_announcement(self):
        _context, consumer = self.make_consumer()
        assert not consumer.is_complete()

    def test_completion_requires_all_settled(self):
        context, consumer = self.make_consumer()
        rows = [Row((i,), f"t#{i}") for i in range(3)]
        consumer.deliver("xp:feed0:0", "gqes-x", [Batch.from_rows(rows)])
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
        rows = [Row((i,), f"t#{i}") for i in range(4)]
        context, consumer = self.make_consumer()
        consumer.deliver("xp:feed0:0", "gqes-x", [Batch.from_rows(rows)])
        removed = consumer.apply_discard(DiscardTuples(
            "compute:0:0", "xp:feed0:0", frozenset({"t#1", "t#3"})))
        assert removed == 2
        discarded = context.metrics.find(
            "counter", "exchange_rows_discarded", channel="compute:0:0")
        assert discarded.value == 2
        assert self.queue_depth_samples(context) == [4, 2]
        got = self.drain_rows(context, consumer, 2)
        assert [(r.tid, r.values) for r in got] == [
            ("t#0", (0,)), ("t#2", (2,))]

    def test_abort_resets_the_sampled_queue_depth(self):
        context, consumer = self.make_consumer()
        rows = [Row((i,), f"t#{i}") for i in range(5)]
        consumer.deliver("xp:feed0:0", "gqes-x", [Batch.from_rows(rows[:3])])
        consumer.abort()
        assert consumer.aborted and len(consumer.queue) == 0
        # A chaos duplicate or retried buffer arriving after the abort
        # must be sampled on its own, not on top of the dropped rows.
        consumer.deliver("xp:feed0:0", "gqes-x", [Batch.from_rows(rows[3:])])
        assert self.queue_depth_samples(context) == [3, 0, 2]

    def test_abort_releases_a_parked_getter(self):
        context, consumer = self.make_consumer()
        process = context.env.process(consumer.next_batch(1))
        context.env.run()
        assert consumer.queue.waiting_getters == 1
        consumer.abort()
        context.env.run(until=process)
        assert process.value is END
        assert len(consumer.queue) == 0  # no sentinel left behind

    def test_a_bare_row_on_the_wire_is_rejected(self):
        context, consumer = self.make_consumer()
        consumer.deliver("xp:feed0:0", "gqes-x", [Row((1,), "t#1")])
        with pytest.raises(ExecutionError, match="unexpected queue item"):
            self.drain_rows(context, consumer, 1)

    def test_eager_ack_sent_on_checkpoint(self):
        context, consumer = self.make_consumer()
        consumer.deliver("xp:feed0:0", "gqes-x",
                         [Batch.from_rows([Row((1,), "t#1")]),
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
                         [Batch.from_rows([Row((1,), "t#1")]),
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

    def test_replayed_block_is_state_before_the_next_probe(self):
        """A multi-row build block replayed after the build phase, with
        the checkpoint that follows it, on a ``defer_acks`` channel."""
        context, build = self.make_consumer(defer_acks=True)
        ctx = build.ctx
        first = Row(("k0", 0), "b#0")
        build.deliver("xp:feed0:0", "gqes-x", [Batch.from_rows([first])])
        build.apply_announcement(ChannelAnnouncement(
            "compute:0:0", "xp:feed0:0", frozenset({first.tid}), 1))
        probe = ListSource(ctx, [Row((f"k{i}", "p"), f"p#{i}")
                                 for i in range(4)])
        join = HashJoin(ctx, build, probe, 0, 0)
        labels = []
        charge = ctx.charge

        def recording_charge(label, work_per_item, count=1):
            labels.extend([label] * count)
            charge(label, work_per_item, count)

        ctx.charge = recording_charge
        late = [Row((f"k{i}", i), f"b#{i}") for i in range(1, 4)]

        def body(env):
            yield from join.open()
            assert join.state_size == 1
            build.deliver("xp:feed0:0", "gqes-x",
                          [Batch.from_rows(late),
                           Checkpoint(1, "xp:feed0:0", 4)])
            return (yield from join.next_batch(32))

        process = context.env.process(body(context.env))
        context.env.run(until=process)
        # All four probes match: the three late rows were inserted
        # before the first probe morsel was matched.
        assert process.value.tids() == [
            (f"p#{i}", f"b#{i}") for i in range(4)]
        # One row charged for the one-row build morsel, one per late row.
        assert labels.count("join-build") == 1 + len(late)
        assert labels.count("ack") == 1
        assert build.acks_sent == 0
        assert build.service.sent == []
        assert len(build.queue) == 0
