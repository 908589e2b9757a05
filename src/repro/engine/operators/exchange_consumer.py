"""The consumer half of the enhanced exchange operator (§3.1).

The :class:`ExchangeConsumer` forms the leaf of a subplan: it owns the
incoming queue, acknowledges checkpoints, applies the discards of
retrospective moves and tracks completion by tid sets — a channel is
complete when every tid its producers announced has been settled
(returned to the subplan or discarded); revised announcements after a
move let it "reopen" safely.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.data.batch import Batch
from repro.engine.control import RECHECK, ChannelAnnouncement, DiscardTuples
from repro.engine.operators.base import END, EvalContext, Operator
from repro.errors import ExecutionError
from repro.net.message import KIND_CONTROL
from repro.recovery.checkpoint import Acknowledgement, Checkpoint
from repro.sim.stores import Store

if typing.TYPE_CHECKING:
    from repro.engine.operators.exchange import ExchangeProducer


@dataclasses.dataclass(frozen=True)
class ConsumerRef:
    """Address of one consumer instance of a partitioned subplan."""

    endpoint: str       # GQES service endpoint hosting the consumer
    channel_key: str    # routes to the right consumer inside the GQES
    instance_id: str    # subplan instance (for monitoring attribution)
    machine_name: str


class ExchangeConsumer(Operator):
    """Subplan-leaf exchange half: the incoming queue and its protocol."""

    def __init__(self, ctx: EvalContext, channel_key: str,
                 expected_producers: typing.Sequence[str],
                 defer_acks: bool = False) -> None:
        super().__init__(ctx)
        self.channel_key = channel_key
        self.expected_producers = list(expected_producers)
        #: Build channels of stateful operators defer acknowledgements:
        #: their tuples *are* the operator state and must stay logged.
        self.defer_acks = defer_acks
        self.queue = Store(ctx.env)
        self.service: typing.Any = None  # attached by the hosting GQES
        #: The fragment's root producer, flushed before each
        #: acknowledgement: an ack asserts the tuples are "not needed
        #: any more", which requires their outputs to be durable at the
        #: next stage (otherwise a crash after the ack loses results
        #: that no recovery log can regenerate).
        self.ack_flush_producer: ExchangeProducer | None = None
        self._settled: dict[str, set] = {
            pid: set() for pid in self.expected_producers}
        self._announcements: dict[str, ChannelAnnouncement] = {}
        self._producer_endpoints: dict[str, str] = {}
        self.aborted = False
        self.acks_sent = 0
        #: Data rows currently queued (wire blocks counted by their row
        #: count), the quantity the queue-depth series samples — entry
        #: counts would under-report 50-row blocks as depth 1.
        self._queued_rows = 0
        metrics = ctx.grid.metrics
        self._metric_received = metrics.counter(
            "exchange_rows_received", channel=channel_key)
        self._metric_discarded = metrics.counter(
            "exchange_rows_discarded", channel=channel_key)
        self._metric_queue_depth = metrics.series(
            "exchange_queue_depth", channel=channel_key)

    # -- GQES-facing entry points ------------------------------------------

    def deliver(self, producer_id: str, sender_endpoint: str,
                items: typing.Sequence) -> None:
        """Enqueue a deserialized buffer (called by the hosting GQES)."""
        self._producer_endpoints[producer_id] = sender_endpoint
        # One bulk enqueue per buffer, no event per item.
        self.queue.put_many((producer_id, item) for item in items)
        for item in items:
            if isinstance(item, Batch):
                self._queued_rows += len(item)
        self._metric_queue_depth.sample(self._queued_rows)

    def inject_recheck(self) -> None:
        """Force the evaluator to re-evaluate channel completion."""
        self.queue.put_many(((None, RECHECK),))

    def abort(self) -> None:
        """Stop consuming (host crash or query completion): drop
        whatever is queued and release the evaluator."""
        self.aborted = True
        self.queue.drain()
        self._queued_rows = 0
        self._metric_queue_depth.sample(0)
        # Unblock an evaluator parked inside queue.get(); one parked at
        # END is released by query completion or a crash's wake-up, so
        # no sentinel is left behind.
        if self.queue.waiting_getters:
            self.inject_recheck()

    def apply_discard(self, discard: DiscardTuples) -> int:
        """Drop retracted tuples still waiting in the queue.

        Queued wire blocks are filtered in place (an event-free
        :meth:`~repro.sim.stores.Store.remap`).
        """
        tids = discard.tids
        removed_rows = [0]

        def filter_entry(entry):
            producer_id, item = entry
            if isinstance(item, Batch):
                kept, removed = item.filter_tids(tids)
                if removed:
                    removed_rows[0] += removed
                    return (producer_id, kept) if len(kept) else None
            return entry

        self.queue.remap(filter_entry)
        removed = removed_rows[0]
        self._queued_rows -= removed
        self._metric_discarded.inc(removed)
        self._metric_queue_depth.sample(self._queued_rows)
        return removed

    def apply_announcement(self, announcement: ChannelAnnouncement) -> None:
        """Install (or revise) a producer's end-of-stream announcement."""
        if announcement.producer_id not in self._settled:
            self._settled[announcement.producer_id] = set()
            self.expected_producers.append(announcement.producer_id)
        current = self._announcements.get(announcement.producer_id)
        if current is None or announcement.revision > current.revision:
            self._announcements[announcement.producer_id] = announcement

    def reset_producer(self, producer_id: str) -> None:
        """Forget a producer's announcement (failure recovery).

        The replacement incarnation re-announces from revision 1;
        settled tids are kept so re-deliveries remain accounted.
        """
        self._announcements.pop(producer_id, None)

    def is_complete(self) -> bool:
        """All producers announced and every announced tid settled."""
        for producer_id in self.expected_producers:
            announcement = self._announcements.get(producer_id)
            if announcement is None:
                return False
            if not announcement.sent_tids <= self._settled[producer_id]:
                return False
        return True

    # -- iterator protocol ----------------------------------------------------

    def _accept_block(self, producer_id: str, block: Batch,
                      need: int) -> Batch:
        """Absorb up to ``need`` rows of a wire block, re-queueing the
        rest, and return the accepted sub-block."""
        if len(block) > need:
            block, rest = block.split_at(need)
            self.queue.put_back([(producer_id, rest)])
        self._handle_block(producer_id, block)
        return block

    def next_batch(self, max_rows: int) -> typing.Generator:
        #: Accepted wire blocks in arrival order, concatenated into one
        #: batch at the end — a single whole block passes through
        #: untouched.
        parts: list[Batch] = []
        count = 0
        while count < max_rows:
            if self.aborted:
                break
            # Synchronous drain: already-queued items are taken without
            # a StoreGet event each.  One entry per take: a block entry
            # can fill the whole morsel by itself.
            taken = self.queue.take(1)
            if taken:
                producer_id, item = taken[0]
                if count and not isinstance(item, Batch):
                    # A control item behind data must wait until the
                    # rows have flowed through the subplan: e.g. a
                    # checkpoint ack asserts their outputs are
                    # durable downstream.  Defer it and ship the
                    # partial batch.
                    self.queue.put_back(taken)
                    break
            elif count or self.is_complete():
                # Don't block while holding rows: ship a partial batch.
                break
            elif self.ctx.owed_work or self.ctx.owed_delay:
                # Paid before it waits, not booked as idle wait; then
                # look again, since paying takes simulated time.
                yield from self.ctx.settle()
                continue
            else:
                waited_from = self.env.now
                producer_id, item = yield self.queue.get()
                waited = self.env.now - waited_from
                if waited > 0:
                    self.ctx.metrics.record_wait(waited)
            if isinstance(item, Batch):
                block = self._accept_block(producer_id, item,
                                           max_rows - count)
                parts.append(block)
                count += len(block)
            else:
                yield from self._handle(item)
        if count:
            return Batch.concat(parts)
        return END

    def try_next(self) -> typing.Generator:
        """Non-blocking variant: the next queued wire block, settled,
        or None when the queue is idle.

        Control items ahead of the block are applied on the way.  Used
        by a join to absorb build state replayed after its build phase.
        """
        while taken := self.queue.take(1):
            producer_id, item = taken[0]
            if isinstance(item, Batch):
                self._handle_block(producer_id, item)
                return item
            yield from self._handle(item)
        return None

    def _handle(self, item: typing.Any) -> typing.Generator:
        """Apply a control item taken from the queue."""
        if item is RECHECK:
            return
        if isinstance(item, Checkpoint):
            self.ctx.charge("ack", self.ctx.cost.ack_work)
            if not self.defer_acks:
                if self.ack_flush_producer is not None:
                    yield from self.ack_flush_producer.flush_all()
                yield from self.ctx.settle()
                self._send_ack(item)
            return
        raise ExecutionError(
            f"{self.channel_key}: unexpected queue item {item!r}")

    def _handle_block(self, producer_id: str, block: Batch) -> None:
        """Settle a wire block taken from the queue: the one data arm.

        One counter update and one settled-set union per block.  Pure
        bookkeeping — rows, unlike checkpoints, charge no work and
        schedule no events.
        """
        count = len(block)
        self._queued_rows -= count
        self._metric_received.inc(count)
        self.ctx.metrics.record_consumed(count)
        settled = self._settled.setdefault(producer_id, set())
        settled.update(block.tids())

    def _send_ack(self, marker: Checkpoint) -> None:
        endpoint = self._producer_endpoints.get(marker.producer_id)
        if endpoint is None or self.service is None:
            return
        ack = Acknowledgement(marker.checkpoint_id, marker.producer_id,
                              self.channel_key)
        self.service.send(endpoint, KIND_CONTROL, ack)
        self.acks_sent += 1
