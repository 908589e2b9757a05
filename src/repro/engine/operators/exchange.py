"""The enhanced exchange operator's producer half.

OGSA-DQP encapsulates all data communication in an exchange operator
[12] split into two independently running halves (§3.1, Response);
the consumer half is :mod:`repro.engine.operators.exchange_consumer`.
The :class:`ExchangeProducer` forms the local root of a subplan.  It

* routes tuples to consumer instances under the current workload
  vector (a state channel's tuples also to a bucket's former owners);
* buffers them, inserts checkpoint tuples, keeps per-channel recovery
  logs and, on a state channel, retains every routed tuple;
* ships buffers (synchronous sends, re-sent under chaos) and emits M2;
* drives the redistribution protocol of
  :mod:`repro.engine.redistribution`, turning its decisions into CPU
  charges, sends and waits: the replay and discard phases of R2 and R1
  updates, and the redirect of a failed consumer's channels.

One wire format: a buffer, a recovery log and a consumer queue hold
:class:`~repro.data.batch.Batch` blocks, ``Checkpoint`` markers and
(queues only) the ``RECHECK`` sentinel, nothing else.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.data.batch import Batch
from repro.data.tuples import Tid
from repro.engine.control import (
    ChannelAnnouncement,
    DataBuffer,
    DiscardTuples,
    ProgressReport,
)
from repro.engine.distribution import DistributionPolicy
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator
from repro.engine.operators.exchange_consumer import ConsumerRef
from repro.engine.redistribution import Moves, Redistribution, regroup
from repro.errors import ExecutionError
from repro.net.message import KIND_CONTROL, KIND_DATA
from repro.recovery.checkpoint import Acknowledgement, Checkpoint
from repro.recovery.log import RecoveryLog


class ExchangeProducer(UnaryOperator):
    """Subplan-root exchange half: routes, buffers, ships, logs."""

    def __init__(self, ctx: EvalContext, child: Operator, producer_id: str,
                 target_subplan_id: str,
                 consumers: typing.Sequence[ConsumerRef],
                 policy: DistributionPolicy, row_bytes: int,
                 estimated_total: int,
                 state_channel: bool = False) -> None:
        super().__init__(ctx, child)
        if policy.consumer_count != len(consumers):
            raise ExecutionError(
                f"{producer_id}: policy for {policy.consumer_count} "
                f"consumers, got {len(consumers)}")
        self.producer_id = producer_id
        self.target_subplan_id = target_subplan_id
        self.consumers = list(consumers)
        self.policy = policy
        self.row_bytes = row_bytes
        self.estimated_total = estimated_total
        self.service: typing.Any = None  # attached by the hosting GQES
        #: Per-tuple recovery-log cost, folded once (off the routing loop).
        self._log_work = (ctx.cost.log_append_work
                          + ctx.cost.log_append_work_per_byte * row_bytes)
        count = len(consumers)
        self._buffers: list[list] = [[] for _ in range(count)]
        self._buffer_rows: list[int] = [0] * count
        self._logs: list[RecoveryLog | None] = [
            RecoveryLog(ref.channel_key)
            if ctx.engine_config.logging_enabled else None
            for ref in consumers]
        #: State channels (a join's build side): routed tuples *are* the
        #: downstream state, so every placed block is retained for bucket
        #: moves to copy, each tid from its first placement only; log,
        #: buffer and retained state share the block's column slices.
        self._retained: list[Batch] | None = [] if state_channel else None
        self._retained_tids: set[Tid] = set()
        #: Who owns each tid at each epoch (the Response stage's state).
        self.protocol = Redistribution(policy, state_channel)
        self._replay_waiters: list = []
        self._since_checkpoint: list[int] = [0] * count
        self._checkpoint_seq: list[int] = [0] * count
        self._channel_sent_rows: list[int] = [0] * count
        self.routed_total = 0
        self.finished = False
        self.retrospective_moves = 0
        self.tuples_moved = 0
        self.tuples_replayed_for_recovery = 0
        metrics = ctx.grid.metrics
        self._metric_tuples_sent = metrics.counter(
            "exchange_tuples_sent", producer=producer_id)
        self._metric_bytes_sent = metrics.counter(
            "exchange_bytes_sent", producer=producer_id)
        self._metric_buffers_sent = metrics.counter(
            "exchange_buffers_sent", producer=producer_id)
        self._metric_adaptations = metrics.counter(
            "exchange_adaptations_applied", producer=producer_id)
        self._metric_occupancy = metrics.series(
            "exchange_buffer_occupancy", producer=producer_id)

    # -- counters used by experiments -------------------------------------

    @property
    def sent_per_consumer(self) -> list[int]:
        """Rows currently attributed per consumer (the tuple ratio)."""
        return [len(tids) for tids in self.protocol.attributed]

    def progress(self) -> ProgressReport:
        """Progress estimation reply for the Responder ([7])."""
        return ProgressReport(self.producer_id, self.routed_total,
                              self.estimated_total)

    # -- iterator protocol -------------------------------------------------

    def next_batch(self, max_rows: int) -> typing.Generator:
        # Cap the morsel at the rows left until the fullest buffer
        # rotates, so a buffer ships as soon as its last row exists
        # (e.g. morsels 32, 18, 32, 18, ... for buffer size 50).
        max_rows = max(1, min(
            max_rows,
            self.ctx.engine_config.buffer_size - max(self._buffer_rows)))
        batch = yield from self.child.next_batch(max_rows)
        if batch is END:
            return END
        # A replay may have reopened a finished subplan: termination
        # waits for the new outputs to be flushed and re-announced.
        self.finished = False
        count = len(batch)
        if self.ctx.monitor is not None:
            self.ctx.charge("instrument",
                            self.ctx.cost.instrument_work_per_tuple, count)
        # Routing and placing are atomic per morsel (no simulated time
        # passes), so an update arriving mid-batch sees every row in the
        # buffers and logs; the owed work is paid before the first send.
        protocol = self.protocol
        placements = self.policy.route_batch(batch)
        if protocol.multicast:
            placements.extend(protocol.multicast_extras(placements))
        self.routed_total += count
        yield from self._place_and_send(placements)
        return batch

    def finish(self) -> typing.Generator:
        """Flush every buffer and announce (or re-announce) channels."""
        yield from self.flush_all()
        self.finished = True
        self._announce_all()

    # -- internals ----------------------------------------------------------

    def _place_and_send(self, placements: typing.Iterable[
            tuple[int, Batch]]) -> typing.Generator:
        """Place ``(channel, rows)`` groups, charge their log cost and
        transmit the buffers they rotated out."""
        logged = 0
        sends: list[tuple[int, list, int]] = []
        for index, rows in placements:
            logged += self._place_batch(index, rows, sends)
        if logged:
            self.ctx.charge("log-append", self._log_work, logged)
        for index, items, row_count in sends:
            yield from self._transmit(index, items, row_count)

    def _place_batch(self, index: int, rows: Batch,
                     sends: list[tuple[int, list, int]]) -> int:
        """Buffer, attribute, retain and log ``rows`` on channel
        ``index`` without yielding; returns the rows logged.

        Rows are sliced into ``Batch`` blocks so that a checkpoint
        marker follows every ``checkpoint_interval``-th row and a buffer
        rotates out into ``sends`` as ``(index, items, row_count)`` at
        its ``buffer_size``-th.  A group that fits before both is
        buffered and logged as it is, not copied: a ``Batch`` is never
        mutated once built (DESIGN decision 42).
        """
        log = self._logs[index]
        config = self.ctx.engine_config
        logged = 0
        position = 0
        total = len(rows)
        while position < total:
            take = total - position
            if log is not None:
                take = min(take, config.checkpoint_interval
                           - self._since_checkpoint[index])
            take = min(take, config.buffer_size - self._buffer_rows[index])
            chunk = (rows if take == total
                     else rows.slice(position, position + take))
            position += take
            self._buffers[index].append(chunk)
            tids = chunk.tids()
            self.protocol.place(index, tids)
            if self._retained is not None:
                self._retain(chunk, tids)
            if log is not None:
                log.append_block(chunk)
                logged += take
            self._buffer_rows[index] += take
            self._since_checkpoint[index] += take
            self._channel_sent_rows[index] += take
            if (log is not None
                    and self._since_checkpoint[index]
                    >= config.checkpoint_interval):
                self._insert_checkpoint(index)
            if self._buffer_rows[index] >= config.buffer_size:
                sends.append((index, self._buffers[index],
                              self._buffer_rows[index]))
                self._buffers[index] = []
                self._buffer_rows[index] = 0
        return logged

    def _retain(self, chunk: Batch, tids: list[Tid]) -> None:
        """Keep ``chunk``'s tuples whose tid is not retained yet."""
        seen = self._retained_tids
        fresh = []
        for position, tid in enumerate(tids):
            if tid not in seen:
                seen.add(tid)
                fresh.append(position)
        if len(fresh) == len(tids):
            self._retained.append(chunk)
        elif fresh:
            self._retained.append(chunk.take(fresh))

    def _insert_checkpoint(self, index: int) -> None:
        self._since_checkpoint[index] = 0
        self._checkpoint_seq[index] += 1
        marker = Checkpoint(self._checkpoint_seq[index], self.producer_id,
                            self._channel_sent_rows[index])
        self._buffers[index].append(marker)
        log = self._logs[index]
        if log is not None:
            log.seal(marker.checkpoint_id)

    def flush_all(self) -> typing.Generator:
        """Transmit every non-empty buffer, channel by channel."""
        for index in range(len(self.consumers)):
            yield from self._flush(index)

    def _flush(self, index: int) -> typing.Generator:
        items = self._buffers[index]
        if not items:
            return
        self._buffers[index] = []
        row_count = self._buffer_rows[index]
        self._buffer_rows[index] = 0
        yield from self._transmit(index, items, row_count)

    def _transmit(self, index: int, items: list, row_count: int
                  ) -> typing.Generator:
        """Serialize and send one (already rotated-out) buffer."""
        # Paid before it leaves: the work that produced these rows.
        yield from self.ctx.settle()
        consumer = self.consumers[index]
        serialization = self.ctx.grid.serialization
        started = self.env.now
        yield from self.ctx.machine.work(
            "serialize", serialization.serialize_work(row_count))
        payload = DataBuffer(consumer.channel_key, self.producer_id,
                             items, row_count)
        wire_bytes = serialization.wire_size_batch(row_count, self.row_bytes)
        # Synchronous send: the SOAP/HTTP call returns at delivery.
        chaos = self.ctx.grid.chaos
        if chaos is None:
            yield self.service.send(consumer.endpoint, KIND_DATA, payload,
                                    size_bytes=wire_bytes)
        else:
            yield from self._send_with_retry(consumer.endpoint, payload,
                                             wire_bytes, chaos)
        send_cost = self.env.now - started
        self._metric_buffers_sent.inc()
        self._metric_tuples_sent.inc(row_count)
        self._metric_bytes_sent.inc(wire_bytes)
        self._metric_occupancy.sample(sum(self._buffer_rows))
        for item in items:
            if isinstance(item, Batch):
                self.protocol.sent(index, item.tids())
        if self.ctx.monitor is not None and row_count:
            self.ctx.monitor.submit_m2(
                producer_id=self.producer_id,
                recipient_channel=consumer.channel_key,
                send_cost_ms=send_cost,
                tuple_count=row_count)
            yield from self.ctx.pay_handover(1)

    def _send_with_retry(self, endpoint: str, payload, wire_bytes: int,
                         chaos) -> typing.Generator:
        """Send a data buffer, re-sending on chaos-induced silence.

        Unbounded (the config layer rejects a bounded ``send_retry``):
        a data buffer must arrive, and a duplicate or late copy is
        de-duplicated downstream by tid.  Retry time flows into the M2
        send cost, so sustained loss surfaces to the Diagnoser as
        channel expense.
        """
        policy = chaos.config.send_retry
        attempt = 0
        while True:
            attempt += 1
            delivered = yield from self.service.send_within(
                endpoint, KIND_DATA, payload, wire_bytes, policy.timeout_ms)
            if delivered:
                return
            chaos.count_retry("send")
            backoff = chaos.retry_backoff_ms(policy, attempt)
            if backoff > 0:
                yield self.env.timeout(backoff)

    def _announce_all(self) -> None:
        for index, tids, revision in self.protocol.announcements():
            consumer = self.consumers[index]
            self.service.send(consumer.endpoint, KIND_CONTROL,
                              ChannelAnnouncement(consumer.channel_key,
                                                  self.producer_id, tids,
                                                  revision))

    def _outstanding(self, index: int) -> tuple[Batch, Batch]:
        """Channel ``index``'s logged rows that are no longer buffered
        (sent but unacknowledged), and its buffered rows, in order."""
        buffered = Batch.concat([item for item in self._buffers[index]
                                 if isinstance(item, Batch)])
        log = self._logs[index]
        if log is None:
            return Batch([], []), buffered
        # Buffered rows are also logged; avoid double counting.
        logged, _removed = log.outstanding().filter_tids(
            set(buffered.tids()))
        return logged, buffered

    # -- distribution updates (the Response stage) ---------------------------

    def redirect_instance(self, instance_id: str, new_endpoint: str
                          ) -> typing.Generator:
        """Re-point channels of ``instance_id`` at a replacement host
        and replay the recovery logs (failure recovery, per [18]):
        every logged (sent but unacknowledged) tuple is re-sent there,
        buffered ones on the next flush anyway.  Returns the number of
        channels redirected."""
        redirected = 0
        for index, ref in enumerate(self.consumers):
            if ref.instance_id != instance_id:
                continue
            self.consumers[index] = dataclasses.replace(
                ref, endpoint=new_endpoint)
            log = self._logs[index]
            self.protocol.redirect(index, None if log is None
                                   else log.outstanding().tids())
            if log is not None:
                yield from self.ctx.machine.work(
                    "log-extract",
                    self.ctx.cost.log_extract_work * max(1, len(log)))
                # Still-buffered rows flush below anyway.
                resend, _buffered = self._outstanding(index)
                if resend:
                    # Direct resend: already logged, must not re-log.
                    self._buffers[index].append(resend)
                    self._buffer_rows[index] += len(resend)
                    self.tuples_replayed_for_recovery += len(resend)
            yield from self._flush(index)
            redirected += 1
        if self.finished and redirected:
            yield from self.flush_all()
            self._announce_all()
        return redirected

    def handle_ack(self, ack: Acknowledgement) -> None:
        """Prune the recovery log up to an acknowledged checkpoint."""
        for index, consumer in enumerate(self.consumers):
            if consumer.channel_key == ack.channel_key:
                log = self._logs[index]
                if log is not None:
                    log.acknowledge(ack.checkpoint_id)
                return

    def apply_update_replay(self, update) -> typing.Generator:
        """Phase 1 of a distribution update: new policy, then replays
        (state copies, or R1's log moves), delivery confirmed before
        returning; the discards wait for :meth:`apply_update_discard`,
        so the Responder can replay every producer of a stateful
        subplan (build side first) before any state is torn down.

        Returns True when applied, False for a stale epoch.  The
        Responder reroutes a join's probe side only once the build
        side's call returned, so a stale duplicate of an in-flight
        update (chaos duplicates requests) must wait for the original
        to settle before acknowledging.
        """
        protocol = self.protocol
        if not protocol.apply(update):
            yield from self._await_replay_settled(update.epoch)
            return False
        self._metric_adaptations.inc()
        if protocol.bucket_owners is not None:
            # A state channel: the consumers' state is exactly the rows
            # routed here, so a bucket-map change of *any* update kind
            # copies retained rows (logs hold only the unacknowledged
            # tail).
            yield from self._replay_state_moves()
        elif update.retrospective and self.ctx.engine_config.logging_enabled:
            self.retrospective_moves += 1
            outstanding = {index: Batch.concat(self._outstanding(index))
                           for index in range(len(self.consumers))}
            yield from self._replay_moves(outstanding,
                                          protocol.plan_moves(outstanding))
        if self.finished:
            yield from self.flush_all()
        protocol.settle(update.epoch)
        waiters, self._replay_waiters = self._replay_waiters, []
        for event in waiters:
            event.succeed(None)
        return True

    def _await_replay_settled(self, epoch: int) -> typing.Generator:
        """Block until the replay phase of ``epoch`` has completed."""
        while not self.protocol.is_settled(epoch):
            event = self.env.event()
            self._replay_waiters.append(event)
            yield event

    def apply_update_discard(self) -> typing.Generator:
        """Phase 2: retract moved tuples from their old consumers.

        FIFO links deliver each discard after the data it refers to,
        and revised announcements after the discards.  Waits for the
        current epoch's replay first: a duplicated replay request can
        ack the Responder while the replay is still in flight.
        """
        protocol = self.protocol
        yield from self._await_replay_settled(protocol.applied_epoch)
        for index, discard_tids in protocol.take_discards():
            consumer = self.consumers[index]
            self.service.send(
                consumer.endpoint, KIND_CONTROL,
                DiscardTuples(consumer.channel_key, self.producer_id,
                              discard_tids))
        if self.finished:
            yield from self.flush_all()
            self._announce_all()
        protocol.end_move()

    def _replay_state_moves(self) -> typing.Generator:
        """Copy the moved buckets' retained rows to their new owners."""
        # Read before paying: an update applied meanwhile replaces it.
        moved = self.protocol.moved_buckets
        if not moved or not self._retained:
            return
        # Scanning the retained state is log-extract-shaped work.
        yield from self.ctx.machine.work(
            "state-extract",
            self.ctx.cost.log_extract_work * len(self._retained_tids))
        copies = self.protocol.state_copies(self._retained, moved)
        if copies:
            yield from self._replay_blocks(copies)

    def _replay_moves(self, outstanding: dict[int, Batch], moves: Moves
                      ) -> typing.Generator:
        """Retract moved tuples from their channels and replay them."""
        if not any(moves.values()):
            return
        for index, channel_moves in moves.items():
            tids = outstanding[index].tids()
            moved_tids = {tids[position] for position, _target
                          in channel_moves}
            buffered_kept = []
            for item in self._buffers[index]:
                if isinstance(item, Batch):
                    kept, removed = item.filter_tids(moved_tids)
                    self._buffer_rows[index] -= removed
                    if len(kept):
                        buffered_kept.append(kept)
                else:
                    buffered_kept.append(item)  # checkpoint marker
            self._buffers[index] = buffered_kept
            log = self._logs[index]
            if log is not None:
                yield from self.ctx.machine.work(
                    "log-extract",
                    self.ctx.cost.log_extract_work * max(1, len(log)))
                log.remove(moved_tids)
            self.protocol.retract(index, moved_tids)
        # Delivery is confirmed (synchronous flush) before any discard
        # can tear the old copy down.
        yield from self._replay_blocks(regroup(
            (outstanding[index], channel_moves)
            for index, channel_moves in moves.items()))

    def _replay_blocks(self, replays: dict[int, Batch]) -> typing.Generator:
        """Place ``replays`` (target channel -> rows), pay, transmit and
        flush: delivery is confirmed when this returns."""
        for rows in replays.values():
            self.tuples_moved += len(rows)
        yield from self._place_and_send(replays.items())
        yield from self.flush_all()
