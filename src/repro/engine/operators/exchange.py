"""The enhanced exchange operator: producers and consumers.

OGSA-DQP encapsulates all data communication in an exchange operator
[12] split into two independently running halves (§3.1, Response):

* the :class:`ExchangeProducer` forms the local root of a subplan.  It
  routes tuples to consumer instances under the current workload
  vector, ships them in buffers (synchronous, SOAP/HTTP-style sends),
  inserts checkpoint tuples, keeps per-channel recovery logs, emits the
  M1/M2 monitoring events, and executes distribution updates — both
  prospective (R2) and retrospective (R1, replaying recovery logs);
* the :class:`ExchangeConsumer` forms the leaf of a subplan.  It owns
  the incoming queue ("the incoming queues within exchanges can fit
  the complete dataset"), acknowledges checkpoints, tracks per-producer
  completion via end-of-stream announcements, and applies tuple
  discards issued during retrospective moves.

There is one wire format: the only data item ever buffered, logged,
sent or queued is a :class:`~repro.data.batch.Batch` block, and the
only other things in a buffer or a consumer queue are ``Checkpoint``
markers and the ``RECHECK`` sentinel.

Channel completion uses tid-set accounting: a producer announces the
set of tuple ids attributed to the channel; the channel is complete
when every announced tid has been settled (returned to the subplan or
discarded).  Announcements are revised when retrospective moves change
the attribution, which lets consumers "reopen" safely.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.data.batch import Batch
from repro.data.tuples import Row, Tid
from repro.engine.control import (
    RECHECK,
    ChannelAnnouncement,
    DataBuffer,
    DiscardTuples,
    ProgressReport,
)
from repro.engine.distribution import (
    DistributionPolicy,
    HashBucketPolicy,
    rebalance_outstanding,
)
from repro.engine.operators.base import END, EvalContext, Operator, UnaryOperator
from repro.errors import ExecutionError
from repro.net.message import KIND_CONTROL, KIND_DATA
from repro.recovery.checkpoint import Acknowledgement, Checkpoint
from repro.recovery.log import RecoveryLog
from repro.sim.stores import Store


@dataclasses.dataclass(frozen=True)
class ConsumerRef:
    """Address of one consumer instance of a partitioned subplan."""

    endpoint: str       # GQES service endpoint hosting the consumer
    channel_key: str    # routes to the right consumer inside the GQES
    instance_id: str    # subplan instance (for monitoring attribution)
    machine_name: str


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
        #: Per-tuple recovery-log cost, folded once: charged on every
        #: routed row, so the two-field lookup and multiply stay off
        #: the routing loop.
        self._log_work = (ctx.cost.log_append_work
                          + ctx.cost.log_append_work_per_byte * row_bytes)
        count = len(consumers)
        self._buffers: list[list] = [[] for _ in range(count)]
        self._buffer_rows: list[int] = [0] * count
        self._logs: list[RecoveryLog | None] = [
            RecoveryLog(ref.channel_key)
            if ctx.engine_config.logging_enabled else None
            for ref in consumers]
        #: Build channels of stateful subplans: the routed rows *are*
        #: the downstream operator state, so the producer retains every
        #: row it routes (insertion order) and, whenever a bucket-map
        #: change moves buckets, copies the moved buckets' rows to
        #: their new consumers before the probe side is rerouted —
        #: see :meth:`_replay_state_moves`.  Every channel buffers and
        #: ships :class:`Batch` blocks chunked at the checkpoint/flush
        #: boundaries; a state channel's blocks are row-backed, so the
        #: log, ``_retained``, the consumer queue and the join's hash
        #: table all share one ``Row`` object per tuple.
        self.state_channel = state_channel
        self._retained: dict[Tid, Row] | None = (
            {} if state_channel else None)
        #: Every consumer that ever owned each bucket.  Old owners keep
        #: their copy of a moved bucket (state channels never retract)
        #: and may still be probed by tuples queued before the move, so
        #: build rows produced *after* the move must reach them too —
        #: see :meth:`_multicast_targets`.
        self._bucket_owners: list[set[int]] | None = None
        if state_channel and isinstance(policy, HashBucketPolicy):
            self._bucket_owners = [{owner} for owner in policy.bucket_map]
        #: Fast path: stays False until a bucket-map change first gives
        #: a bucket a second owner.
        self._multicast = False
        #: Tids currently attributed to each channel (buffered or sent).
        self._attributed: list[set[Tid]] = [set() for _ in range(count)]
        #: Tids actually transmitted on each channel.
        self._on_wire: list[set[Tid]] = [set() for _ in range(count)]
        self._since_checkpoint: list[int] = [0] * count
        self._checkpoint_seq: list[int] = [0] * count
        self._channel_sent_rows: list[int] = [0] * count
        self._announced: list[frozenset | None] = [None] * count
        self._revision: list[int] = [0] * count
        self.routed_total = 0
        self.finished = False
        self.applied_epoch = 0
        #: Highest epoch whose replay phase has fully completed
        #: (deliveries confirmed).  A chaos-duplicated or retried
        #: update call observing ``epoch <= applied_epoch`` waits for
        #: this before acknowledging — see :meth:`apply_update_replay`.
        self._replay_settled_epoch = 0
        self._replay_waiters: list = []
        #: True between the replay and discard phases of an update
        #: (used by termination detection).
        self.moving = False
        self._pending_discards: list[tuple[int, frozenset]] = []
        #: Most recent update applied (kept so the GDQS can roll an
        #: orphaned two-phase update forward if the Responder dies).
        self.last_update = None
        self.adaptations_applied = 0
        self.retrospective_moves = 0
        self.state_replays = 0
        self.tuples_moved = 0
        self.tuples_replayed_for_recovery = 0
        self.buffers_sent = 0
        self.send_retries = 0
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
        return [len(tids) for tids in self._attributed]

    def progress(self) -> ProgressReport:
        """Progress estimation reply for the Responder ([7])."""
        return ProgressReport(self.producer_id, self.routed_total,
                              self.estimated_total)

    # -- iterator protocol -------------------------------------------------

    def next_batch(self, max_rows: int) -> typing.Generator:
        # Cap the morsel at the rows left until the fullest channel
        # buffer rotates: a morsel never straddles a flush boundary, so
        # a buffer ships as soon as its last row is produced instead of
        # waiting for the whole morsel's upstream work.  Morsels
        # re-align at each boundary (e.g. 32, 18, 32, 18, ... for
        # buffer size 50 on one channel).
        max_rows = max(1, min(
            max_rows,
            min(self.ctx.engine_config.buffer_size - filled
                for filled in self._buffer_rows)))
        batch = yield from self.child.next_batch(max_rows)
        if batch is END:
            return END
        # A replay reopened the subplan after it had finished: clear the
        # flag so termination detection waits for the new outputs to be
        # flushed and re-announced.
        self.finished = False
        if self.ctx.monitor is not None:
            self.ctx.charge("instrument",
                            self.ctx.cost.instrument_work_per_tuple,
                            len(batch))
        # Route and place the whole batch synchronously (no simulated
        # time passes), so a distribution update arriving mid-batch
        # sees every row in the buffers/logs: routing and buffering are
        # atomic per morsel.  The morsel's work is still owed here: it
        # is paid before the first rotated-out buffer is transmitted.
        logged = 0
        sends: list[tuple[int, list, int]] = []
        extras: dict[int, list[Row]] = {}
        for index, group in self.policy.route_batch(batch):
            group_logged, group_sends = self._place_batch(index, group)
            logged += group_logged
            sends.extend(group_sends)
            if self._multicast:
                for row in group:
                    for extra in self._multicast_targets(row, index):
                        extras.setdefault(extra, []).append(row)
        for index, group in extras.items():
            group_logged, group_sends = self._place_batch(index, group)
            logged += group_logged
            sends.extend(group_sends)
        self.routed_total += len(batch)
        yield from self._settle_batch(logged, sends)
        return batch

    def finish(self) -> typing.Generator:
        """Flush every buffer and announce (or re-announce) channels."""
        yield from self._flush_all()
        self.finished = True
        self._announce_all()

    # -- internals ----------------------------------------------------------

    def _place_batch(self, index: int, rows: typing.Sequence[Row]
                     ) -> tuple[int, list[tuple[int, list, int]]]:
        """Synchronously buffer and log ``rows`` on channel ``index``.

        With :meth:`_settle_batch`, the one place a row becomes
        buffered, attributed, retained, logged, checkpointed and
        rotated.  This half must not yield: rows are chunked so that a
        checkpoint marker follows every ``checkpoint_interval``-th row
        and a buffer rotates out at its ``buffer_size``-th.  Returns
        ``(logged_count, sends)`` where ``sends`` are rotated buffers
        as ``(index, items, row_count)``; the caller charges the
        aggregated log-append work and transmits via
        :meth:`_settle_batch`.

        ``rows`` may be a :class:`Batch` (the routing fast paths hand
        whole batches through).  Each chunk lands in the buffer as one
        ``Batch`` block — sliced column-wise when the source is
        column-backed, so no ``Row`` is materialized — with checkpoint
        markers between blocks.  A state channel retains the rows, so
        its blocks are made row-backed up front.
        """
        log = self._logs[index]
        config = self.ctx.engine_config
        if not isinstance(rows, Batch) or (self._retained is not None
                                           and rows.is_columnar):
            rows = Batch(rows)
        sends: list[tuple[int, list, int]] = []
        logged = 0
        position = 0
        total = len(rows)
        while position < total:
            take = total - position
            if log is not None:
                take = min(take, config.checkpoint_interval
                           - self._since_checkpoint[index])
            take = min(take, config.buffer_size - self._buffer_rows[index])
            chunk = rows.slice(position, position + take)
            position += take
            chunk_rows = len(chunk)
            self._buffers[index].append(chunk)
            tids = chunk.tids()
            self._attributed[index].update(tids)
            if self._retained is not None:
                self._retained.update(zip(tids, chunk.rows))
            if log is not None:
                log.append_block(chunk)
                logged += chunk_rows
            self._buffer_rows[index] += chunk_rows
            self._since_checkpoint[index] += chunk_rows
            self._channel_sent_rows[index] += chunk_rows
            if (log is not None
                    and self._since_checkpoint[index]
                    >= config.checkpoint_interval):
                self._insert_checkpoint(index)
            if self._buffer_rows[index] >= config.buffer_size:
                sends.append((index, self._buffers[index],
                              self._buffer_rows[index]))
                self._buffers[index] = []
                self._buffer_rows[index] = 0
        return logged, sends

    def _settle_batch(self, logged: int,
                      sends: typing.Sequence[tuple[int, list, int]]
                      ) -> typing.Generator:
        """Charge a placed batch's log cost and transmit its sends."""
        if logged:
            self.ctx.charge("log-append", self._log_work, logged)
        for index, items, row_count in sends:
            yield from self._transmit(index, items, row_count)

    def _insert_checkpoint(self, index: int) -> None:
        self._since_checkpoint[index] = 0
        self._checkpoint_seq[index] += 1
        marker = Checkpoint(self._checkpoint_seq[index], self.producer_id,
                            self._channel_sent_rows[index])
        self._buffers[index].append(marker)
        log = self._logs[index]
        if log is not None:
            log.seal(marker.checkpoint_id)

    def _flush_all(self) -> typing.Generator:
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
        self.buffers_sent += 1
        self._metric_buffers_sent.inc()
        self._metric_tuples_sent.inc(row_count)
        self._metric_bytes_sent.inc(wire_bytes)
        self._metric_occupancy.sample(sum(self._buffer_rows))
        on_wire = self._on_wire[index]
        for item in items:
            if isinstance(item, Batch):
                on_wire.update(item.tids())
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

        Unbounded by construction (the config layer rejects a bounded
        ``send_retry``): a data buffer must eventually arrive.  A
        duplicate delivery caused by a timed-out-but-delivered original
        is harmless — tid provenance de-duplicates downstream.  The
        elapsed retry time flows into the M2 send cost, so sustained
        loss surfaces to the Diagnoser as channel expense.
        """
        policy = chaos.config.send_retry
        attempt = 0
        while True:
            attempt += 1
            delivered = self.service.send(endpoint, KIND_DATA, payload,
                                          size_bytes=wire_bytes)
            winner, _ = yield self.env.any_of(
                [delivered, self.env.timeout(policy.timeout_ms)])
            if winner is delivered:
                return
            self.send_retries += 1
            chaos.count_retry("send")
            backoff = chaos.retry_backoff_ms(policy, attempt)
            if backoff > 0:
                yield self.env.timeout(backoff)

    def _announce_all(self) -> None:
        for index, consumer in enumerate(self.consumers):
            current = frozenset(self._attributed[index])
            if self._announced[index] == current:
                continue
            self._announced[index] = current
            self._revision[index] += 1
            announcement = ChannelAnnouncement(
                consumer.channel_key, self.producer_id, current,
                self._revision[index])
            self.service.send(consumer.endpoint, KIND_CONTROL, announcement)

    # -- distribution updates (the Response stage) ---------------------------

    def redirect_instance(self, instance_id: str, new_endpoint: str
                          ) -> typing.Generator:
        """Re-point channels of ``instance_id`` at a replacement host
        and replay the recovery logs (failure recovery, per [18]).

        Every logged (sent but unacknowledged) tuple of the affected
        channels is re-sent to the new endpoint; tuples already in the
        outgoing buffer go there on the next flush anyway.  Returns the
        number of channels redirected.
        """
        redirected = 0
        for index, ref in enumerate(self.consumers):
            if ref.instance_id != instance_id:
                continue
            self.consumers[index] = dataclasses.replace(
                ref, endpoint=new_endpoint)
            self._on_wire[index] = set()
            self._announced[index] = None  # force a fresh announcement
            log = self._logs[index]
            if log is not None:
                # Re-attribute the channel to what the replacement can
                # actually receive: the unacknowledged (logged) tuples.
                # Acknowledged tuples were fully processed and their
                # outputs flushed downstream before the ack, so they
                # need no replay and must not be awaited.
                self._attributed[index] = {
                    row.tid for row in log.outstanding()}
            if log is not None:
                yield from self.ctx.machine.work(
                    "log-extract",
                    self.ctx.cost.log_extract_work * max(1, len(log)))
                # Still-buffered rows flush below anyway.
                buffered_tids = {row.tid
                                 for row in self._buffered_rows(index)}
                resend = [row for row in log.outstanding()
                          if row.tid not in buffered_tids]
                if resend:
                    # Direct resend: already logged, must not re-log.
                    self._buffers[index].append(Batch(resend))
                    self._buffer_rows[index] += len(resend)
                    self.tuples_replayed_for_recovery += len(resend)
            yield from self._flush(index)
            redirected += 1
        if self.finished and redirected:
            yield from self._flush_all()
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
        """Phase 1 of a distribution update: new policy, then replays.

        Installs the new weights (and bucket map), and for
        retrospective (R1) updates extracts the moved tuples from the
        recovery logs and replays them on their new channels, with
        delivery confirmed before returning.  The matching discards are
        planned here but only issued by :meth:`apply_update_discard`,
        so the Responder can sequence replays across all producers of
        a stateful subplan (build side first) before any state is torn
        down.

        Returns True when the update was applied (False for a stale
        epoch).  The ack is the Responder's sequencing primitive — it
        only reroutes the probe side of a join once the build side's
        replay call returned — so a duplicate of an in-flight update
        (chaos can duplicate the request, and the duplicate would hit
        the stale-epoch path and ack instantly with the same
        correlation id) must wait for the original application to
        finish before returning.
        """
        if update.epoch <= self.applied_epoch:
            yield from self._await_replay_settled(update.epoch)
            return False
        self.applied_epoch = update.epoch
        self.last_update = update
        self.moving = True
        old_bucket_map = None
        if isinstance(self.policy, HashBucketPolicy):
            if self._retained is not None:
                old_bucket_map = list(self.policy.bucket_map)
            self.policy.update_weights(update.weights, update.bucket_map)
            if self._bucket_owners is not None:
                for bucket, owner in enumerate(self.policy.bucket_map):
                    owners = self._bucket_owners[bucket]
                    owners.add(owner)
                    if len(owners) > 1:
                        self._multicast = True
        else:
            self.policy.update_weights(update.weights)
        self.adaptations_applied += 1
        self._metric_adaptations.inc()
        self._pending_discards = []
        if old_bucket_map is not None:
            # State channel: the consumers' operator state is exactly
            # the rows this producer routed, so a bucket-map change is
            # served from the retained rows — for *every* update kind.
            # Prospective updates and quarantine deploys have no logs
            # to replay, and even the retrospective log path only
            # covers unacknowledged tuples; the retained copy covers
            # the whole bucket.
            yield from self._replay_state_moves(old_bucket_map)
        elif update.retrospective and self.ctx.engine_config.logging_enabled:
            self.retrospective_moves += 1
            yield from self._replay_moves(self._plan_moves())
        if self.finished:
            yield from self._flush_all()
        self._replay_settled_epoch = update.epoch
        waiters, self._replay_waiters = self._replay_waiters, []
        for event in waiters:
            event.succeed(None)
        return True

    def _await_replay_settled(self, epoch: int) -> typing.Generator:
        """Block until the replay phase of ``epoch`` has completed."""
        while self._replay_settled_epoch < epoch:
            event = self.env.event()
            self._replay_waiters.append(event)
            yield event

    def apply_update_discard(self) -> typing.Generator:
        """Phase 2: retract moved tuples from their old consumers.

        FIFO links guarantee each discard is observed after the data it
        refers to; revised channel announcements follow the discards on
        the same links.  Waits for the replay phase of the current
        epoch first: a duplicated replay request can ack the Responder
        early, letting this phase start while the replay is in flight.
        """
        yield from self._await_replay_settled(self.applied_epoch)
        for index, discard_tids in self._pending_discards:
            consumer = self.consumers[index]
            self.service.send(
                consumer.endpoint, KIND_CONTROL,
                DiscardTuples(consumer.channel_key, self.producer_id,
                              discard_tids))
        self._pending_discards = []
        if self.finished:
            yield from self._flush_all()
            self._announce_all()
        self.moving = False

    def _multicast_targets(self, row: Row, primary: int) -> tuple:
        """Former owners of ``row``'s bucket, beyond the current one.

        A moved bucket's old consumers keep its state and may still be
        probed by tuples that were queued (or frozen in transit) before
        the move, so state rows produced after the move are multicast
        to every consumer that ever owned the bucket.  Downstream
        insertion is tid-idempotent, so the copies are harmless where
        the old state turns out to be dead.
        """
        owners = self._bucket_owners[self.policy.bucket_of(row)]
        if len(owners) == 1:
            return ()
        return tuple(sorted(owners - {primary}))

    def _replay_state_moves(self, old_bucket_map: list) -> typing.Generator:
        """Copy the moved buckets' rows to their new consumers.

        State channels never retract.  The old consumer keeps its copy
        of a moved bucket — in-flight probes racing the update still
        find complete state there, while the new consumer receives the
        full bucket (delivery confirmed before this phase returns, and
        the Responder only reroutes the probe producers afterwards).
        Downstream insertion is tid-idempotent and the sink dedups
        join outputs by provenance, so the copy is exactly-once where
        it matters: in the result.
        """
        new_map = self.policy.bucket_map
        moved = {bucket for bucket, owner in enumerate(old_bucket_map)
                 if new_map[bucket] != owner}
        if not moved or not self._retained:
            return
        # Scanning the retained state is log-extract-shaped work.
        yield from self.ctx.machine.work(
            "state-extract",
            self.ctx.cost.log_extract_work * max(1, len(self._retained)))
        replays: dict[int, list[Row]] = {}
        for row in self._retained.values():
            bucket = self.policy.bucket_of(row)
            if bucket not in moved:
                continue
            target = new_map[bucket]
            if row.tid in self._attributed[target]:
                continue  # that consumer already holds this row
            replays.setdefault(target, []).append(row)
        if not replays:
            return
        self.state_replays += 1
        yield from self._replay_rows(replays)

    def _replay_moves(self, moves: dict[int, list[tuple[Row, int]]]
                      ) -> typing.Generator:
        """Retract moved tuples from their channels and replay them."""
        if not any(moves.values()):
            return
        for index, channel_moves in moves.items():
            moved_tids = {row.tid for row, _target in channel_moves}
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
            self._attributed[index] -= moved_tids
            discard_tids = moved_tids & self._on_wire[index]
            self._on_wire[index] -= moved_tids
            if discard_tids:
                self._pending_discards.append((index, frozenset(discard_tids)))
        # Replay moved tuples on their new channels and confirm delivery
        # (synchronous flush): the receiving consumers observe replayed
        # state before any discard can tear the old copy down.
        replays: dict[int, list[Row]] = {}
        for channel_moves in moves.values():
            for row, target in channel_moves:
                replays.setdefault(target, []).append(row)
        yield from self._replay_rows(replays)

    def _replay_rows(self, replays: dict[int, list[Row]]
                     ) -> typing.Generator:
        """Place ``replays`` (target channel -> rows), pay, transmit and
        flush: delivery is confirmed when this returns."""
        logged = 0
        sends: list[tuple[int, list, int]] = []
        for target, replay_rows in replays.items():
            target_logged, target_sends = self._place_batch(
                target, replay_rows)
            logged += target_logged
            sends.extend(target_sends)
            self.tuples_moved += len(replay_rows)
        yield from self._settle_batch(logged, sends)
        yield from self._flush_all()

    def _buffered_rows(self, index: int) -> list[Row]:
        """The rows currently buffered on channel ``index``, in order
        (wire blocks expanded, checkpoint markers skipped)."""
        rows: list[Row] = []
        for item in self._buffers[index]:
            if isinstance(item, Batch):
                rows.extend(item.rows)
        return rows

    def _plan_moves(self) -> dict[int, list[tuple[Row, int]]]:
        """Which outstanding tuples move where under the new policy."""
        outstanding: dict[int, list[Row]] = {}
        for index in range(len(self.consumers)):
            rows = []
            buffered = self._buffered_rows(index)
            log = self._logs[index]
            if log is not None:
                rows.extend(log.outstanding())
                buffered_tids = {row.tid for row in buffered}
                # Buffered rows are also logged; avoid double counting.
                rows = [row for row in rows if row.tid not in buffered_tids]
            rows.extend(buffered)
            outstanding[index] = rows
        if isinstance(self.policy, HashBucketPolicy):
            moves: dict[int, list[tuple[Row, int]]] = {}
            for index, rows in outstanding.items():
                for row in rows:
                    target = self.policy.route(row)
                    if target != index:
                        moves.setdefault(index, []).append((row, target))
            return moves
        return rebalance_outstanding(outstanding, self.policy.weights)


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
        self.rows_received = 0
        self.rows_discarded = 0
        self.acks_sent = 0
        #: Data rows currently queued (wire blocks counted by their row
        #: count), the quantity the queue-depth series samples — entry
        #: counts would under-report 50-row blocks as depth 1.
        self._queued_rows = 0
        metrics = ctx.grid.metrics
        self._metric_rows_received = metrics.counter(
            "exchange_rows_received", channel=channel_key)
        self._metric_rows_discarded = metrics.counter(
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
        # Unblock an evaluator parked inside queue.get(); one parked
        # elsewhere is woken by the caller instead, so no sentinel is
        # left behind.
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
        self.rows_discarded += removed
        self._queued_rows -= removed
        self._metric_rows_discarded.inc(removed)
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
                    yield from self.ack_flush_producer._flush_all()
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
        self.rows_received += count
        self._queued_rows -= count
        self._metric_rows_received.inc(count)
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
