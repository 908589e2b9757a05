"""Subplan fragments and their evaluator processes.

A :class:`Fragment` is one deployed instance of a subplan on one
machine: an operator tree rooted at an exchange producer (or the
result sink), zero or more exchange-consumer leaves, and the metrics
object shared by them.  Its :meth:`run` generator is the evaluator
"thread": it pumps the root iterator, emits M1 monitoring events, and
handles end-of-stream including reopening when retrospective
repartitioning replays tuples after a channel had completed.
"""

from __future__ import annotations

import typing

from repro.core.notifications import M1Event
from repro.engine.operators.base import END, EvalContext, Operator
from repro.engine.operators.exchange import ExchangeProducer
from repro.engine.operators.exchange_consumer import ExchangeConsumer
from repro.engine.operators.hashjoin import HashJoin
from repro.sim.events import Event


class Fragment:
    """One subplan instance bound to a machine."""

    def __init__(self, ctx: EvalContext, subplan_id: str,
                 instance_index: int, root: Operator,
                 consumers: typing.Mapping[str, ExchangeConsumer],
                 producers: typing.Sequence[ExchangeProducer],
                 state_operators: typing.Mapping[str, HashJoin] | None = None,
                 m1_interval: int = 0) -> None:
        self.ctx = ctx
        self.env = ctx.env
        self.subplan_id = subplan_id
        self.instance_index = instance_index
        self.instance_id = f"{subplan_id}:{instance_index}"
        self.root = root
        #: channel_key -> consumer leaf.
        self.consumers = dict(consumers)
        self.producers = list(producers)
        #: channel_key -> stateful operator whose state that channel built.
        self.state_operators = dict(state_operators or {})
        self.m1_interval = m1_interval
        if isinstance(root, ExchangeProducer):
            # Acks assert durability of downstream results: consumers
            # flush the subplan's output before acknowledging.
            for consumer in self.consumers.values():
                consumer.ack_flush_producer = root
        #: What a parked evaluator waits on: armed at END, else None,
        #: so a wake-up nothing could wait on queues nothing.
        self.reactivated: Event | None = None
        self.completed = False
        #: Set when the hosting machine crashes: the evaluator stops
        #: abruptly, without flushing or announcing anything.
        self.halted = False
        self._produced_since_m1 = 0
        self.m1_events_emitted = 0

    # -- wiring ------------------------------------------------------------

    def attach_service(self, service) -> None:
        """Give exchange halves their hosting service for sends/acks."""
        for producer in self.producers:
            producer.service = service
        for consumer in self.consumers.values():
            consumer.service = service

    def detach(self) -> None:
        """Cut the links that point back up the tree — to the hosting
        service and to the root producer acks flush — once the
        evaluator has stopped for good."""
        self.attach_service(None)
        for consumer in self.consumers.values():
            consumer.ack_flush_producer = None

    def wake(self) -> None:
        """Signal the evaluator that new input or control arrived."""
        if self.reactivated is not None and not self.reactivated.triggered:
            self.reactivated.succeed(None)

    def discard_state(self, channel_key: str,
                      tids: typing.AbstractSet) -> int:
        """Remove operator state built from retracted tuples."""
        operator = self.state_operators.get(channel_key)
        if operator is None:
            return 0
        return operator.remove_build(tids)

    # -- the evaluator "thread" ----------------------------------------------

    def run(self, query_complete: Event) -> typing.Generator:
        ctx, root, env = self.ctx, self.root, self.env
        metrics = ctx.metrics
        yield from root.open()
        yield from ctx.settle()
        # Opening may block for a long time (a hash join's build phase
        # drains its whole build channel); discard whatever accumulated
        # so the first M1 batch only measures steady-state processing.
        metrics.drain_batch()
        batch_size = ctx.engine_config.batch_size
        monitored = ctx.monitor is not None and self.m1_interval > 0
        if monitored:
            # The monitoring cadence bounds the morsel: a morsel larger
            # than m1_interval would hold back M1 events until the whole
            # morsel's work is done, delaying perturbation detection by
            # up to batch_size/m1_interval monitoring periods.
            batch_size = max(1, min(batch_size, self.m1_interval))
        while not self.halted:
            iteration_start = env._now
            item = yield from root.next_batch(batch_size)
            # One CPU task per morsel: what the chain charged (nothing
            # is owed when the buffer the morsel filled already paid).
            if ctx.owed_work or ctx.owed_delay:
                yield from ctx.settle()
            if self.halted:
                break
            if item is not END:
                produced = len(item)
                metrics.record_iteration(env._now - iteration_start,
                                         produced)
                if monitored:
                    yield from self._maybe_emit_m1(produced)
                continue
            metrics.record_iteration(env._now - iteration_start, 0)
            # Re-arm before announcing so no wake-up is lost between
            # the END decision and the wait below.
            self.reactivated = env.event()
            yield from root.finish()
            if query_complete.triggered:
                break
            if not any(len(consumer.queue) > 0
                       for consumer in self.consumers.values()):
                winner, _value = yield env.any_of(
                    [query_complete, self.reactivated])
                if winner is query_complete:
                    break
            self.reactivated = None
        self.reactivated = None
        if not self.halted:
            yield from root.close()
        self.completed = True

    def _maybe_emit_m1(self, produced: int = 1) -> typing.Generator:
        """Emit the M1 events a monitored fragment's morsel of
        ``produced`` tuples is due.

        A batch may cross several ``m1_interval`` boundaries; each
        boundary contributes one M1 event (the raw-event count depends
        on the rows produced, not on the morsel size), all carrying the
        batch's aggregate per-tuple cost.
        """
        self._produced_since_m1 += produced
        if self._produced_since_m1 < self.m1_interval:
            return
        emissions = self._produced_since_m1 // self.m1_interval
        self._produced_since_m1 -= emissions * self.m1_interval
        cost_per_tuple, avg_wait, window_produced = (
            self.ctx.metrics.drain_batch())
        if window_produced == 0:
            return
        event = M1Event(
            instance_id=self.instance_id,
            subplan_id=self.subplan_id,
            machine_name=self.ctx.machine.name,
            cost_per_tuple_ms=cost_per_tuple,
            avg_wait_ms=avg_wait,
            selectivity=self.ctx.metrics.selectivity,
            produced_total=self.ctx.metrics.produced,
            timestamp=self.env.now)
        self.ctx.monitor.submit_m1(event, emissions)
        self.m1_events_emitted += emissions
        yield from self.ctx.pay_handover(emissions)
