"""Grid Query Evaluation Services.

A GQES "is dynamically created on each machine that has been selected
by the GDQS's optimiser to contribute to the execution" and contains
the query execution engine (§2).  An *Adaptive* GQES (AGQES)
additionally hosts a local MonitoringEventDetector, whose hook is
threaded into its fragments' operators.

The GQES owns the machine-side halves of every engine protocol:

* ``data`` messages are deserialized (CPU work) and routed into the
  right exchange consumer's queue;
* ``control`` messages (discards, announcements, acknowledgements,
  distribution updates, query completion) are applied in arrival
  order — both paths serialise through the machine's FIFO CPU, which
  preserves the per-link FIFO guarantees the recovery protocol needs.

A GQES lives as long as its query: it retires once the query has
ended, query completion has been applied here and every evaluator has
stopped, leaving a :class:`LateArrivals` tombstone behind.
"""

from __future__ import annotations

import typing

from repro.config import CostModel, EngineConfig
from repro.core.monitoring import MonitoringEventDetector
from repro.engine.control import (
    ChannelAnnouncement,
    DataBuffer,
    DiscardTuples,
    QueryComplete,
    ResetProducer,
)
from repro.engine.evaluator import Fragment
from repro.errors import ServiceError
from repro.grid.container import GridContext
from repro.net.message import KIND_CONTROL, KIND_DATA, Message
from repro.recovery.checkpoint import Acknowledgement
from repro.services.base import GridService


class GQES(GridService):
    """One query-evaluation service instance on one machine."""

    def __init__(self, context: GridContext, query_id: str,
                 machine_name: str, engine_config: EngineConfig,
                 cost: CostModel,
                 detector: MonitoringEventDetector | None = None) -> None:
        super().__init__(context, f"gqes:{query_id}:{machine_name}",
                         machine_name)
        self.query_id = query_id
        self.engine_config = engine_config
        self.cost = cost
        self.detector = detector
        self.fragments: dict[str, Fragment] = {}
        self._consumers: dict[str, tuple] = {}   # channel_key -> (xc, frag)
        self._producers: dict[str, tuple] = {}   # producer_id -> (xp, frag)
        self.query_complete = self.env.event()
        self._ingests_active = 0

    # -- fault tolerance -----------------------------------------------------

    def on_crash(self) -> None:
        """Host failure: every evaluator and its state is lost."""
        for fragment in self.fragments.values():
            fragment.halted = True
            for consumer in fragment.consumers.values():
                consumer.abort()
            fragment.wake()

    # -- deployment ------------------------------------------------------

    def deploy(self, fragment: Fragment) -> None:
        """Install a subplan fragment and start its evaluator."""
        if fragment.instance_id in self.fragments:
            raise ServiceError(
                f"{self.name}: fragment {fragment.instance_id} already "
                "deployed")
        self.fragments[fragment.instance_id] = fragment
        fragment.attach_service(self)
        for channel_key, consumer in fragment.consumers.items():
            self._consumers[channel_key] = (consumer, fragment)
        for producer in fragment.producers:
            self._producers[producer.producer_id] = (producer, fragment)
        self.spawn(fragment.run(self.query_complete),
                   name=f"eval:{fragment.instance_id}")

    # -- retirement ----------------------------------------------------------

    def _done(self) -> bool:
        # Crashed or not, the evaluators must have stopped before
        # ``_on_retire`` detaches their operators.
        return (not self._busy
                and (self.query_complete.triggered or self.crashed))

    def _on_retire(self) -> None:
        # What is left must be a tree, which reference counting frees.
        for fragment in self.fragments.values():
            fragment.detach()

    def _late_handler(self) -> "LateArrivals":
        return LateArrivals(self)

    # -- data path ----------------------------------------------------------

    # Ingest charges the CPU in on_data/on_control itself, so
    # same-instant messages enter the CPU queue in routing order.
    # ``_ingests_active`` is raised on receipt and dropped once the
    # message is applied, so quiescence detection sees a message as in
    # flight from the moment it leaves the mailbox.

    def on_data(self, message: Message) -> None:
        self._ingests_active += 1
        buffer: DataBuffer = message.payload
        task = self.machine.cpu.execute(
            self.context.serialization.deserialize_work(buffer.tuple_count),
            label="deserialize")

        def on_deserialized(_event) -> None:
            try:
                try:
                    consumer, fragment = self._consumers[
                        buffer.channel_key]
                except KeyError:
                    raise ServiceError(
                        f"{self.name}: data for unknown channel "
                        f"{buffer.channel_key}") from None
                consumer.deliver(buffer.producer_id, message.sender,
                                 buffer.items)
                fragment.wake()
            finally:
                self._ingests_active -= 1

        task.callbacks.append(on_deserialized)

    # -- control path ---------------------------------------------------------

    def on_control(self, message: Message) -> None:
        self._ingests_active += 1
        task = self.machine.cpu.execute(self.cost.control_event_work,
                                        label="control")

        def on_charged(_event) -> None:
            try:
                self._apply_control(message)
            finally:
                self._ingests_active -= 1

        task.callbacks.append(on_charged)

    def _apply_control(self, message: Message) -> None:
        """Apply one control message.  One for a channel or producer
        torn down already is dropped; a channel-keyed one wakes the
        channel's fragment after its consumer rechecks."""
        payload = message.payload
        if isinstance(payload, QueryComplete):
            self._apply_query_complete()
        elif isinstance(payload, Acknowledgement):
            entry = self._producers.get(payload.producer_id)
            if entry is not None:
                entry[0].handle_ack(payload)
        elif isinstance(payload, (DiscardTuples, ChannelAnnouncement,
                                  ResetProducer)):
            entry = self._consumers.get(payload.channel_key)
            if entry is None:
                return
            consumer, fragment = entry
            if isinstance(payload, DiscardTuples):
                consumer.apply_discard(payload)
                fragment.discard_state(payload.channel_key, payload.tids)
            elif isinstance(payload, ChannelAnnouncement):
                consumer.apply_announcement(payload)
            else:
                consumer.reset_producer(payload.producer_id)
            consumer.inject_recheck()
            fragment.wake()
        else:
            raise ServiceError(
                f"{self.name}: unknown control payload {payload!r}")

    def _apply_query_complete(self) -> None:
        # No wake-up: a parked evaluator races ``query_complete``, and
        # one that is not parked checks it before it parks.
        if not self.query_complete.triggered:
            self.query_complete.succeed(None)
        for fragment in self.fragments.values():
            for consumer in fragment.consumers.values():
                consumer.abort()
        self._retire_if_idle()

    # -- operations (request/response) ---------------------------------------

    def op_progress(self, payload: dict, sender: str) -> typing.Generator:
        """Progress reports for producers feeding ``subplan_id`` ([7])."""
        subplan_id = payload["subplan_id"]
        reports = [producer.progress()
                   for producer, _fragment in self._producers.values()
                   if producer.target_subplan_id == subplan_id]
        return reports
        yield  # pragma: no cover - generator form required by dispatcher

    def op_update_distribution(self, payload: dict,
                               sender: str) -> typing.Generator:
        """Apply one phase of a distribution update to one producer.

        The callee of :func:`repro.core.responder.deploy_update`, which
        sends every producer of the subplan its replay (build side
        first), then its discard in reverse order — so a join instance
        observes replayed build state before the matching probe tuples,
        and old state is torn down only after they left.
        """
        if self.query_complete.triggered:
            return "query-complete"
        entry = self._producers.get(payload["producer_id"])
        if entry is None:
            return "unknown-producer"
        producer, _fragment = entry
        if payload["phase"] == "replay":
            applied = yield from producer.apply_update_replay(
                payload["update"])
            return "applied" if applied else "stale-epoch"
        yield from producer.apply_update_discard()
        return "discarded"

    def op_redirect_channels(self, payload: dict,
                             sender: str) -> typing.Generator:
        """Re-point local producers' channels at a replacement host.

        Part of failure recovery: every producer feeding
        ``subplan_id`` redirects the channels of ``instance_id`` to
        ``endpoint`` and replays its recovery logs.
        """
        redirected = 0
        for producer, _fragment in list(self._producers.values()):
            if producer.target_subplan_id != payload["subplan_id"]:
                continue
            redirected += yield from producer.redirect_instance(
                payload["instance_id"], payload["endpoint"])
        return redirected

    def op_update_status(self, payload: dict,
                         sender: str) -> typing.Generator:
        """Local producers' epoch machines for a subplan, as plain values.

        Used by the GDQS to roll an orphaned update forward after the
        Responder crashed between the replay and discard phases.
        """
        status = []
        for producer, _fragment in self._producers.values():
            if producer.target_subplan_id != payload["subplan_id"]:
                continue
            status.append({
                "producer_id": producer.producer_id,
                "applied_epoch": producer.protocol.applied_epoch,
                "moving": producer.protocol.moving,
                "last_update": producer.protocol.last_update,
            })
        return status
        yield  # pragma: no cover - generator form required by dispatcher

    def op_processed(self, payload: dict, sender: str) -> typing.Generator:
        """Tuples consumed so far by local instances of ``subplan_id``."""
        subplan_id = payload["subplan_id"]
        total = sum(fragment.ctx.metrics.consumed
                    for fragment in self.fragments.values()
                    if fragment.subplan_id == subplan_id)
        return total
        yield  # pragma: no cover - generator form required by dispatcher

    # -- coordinator-side termination detection -------------------------------

    def is_quiescent(self) -> bool:
        """No undelivered, unprocessed or in-flight engine work here.

        Used by the GDQS to double-check query completion: a sink that
        looks complete is only trusted once every GQES is quiescent, so
        an adaptation racing the finish line cannot be missed.
        """
        if self.crashed:
            return True  # a dead node holds no recoverable work
        if self._ingests_active > 0 or len(self.mailbox) > 0:
            return False
        for fragment in self.fragments.values():
            for consumer in fragment.consumers.values():
                if len(consumer.queue) > 0:
                    return False
                if not (consumer.aborted or consumer.is_complete()):
                    return False
            for producer in fragment.producers:
                if not producer.finished or producer.protocol.moving:
                    return False
        return True


def heartbeats(deployment: list[GQES], interval_ms: float,
               beat: typing.Callable[[GQES], None]) -> typing.Generator:
    """The heartbeat of one deployment: every ``interval_ms``, each
    of its GQESs not yet crashed or complete tells the GDQS it is
    alive through ``beat``, in creation order.  GQESs created at one
    instant beat at the same instants, so they share this one timer
    (decision 38); a beat queues no event of its own (decision 39)."""
    env = deployment[0].env
    while deployment := [gqes for gqes in deployment if not (
            gqes.crashed or gqes.query_complete.triggered)]:
        for gqes in deployment:
            beat(gqes)
        yield env.timeout(interval_ms)


class LateArrivals:
    """The tombstone of a retired GQES: what a late message still costs.

    Data and control pay the ingest work a live GQES charges on arrival
    (``deserialize`` and ``control``), then go nowhere: no enqueue, no
    queue-depth sample, no wake-up of a finished fragment.  Anything
    else is dropped: no request arrives this late, since the query's
    Responder, the one service still asking a GQES anything once the
    query has ended, retires first.  Holds grid-owned objects and plain
    values only, never the service.
    """

    __slots__ = ("cpu", "serialization", "control_work")

    def __init__(self, gqes: GQES) -> None:
        self.cpu = gqes.machine.cpu
        self.serialization = gqes.context.serialization
        self.control_work = gqes.cost.control_event_work

    def __call__(self, message: Message) -> None:
        if message.kind == KIND_DATA:
            self.cpu.execute(self.serialization.deserialize_work(
                message.payload.tuple_count), label="deserialize")
        elif message.kind == KIND_CONTROL:
            self.cpu.execute(self.control_work, label="control")
