"""Failure detection and evaluator recovery for the GDQS.

The paper's R1 response rides on infrastructure "developed mainly to
attain fault tolerance" [18]; this module is that infrastructure.
Every GQES of a fault-tolerant query heartbeats to the GDQS; a
heartbeat's arrival is data, kept in a per-GQES ledger until the wheel
reads it, not a queued delivery event (decisions 39 and 41).  A beat
is heard when it lands: a read at ``now`` counts every copy arriving
at or before ``now``, whatever the order of same-instant events
(decision 44).  One shared wheel process grades each watched query's
heartbeat silence once per interval: a GQES silent past
``suspect_timeout_ms`` has its compute clones quarantined, one silent
past ``failure_timeout_ms`` is dead, and its compute instances are
re-deployed on a replacement machine through
:meth:`~repro.dqp.deployment.QueryRuntime.redeploy` while the feed
producers redirect and replay their recovery logs.  A loss that cannot
be recovered ends the query through :meth:`~repro.dqp.gdqs.GDQS.abort`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.responder import deploy_update
from repro.dqp.deployment import QueryRuntime, channel_key_for, producer_id_for
from repro.dqp.gdqs import (
    CAUSE_BUDGET,
    CAUSE_NO_REPLACEMENT,
    CAUSE_UNRECOVERABLE,
    GDQS,
    QueryHandle,
)
from repro.dqp.gqes import GQES
from repro.engine.control import ResetProducer
from repro.errors import PlanningError, ServiceError
from repro.net.message import KIND_CONTROL, KIND_NOTIFY, Message
from repro.planner.physical import ROOT_SUBPLAN
from repro.services.base import CONTROL_MESSAGE_BYTES

#: Deadline of the GDQS's recovery calls, so a crashed peer cannot hang
#: a recovery forever.
CALL_TIMEOUT_MS = 5000.0
#: The subject of a GQES heartbeat message.
HEARTBEAT = "gqes.heartbeat"

@dataclasses.dataclass
class Watch:
    """The failure state of one watched query, dropped with its watch."""

    handle: QueryHandle
    #: GQES name -> simulated time it was last heard from, as of the
    #: last read.
    heartbeats: dict[str, float] = dataclasses.field(default_factory=dict)
    #: GQES name -> arrival time of each heartbeat copy on its way to
    #: the GDQS that no read has counted yet.
    ledger: dict[str, list[float]] = dataclasses.field(
        default_factory=dict)
    #: GQES name -> compute clone indices quarantined while it is
    #: suspect.
    suspected: dict[str, list[int]] = dataclasses.field(
        default_factory=dict)


class Failover:
    """The heartbeat wheel and recovery of one GDQS.

    ``watched`` holds one :class:`Watch` per fault-tolerant query in
    flight, in enrolment order, and the wheel process runs exactly
    while it is non-empty: only the wheel drops a watch, inside a tick,
    and it exits with no yield once the last one is gone.  An idle GDQS
    therefore schedules no timer events at all.
    """

    def __init__(self, gdqs: GDQS) -> None:
        self.gdqs = gdqs
        self.env = gdqs.env
        self.ft = gdqs.fault_tolerance
        self.watched: dict[str, Watch] = {}
        self.activations = 0

    def watch(self, handle: QueryHandle) -> None:
        """Enrol a query with the shared heartbeat wheel.

        Each tick is a single timer event however many queries are in
        flight.  The wheel starts when a query enrols while it is idle,
        so a lone query is checked every ``heartbeat_interval_ms``
        after its own submission; a query enrolling while the wheel
        runs shares the running tick phase, so its first check comes
        less than one interval after submission.
        """
        idle = not self.watched
        self.watched[handle.query_id] = Watch(handle)
        if idle:
            self.activations += 1
            self.env.start(self._run_wheel(),
                           name=f"gdqs:wheel:{self.activations}")

    # -- heartbeats (decision 39) ---------------------------------------

    def beat(self, gqes: GQES) -> None:
        """Send one heartbeat of ``gqes``: from a frozen host by one
        event at the thaw, from one down by then none (decision 41)."""
        leave = self.gdqs.network.leave(gqes.name)
        if leave is not None and leave > self.env.now:
            self.env.event().succeed(at=leave).callbacks.append(
                lambda _event: self.beat(gqes))
        elif leave is not None:
            self._transmit(Message(
                sender=gqes.name, recipient=self.gdqs.name,
                kind=KIND_NOTIFY, payload=gqes.query_id,
                size_bytes=CONTROL_MESSAGE_BYTES, subject=HEARTBEAT))

    def _transmit(self, message: Message) -> None:
        """Put one heartbeat on the wire, as ``Network.send`` would, and
        log each copy that will arrive in its watch's ledger instead of
        queuing its delivery; a copy reaching the GDQS down is dropped,
        and one reaching its host in a stall is delivered, for the
        mailbox to hold (decision 41).  Query ids are never reused, so a
        copy sent with no watch could never count, and one whose watch
        goes first goes with the ledger."""
        network = self.gdqs.network
        host = network.endpoint(self.gdqs.name)
        down = host.availability.down_at(host.born)
        landed = []
        for when in network.transmit(message):
            if when < down and host.availability.holds(when):
                network.deliver(message, when)
            else:
                landed.append(when)
        network.land(message, landed)
        watch = self.watched.get(message.payload)
        heard = [when for when in landed if when < down]
        if watch is not None and heard:
            watch.ledger.setdefault(message.sender, []).extend(heard)

    def _last_heard(self, watch: Watch, name: str) -> float:
        """When GQES ``name`` was last heard from, once the ledger copies
        that have arrived by now, this instant included, are folded in:
        the latest arrival is the last heard."""
        heard = watch.heartbeats.get(name)
        entries = watch.ledger.get(name)
        if entries:
            now = self.env.now
            pending = []
            for arrival in entries:
                if arrival > now:
                    pending.append(arrival)
                elif heard is None or arrival > heard:
                    heard = arrival
            watch.ledger[name] = pending
            if heard is not None:
                watch.heartbeats[name] = heard
        return watch.handle.started_at if heard is None else heard

    def _run_wheel(self) -> typing.Generator:
        """The shared tick process: one timeout per interval, all
        watched queries checked in enrolment order."""
        while self.watched:
            yield self.env.timeout(self.ft.heartbeat_interval_ms)
            for query_id in list(self.watched):
                watch = self.watched[query_id]
                if not watch.handle.done.triggered:
                    stop = yield from self._check_round(watch)
                    if not (stop or watch.handle.done.triggered):
                        continue
                del self.watched[query_id]

    def _check_round(self, watch: Watch) -> typing.Generator:
        """Grade every participant's heartbeat silence once.

        A GQES silent beyond ``failure_timeout_ms`` is dead — its
        evaluators are re-created elsewhere.  With
        ``suspect_timeout_ms`` set, the shorter silence window first
        marks the GQES *suspect*: its compute clones are quarantined
        (Responder drives their weights to zero while the feed
        producers' recovery logs are retained), and if heartbeats
        resume before the failure deadline the clones are reintegrated
        instead of rebuilt.

        Returns True when the query reached a terminal failure and the
        wheel should stop watching it.
        """
        ft, handle, suspected = self.ft, watch.handle, watch.suspected
        runtime = handle.runtime
        for gqes in runtime.all_gqes():
            if gqes.name in runtime.failures_handled:
                continue
            silent_ms = self.env.now - self._last_heard(watch, gqes.name)
            if silent_ms > ft.failure_timeout_ms:
                quarantined = suspected.pop(gqes.name, [])
                if (ft.max_recoveries is not None
                        and runtime.recoveries >= ft.max_recoveries):
                    self.gdqs.abort(handle, CAUSE_BUDGET, gqes.machine.name)
                    return True
                runtime.failures_handled.add(gqes.name)
                try:
                    recovered = yield from self.recover(runtime, gqes)
                except ServiceError:
                    # A control peer was unreachable mid-recovery; retry
                    # on a later tick.  The suspect bookkeeping must
                    # survive the retry, or the eventual recovery would
                    # leave the rebuilt clones starved at weight zero.
                    runtime.failures_handled.discard(gqes.name)
                    if quarantined:
                        suspected[gqes.name] = quarantined
                    self._trace("recovery attempt failed; will retry",
                                failed=gqes.name)
                    continue
                except PlanningError:
                    self.gdqs.abort(handle, CAUSE_NO_REPLACEMENT,
                                    gqes.machine.name)
                    return True
                if not recovered:
                    # A data host or the coordinator died: their state
                    # is not reconstructible from recovery logs, so the
                    # query cannot make progress.
                    self.gdqs.abort(handle, CAUSE_UNRECOVERABLE,
                                    gqes.machine.name)
                    return True
                # The replacement starts healthy: lift any quarantine
                # the suspect phase imposed, else the rebuilt clones
                # would never receive work.
                self._quarantine_clones(runtime, quarantined, False,
                                        "reintegrate")
                continue
            if (ft.suspect_timeout_ms is None
                    or runtime.responder is None
                    or runtime.responder.crashed):
                continue
            if silent_ms > ft.suspect_timeout_ms:
                if gqes.name in suspected:
                    continue
                compute_id = runtime.plan.compute.subplan_id
                indices = sorted(
                    fragment.instance_index
                    for fragment in gqes.fragments.values()
                    if fragment.subplan_id == compute_id)
                if not indices:
                    continue
                suspected[gqes.name] = indices
                self._trace("gqes suspect", gqes=gqes.name,
                            silent_ms=round(silent_ms, 1),
                            instances=indices)
                self._quarantine_clones(runtime, indices, True,
                                        f"quarantine:{gqes.name}")
            elif gqes.name in suspected:
                # Heartbeats resumed before the failure deadline.
                indices = suspected.pop(gqes.name)
                self._trace("gqes recovered from suspect", gqes=gqes.name,
                            instances=indices)
                self._quarantine_clones(runtime, indices, False,
                                        "reintegrate")
        return False

    def _trace(self, description: str, **data: typing.Any) -> None:
        self.gdqs.context.tracer.record("failure", self.gdqs.name,
                                        description, **data)

    def _quarantine_clones(self, runtime: QueryRuntime,
                           indices: typing.Sequence[int], quarantined: bool,
                           label: str) -> None:
        """Spawn the Responder's quarantine (or reintegration) of the
        compute clones ``indices``."""
        responder = runtime.responder
        if not indices or responder is None or responder.crashed:
            return
        compute_id = runtime.plan.compute.subplan_id
        for index in indices:
            responder.spawn(
                responder.set_quarantined(compute_id, index, quarantined),
                name=f"gdqs:{label}:{index}")

    def _pick_replacement(self, runtime: QueryRuntime,
                          failed_machine: str) -> str:
        registry = self.gdqs.context.registry
        in_use = set(runtime.gqes_by_machine)

        def alive(name: str) -> bool:
            return not registry.machine(name).is_crashed

        for name in registry.spare_machines():
            if name not in in_use and alive(name):
                return name
        for name in registry.compute_machines():
            if name not in in_use and name != failed_machine and alive(name):
                return name
        # Last resort: double up on a surviving compute machine.
        for name in runtime.plan.compute.machine_names:
            if name != failed_machine and alive(name):
                return name
        raise PlanningError(
            f"no replacement machine available for {failed_machine}")

    def recover(self, runtime: QueryRuntime,
                failed: GQES) -> typing.Generator:
        """Re-create the failed machine's compute instances elsewhere.

        Only compute-subplan instances are recoverable: their inputs
        live in the feed producers' recovery logs.  The replacement
        gets the same instance ids and channel keys, the coordinator
        forgets the dead incarnation's announcements, and the feed
        producers redirect and replay — re-deliveries deduplicate by
        provenance downstream.  Returns False when nothing the failed
        machine ran is recoverable.
        """
        gdqs = self.gdqs
        compute_id = runtime.plan.compute.subplan_id
        lost = [fragment for fragment in failed.fragments.values()
                if fragment.subplan_id == compute_id]
        if not lost:
            return False
        replacement = self._pick_replacement(runtime, failed.machine.name)
        coordinator_endpoint = runtime.gqes_by_machine[
            runtime.plan.coordinator_machine].name
        sink_channel = channel_key_for(ROOT_SUBPLAN, 0, 0)
        for old_fragment in lost:
            new_gqes = runtime.redeploy(old_fragment, replacement)
            # The coordinator forgets the dead incarnation's result
            # announcement; the replacement re-announces from scratch.
            gdqs.send(coordinator_endpoint, KIND_CONTROL, ResetProducer(
                sink_channel,
                producer_id_for(compute_id, old_fragment.instance_index)))
            # Feed producers redirect and replay their recovery logs.
            for endpoint in dict.fromkeys(
                    ep for ep, _xp in runtime.feed_producers):
                yield from gdqs.call(
                    endpoint, "redirect_channels",
                    {"subplan_id": compute_id,
                     "instance_id": old_fragment.instance_id,
                     "endpoint": new_gqes.name},
                    timeout_ms=CALL_TIMEOUT_MS,
                    retry=gdqs.context.call_retry_policy())
        if runtime.responder is not None:
            runtime.responder.replace_endpoint(failed.name, new_gqes.name)
            if runtime.responder.crashed:
                # The Responder died, possibly between the replay and
                # discard phases of an update: roll it forward so no
                # producer is left mid-move.
                yield from self._finalize_orphaned_updates(runtime)
        runtime.recoveries += 1
        self._trace("evaluators recovered",
                    failed_machine=failed.machine.name,
                    replacement=replacement, instances=len(lost))
        return True

    def _finalize_orphaned_updates(self, runtime: QueryRuntime
                                   ) -> typing.Generator:
        """Complete a two-phase distribution update whose Responder died.

        Rolls the update *forward* through the Responder's own
        :func:`~repro.core.responder.deploy_update`: any producer still
        behind the highest applied epoch receives the stored update's
        replay phase (so a join's build and probe sides agree on the
        bucket map), then every producer gets the discard phase.
        """
        task = runtime.balancing_task
        if task is None:
            return
        endpoints = list(dict.fromkeys(
            endpoint for endpoint, _xp in runtime.feed_producers))
        status_by_producer: dict = {}
        for endpoint in endpoints:
            entries = yield from self.gdqs.call(
                endpoint, "update_status", {"subplan_id": task.subplan_id},
                timeout_ms=CALL_TIMEOUT_MS)
            for entry in entries:
                status_by_producer[entry["producer_id"]] = entry
        if not any(entry["moving"] for entry in status_by_producer.values()):
            return
        newest = max((entry["last_update"]
                      for entry in status_by_producer.values()
                      if entry["last_update"] is not None),
                     key=lambda update: update.epoch, default=None)
        # Producers that did not report, or already applied the newest
        # update, only need its discard phase.
        current = {
            producer_id for producer_id, _endpoint, _port in task.producers
            if newest is None
            or producer_id not in status_by_producer
            or status_by_producer[producer_id]["applied_epoch"]
            >= newest.epoch}
        yield from deploy_update(self.gdqs, task.producers, newest,
                                 CALL_TIMEOUT_MS,
                                 self.gdqs.context.call_retry_policy(),
                                 skip_replay=current)
        self._trace("orphaned update finalized", subplan=task.subplan_id)
