"""The Grid Distributed Query Service: query lifecycle orchestration.

The GDQS accepts queries, compiles them (parse -> logical plan ->
partitioned physical plan), creates the (A)GQESs and fragments through
:mod:`repro.dqp.deployment`, waits for the result sink to complete,
then broadcasts query completion and gathers statistics.  Per §2, it
plays *no* role during adaptations — the AGQESs and the adaptivity
services handle rebalancing among themselves.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import (
    AdaptivityConfig,
    CostModel,
    EngineConfig,
    FaultToleranceConfig,
)
from repro.core.monitoring import MonitoringEventDetector
from repro.core.notifications import TOPIC_COST
from repro.core.responder import deploy_update
from repro.data.schema import Schema
from repro.dqp.deployment import (
    QueryRuntime,
    build_compute_fragment,
    channel_key_for,
    deploy_query,
    producer_id_for,
)
from repro.dqp.gqes import GQES
from repro.engine.control import QueryComplete, ResetProducer
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators.base import EvalContext
from repro.errors import PlanningError, ServiceError
from repro.planner.physical import ROOT_SUBPLAN
from repro.grid.container import GridContext
from repro.net.message import KIND_CONTROL
from repro.planner.logical import build_logical_plan
from repro.planner.optimizer import optimize
from repro.planner.parser import parse
from repro.services.base import GridService
from repro.services.gds import GridDataService
from repro.services.ws import WebServiceOperation
from repro.sim.events import Event
from repro.telemetry.metrics import AdaptivityReport


@dataclasses.dataclass
class QueryStatistics:
    """Execution statistics gathered after query completion."""

    response_time_ms: float
    result_count: int
    duplicates_dropped: int
    raw_monitoring_events: int
    cost_notifications: int
    proposals_sent: int
    adaptations_accepted: int
    retrospective_moves: int
    tuples_moved: int
    skipped_near_completion: int
    skipped_cooldown: int
    skipped_below_threshold: int
    machines_recovered: int
    tuples_replayed_for_recovery: int
    #: Fraction of the query's wall time each machine's CPU was busy
    #: (work attributable to this window, so concurrent queries share).
    machine_utilisation: dict
    #: Tuples attributed per compute instance by the feed producers
    #: (summed over feeds) — the paper's "ratio of tuples" statistic.
    tuples_per_consumer: list
    #: Suspect-clone quarantines and subsequent reintegrations (chaos
    #: defense; zero without a suspect timeout).
    clones_quarantined: int = 0
    clones_reintegrated: int = 0
    #: Name of the adaptation policy that ran the control loop
    #: ("static" when adaptivity was disabled).
    policy: str = "static"
    #: Workload mass moved one way and later reversed by the policy's
    #: own adaptations (see Responder oscillation accounting).
    oscillation: float = 0.0

    @property
    def consumer_imbalance_ratio(self) -> float:
        """max/min tuples per consumer (1.0 = perfectly balanced)."""
        counts = [c for c in self.tuples_per_consumer if c > 0]
        if len(counts) < 2:
            return 1.0
        return max(counts) / min(counts)


@dataclasses.dataclass
class QueryResult:
    """Result rows plus measured statistics for one query run."""

    query_id: str
    rows: list
    schema: Schema
    stats: QueryStatistics

    #: Terminal-outcome discriminator shared with :class:`QueryFailed`.
    failed: typing.ClassVar[bool] = False

    @property
    def response_time_ms(self) -> float:
        return self.stats.response_time_ms

    def values(self) -> list[tuple]:
        return [row.values for row in self.rows]


#: Typed failure causes (the ``QueryFailed.cause`` vocabulary).
CAUSE_DEADLINE = "deadline-exceeded"
CAUSE_NO_REPLACEMENT = "replacement-exhausted"
CAUSE_UNRECOVERABLE = "machine-unrecoverable"
CAUSE_BUDGET = "recovery-budget-exhausted"
CAUSE_UNPLANNABLE = "placement-infeasible"


@dataclasses.dataclass(frozen=True)
class QueryFailed:
    """Typed terminal failure of one query.

    Carried as the *value* of a succeeded ``QueryHandle.done`` event —
    never as an exception out of the simulation — so every waiter
    (scheduler completion callbacks, ``env.run(until=done)``) observes
    a clean terminal outcome and dispatch of a listener-less done
    event cannot raise.  ``failed`` discriminates it from
    :class:`QueryResult` at completion sites.
    """

    query_id: str
    cause: str
    failed_machine: str | None
    elapsed_ms: float
    recoveries: int = 0

    failed: typing.ClassVar[bool] = True


class QueryHandle:
    """A submitted query: exposes the completion event and result.

    The lifecycle timestamps separate queue wait from execution:
    ``submitted_at`` is when the query entered the system (for
    scheduler-managed queries, when it joined the admission queue),
    ``started_at`` when deployment began, and ``completed_at`` when
    the result was collected.  Response time as experienced by the
    submitter is ``completed_at - submitted_at``; the execution-only
    figure the paper reports is ``completed_at - started_at``.

    ``runtime`` is what was deployed for the query; the GDQS clears it
    at the terminal outcome, so whoever inspects a finished query's
    engine keeps the reference it took at submit.
    """

    def __init__(self, query_id: str, done: Event) -> None:
        self.query_id = query_id
        self.done = done
        self.result: QueryResult | None = None
        self.failure: QueryFailed | None = None
        self.runtime: QueryRuntime | None = None
        self.submitted_at: float = 0.0
        self.started_at: float = 0.0
        self.completed_at: float | None = None
        self.cpu_baseline: dict = {}

    @property
    def queue_wait_ms(self) -> float:
        """Time spent admission-queued before deployment began."""
        return self.started_at - self.submitted_at

    @property
    def execution_ms(self) -> float | None:
        """Deployment-to-result time (queue wait excluded)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class GDQS(GridService):
    """Coordinator service: compile, deploy, collect."""

    def __init__(self, context: GridContext, machine_name: str,
                 gds_map: typing.Mapping[str, GridDataService],
                 operations: typing.Mapping[str, WebServiceOperation],
                 engine_config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 fault_tolerance: FaultToleranceConfig | None = None
                 ) -> None:
        super().__init__(context, f"gdqs:{machine_name}", machine_name)
        self.gds_map = dict(gds_map)
        self.operations = dict(operations)
        self.engine_config = engine_config or EngineConfig()
        self.cost = cost or CostModel()
        self.fault_tolerance = fault_tolerance or FaultToleranceConfig()
        self._query_counter = 0
        self._heartbeats: dict[str, float] = {}
        #: Heartbeat wheel state: queries under watch (query_id ->
        #: [handle, runtime, started, suspected]) and whether the one
        #: shared tick process is live.  The wheel exits whenever the
        #: watch list drains and is respawned by the next FT submit,
        #: so an idle GDQS schedules no timer events at all.
        self._watched: dict[str, list] = {}
        self._wheel_running = False
        self._wheel_activations = 0
        self.failures_recovered = 0
        self.clones_quarantined = 0
        self.clones_reintegrated = 0
        self.queries_failed = 0

    def on_notification(self, topic: str, payload: typing.Any,
                        sender: str) -> None:
        if topic == "gqes.heartbeat":
            self._heartbeats[sender] = self.env.now

    def submit(self, query_text: str,
               adaptivity: AdaptivityConfig | None = None,
               degree: int | None = None,
               machine_order: typing.Sequence[str] | None = None,
               exclude_machines: typing.Container[str] = ()
               ) -> QueryHandle:
        """Compile, deploy and start ``query_text``.

        Returns immediately with a :class:`QueryHandle`; drive the
        simulation (``env.run(until=handle.done)``) to completion.
        ``machine_order`` is a compute-machine preference (most
        preferred first) honoured by the optimizer when the plan's
        parallelism degree does not need the whole pool — the
        multi-query scheduler uses it for least-loaded placement.
        ``exclude_machines`` is a best-effort placement blacklist
        (the scheduler's retry re-placement).
        """
        adaptivity = adaptivity or AdaptivityConfig()
        self._query_counter += 1
        query_id = f"q{self._query_counter}"

        engine_config = self.engine_config
        if self.fault_tolerance.enabled and not engine_config.logging_enabled:
            # Recovery replays come from the logs; they must exist.
            engine_config = engine_config.replace(logging_enabled=True)

        schemas = {name: gds.relation.schema
                   for name, gds in self.gds_map.items()}
        cardinalities = {name: gds.relation.cardinality
                         for name, gds in self.gds_map.items()}
        logical = build_logical_plan(parse(query_text), schemas,
                                     cardinalities)
        plan = optimize(logical, self.context.registry,
                        coordinator_machine=self.machine.name,
                        degree=degree, query_id=query_id,
                        machine_order=machine_order,
                        exclude_machines=exclude_machines)
        runtime = deploy_query(self.context, plan, self.gds_map,
                               self.operations, engine_config,
                               self.cost, adaptivity,
                               fault_tolerance=self.fault_tolerance,
                               gdqs_endpoint=self.name)
        self.context.tracer.record("query", self.name, "query submitted",
                                    query_id=query_id)
        handle = QueryHandle(query_id, self.env.event())
        handle.runtime = runtime
        handle.cpu_baseline = {
            name: self.context.registry.machine(name).cpu.busy_time
            for name in plan.machines_used()}
        handle.submitted_at = self.env.now
        handle.started_at = self.env.now
        self.env.process(self._orchestrate(handle),
                         name=f"gdqs:orchestrate:{query_id}")
        if self.fault_tolerance.enabled:
            self._watch(handle, runtime)
        return handle

    def _orchestrate(self, handle: QueryHandle) -> typing.Generator:
        submitted_at = self.env.now
        # Only the handle is held across this wait: if the query fails
        # instead, ``handle.runtime`` is cleared and this process is
        # reachable from nothing but the retired sink.
        yield handle.runtime.sink.done
        if handle.done.triggered:
            # The query was aborted or failed while the sink raced to
            # the finish line; the typed outcome already went out.
            return
        runtime = handle.runtime
        # Termination double-check: trust the sink's completion only
        # once every GQES is quiescent, so an adaptation racing the
        # finish line (replays in flight to an already-finished
        # instance) is never missed.  With fault tolerance on, the
        # check also demands positive liveness from every participant:
        # a machine that died carrying attributed-but-undelivered work
        # (e.g. a rebalance aimed at it as it crashed) must first be
        # recovered, or its backlog would be silently dropped.
        def settled() -> bool:
            if not all(gqes.is_quiescent() for gqes in runtime.all_gqes()):
                return False
            if (self.fault_tolerance.enabled
                    and runtime.unhandled_failures()):
                return False
            return True

        while not settled():
            yield self.env.timeout(5.0)
            if handle.done.triggered:
                return
        response_time = runtime.sink.completed_at - submitted_at
        # Broadcast completion so evaluators and detectors wind down.
        for gqes in runtime.all_gqes():
            self.send(gqes.name, KIND_CONTROL,
                      QueryComplete(handle.query_id))
        handle.completed_at = self.env.now
        handle.result = self._collect(handle.query_id, runtime,
                                      response_time,
                                      handle.cpu_baseline)
        self.context.tracer.record(
            "query", self.name, "query completed",
            query_id=handle.query_id,
            response_ms=round(response_time, 1))
        handle.done.succeed(handle.result)
        self._retire(handle)

    def _retire(self, handle: QueryHandle) -> None:
        """Release everything deployed for a query at its terminal
        outcome: each service retires once idle (``GridService.retire``)
        and the handle forgets the runtime, so nothing the grid owns
        keeps a finished query's services or operators alive."""
        runtime, handle.runtime = handle.runtime, None
        for service in (*runtime.detectors.values(), runtime.diagnoser):
            if service is not None:
                service.retire()
        if runtime.responder is None:
            for gqes in runtime.all_gqes():
                gqes.retire()
        else:
            # A decision still in progress asks the GQESs for progress,
            # so they retire after the Responder.
            runtime.responder.retire(then=runtime.all_gqes())

    def _fail_query(self, handle: QueryHandle, runtime: QueryRuntime,
                    cause: str, failed_machine: str | None) -> None:
        """Terminate a query with a typed failure outcome.

        The failure travels as the *value* of the succeeded ``done``
        event, so synchronous waiters and callback listeners both see a
        clean settlement — never an unhandled exception inside the
        simulation loop.  All participants get the same QueryComplete
        broadcast a success would send, so heartbeats, detectors and
        evaluators wind down identically.
        """
        if handle.done.triggered:
            return
        handle.completed_at = self.env.now
        elapsed = self.env.now - handle.started_at
        failure = QueryFailed(
            query_id=handle.query_id,
            cause=cause,
            failed_machine=failed_machine,
            elapsed_ms=elapsed,
            recoveries=runtime.recoveries)
        handle.failure = failure
        self.queries_failed += 1
        for gqes in runtime.all_gqes():
            self.send(gqes.name, KIND_CONTROL,
                      QueryComplete(handle.query_id))
        self.context.tracer.record(
            "query", self.name, "query failed",
            query_id=handle.query_id, cause=cause,
            failed_machine=failed_machine or "",
            elapsed_ms=round(elapsed, 1), recoveries=runtime.recoveries)
        handle.done.succeed(failure)
        self._retire(handle)

    def abort(self, handle: QueryHandle, cause: str,
              failed_machine: str | None = None) -> bool:
        """Abort a running query (scheduler deadline enforcement).

        Returns True if this call terminated the query, False if the
        query had already settled (success or failure) — aborting a
        finished query is a harmless no-op so expired deadline timers
        never race the completion path.
        """
        if handle.runtime is None or handle.done.triggered:
            return False
        self._fail_query(handle, handle.runtime, cause, failed_machine)
        return True

    # -- failure detection and recovery ---------------------------------------

    def _watch(self, handle: QueryHandle, runtime: QueryRuntime) -> None:
        """Enrol a query with the shared heartbeat wheel.

        One tick process per GDQS monitors every fault-tolerant
        query: each tick is a single timer event regardless of how
        many queries are in flight.  The wheel starts when a query
        enrols while it is idle and stops once nothing is watched, so
        a lone query is checked every ``heartbeat_interval_ms`` after
        its own submission; a query enrolling while the wheel runs
        shares the running tick phase, so its first check comes less
        than one interval after submission.
        """
        self._watched[handle.query_id] = [handle, runtime, self.env.now,
                                          {}]
        if not self._wheel_running:
            self._wheel_running = True
            self._wheel_activations += 1
            self.env.process(
                self._run_wheel(),
                name=f"gdqs:wheel:{self._wheel_activations}")

    def _run_wheel(self) -> typing.Generator:
        """The shared tick process: one timeout per interval, all
        watched queries checked in enrolment order."""
        ft = self.fault_tolerance
        while self._watched:
            yield self.env.timeout(ft.heartbeat_interval_ms)
            for query_id in list(self._watched):
                entry = self._watched.get(query_id)
                if entry is None:
                    continue
                handle, runtime, started, suspected = entry
                if handle.done.triggered:
                    self._watched.pop(query_id, None)
                    continue
                stop = yield from self._check_round(handle, runtime,
                                                    started, suspected)
                if stop or handle.done.triggered:
                    self._watched.pop(query_id, None)
        self._wheel_running = False

    def _check_round(self, handle: QueryHandle, runtime: QueryRuntime,
                     started: float,
                     suspected: dict[str, list[int]]) -> typing.Generator:
        """Grade every participant's heartbeat silence once.

        A GQES silent beyond ``failure_timeout_ms`` is dead — its
        evaluators are re-created elsewhere (the pre-existing path).
        With ``suspect_timeout_ms`` set, the shorter silence window
        first marks the GQES *suspect*: its compute clones are
        quarantined (Responder drives their weights to zero while the
        feed producers' recovery logs are retained), and if heartbeats
        resume before the failure deadline the clones are reintegrated
        instead of rebuilt.

        Returns True when the query reached a terminal failure and the
        wheel should stop watching it; ``suspected`` is the wheel's
        per-query bookkeeping, mutated in place so it survives between
        rounds.
        """
        ft = self.fault_tolerance
        for gqes in list(runtime.all_gqes()):
            if (gqes.name in runtime.failures_handled
                    or gqes.name == self.name):
                continue
            last_seen = self._heartbeats.get(gqes.name, started)
            silent_ms = self.env.now - last_seen
            if silent_ms > ft.failure_timeout_ms:
                quarantined = suspected.pop(gqes.name, [])
                if (ft.max_recoveries is not None
                        and runtime.recoveries >= ft.max_recoveries):
                    self._fail_query(handle, runtime, CAUSE_BUDGET,
                                     gqes.machine.name)
                    return True
                runtime.failures_handled.add(gqes.name)
                try:
                    recovered = yield from self._recover(runtime, gqes)
                except ServiceError:
                    # A control peer was unreachable mid-recovery;
                    # retry on a later monitor tick.  The suspect
                    # bookkeeping must survive the retry, or the
                    # quarantined clone indices would be lost and
                    # the eventual recovery would leave the rebuilt
                    # clones starved at weight zero.
                    runtime.failures_handled.discard(gqes.name)
                    if quarantined:
                        suspected[gqes.name] = quarantined
                    self.context.tracer.record(
                        "failure", self.name,
                        "recovery attempt failed; will retry",
                        failed=gqes.name)
                    continue
                except PlanningError:
                    self._fail_query(handle, runtime,
                                     CAUSE_NO_REPLACEMENT,
                                     gqes.machine.name)
                    return True
                if not recovered:
                    # A data host or the coordinator died: their
                    # state is not reconstructible from recovery
                    # logs, so the query cannot make progress.
                    self._fail_query(handle, runtime,
                                     CAUSE_UNRECOVERABLE,
                                     gqes.machine.name)
                    return True
                # The replacement starts healthy: lift any
                # quarantine the suspect phase imposed, else the
                # rebuilt clones would never receive work.
                self._quarantine_clones(runtime, quarantined, False,
                                      "reintegrate")
                continue
            if (ft.suspect_timeout_ms is None
                    or runtime.responder is None
                    or runtime.responder.crashed):
                continue
            compute_id = runtime.plan.compute.subplan_id
            if silent_ms > ft.suspect_timeout_ms:
                if gqes.name in suspected:
                    continue
                indices = sorted(
                    fragment.instance_index
                    for fragment in gqes.fragments.values()
                    if fragment.subplan_id == compute_id)
                if not indices:
                    continue
                suspected[gqes.name] = indices
                self.clones_quarantined += len(indices)
                self.context.tracer.record(
                    "failure", self.name, "gqes suspect",
                    gqes=gqes.name, silent_ms=round(silent_ms, 1),
                    instances=indices)
                self._quarantine_clones(runtime, indices, True,
                                      f"quarantine:{gqes.name}")
            elif gqes.name in suspected:
                # Heartbeats resumed before the failure deadline.
                indices = suspected.pop(gqes.name)
                self.clones_reintegrated += len(indices)
                self.context.tracer.record(
                    "failure", self.name, "gqes recovered from suspect",
                    gqes=gqes.name, instances=indices)
                self._quarantine_clones(runtime, indices, False, "reintegrate")
        return False

    def _quarantine_clones(self, runtime: QueryRuntime,
                           indices: typing.Sequence[int], quarantined: bool,
                           label: str) -> None:
        """Spawn the Responder's quarantine (or reintegration) of the
        compute clones ``indices``."""
        if (not indices or runtime.responder is None
                or runtime.responder.crashed):
            return
        compute_id = runtime.plan.compute.subplan_id
        responder = runtime.responder
        for index in indices:
            responder.spawn(
                responder.set_quarantined(compute_id, index, quarantined),
                name=f"gdqs:{label}:{index}")

    def _pick_replacement(self, runtime: QueryRuntime,
                          failed_machine: str) -> str:
        registry = self.context.registry
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

    def _recover(self, runtime: QueryRuntime,
                 failed: GQES) -> typing.Generator:
        """Re-create the failed machine's compute instances elsewhere.

        Only compute-subplan instances are recoverable: their inputs
        live in the feed producers' recovery logs.  The replacement
        gets the same instance ids and channel keys, the coordinator
        forgets the dead incarnation's announcements, and the feed
        producers redirect and replay — re-deliveries deduplicate by
        provenance downstream.
        """
        plan = runtime.plan
        compute_id = plan.compute.subplan_id
        lost = [fragment for fragment in failed.fragments.values()
                if fragment.subplan_id == compute_id]
        if not lost:
            # A data host or the coordinator died: unrecoverable.
            return False
        replacement = self._pick_replacement(runtime, failed.machine.name)
        adaptivity = runtime.adaptivity
        monitoring_on = adaptivity.enabled and adaptivity.m1_interval > 0

        detector = runtime.detectors.get(replacement)
        if monitoring_on and detector is None:
            detector = MonitoringEventDetector(
                self.context, replacement, adaptivity, self.cost,
                query_id=plan.query_id, policy=runtime.policy)
            runtime.detectors[replacement] = detector
            if runtime.diagnoser is not None:
                detector.subscribe(TOPIC_COST, runtime.diagnoser.name)

        new_gqes = runtime.gqes_by_machine.get(replacement)
        if new_gqes is None:
            new_gqes = GQES(self.context, plan.query_id, replacement,
                            failed.engine_config, self.cost,
                            detector=detector,
                            fault_tolerance=self.fault_tolerance,
                            gdqs_endpoint=self.name)
            runtime.gqes_by_machine[replacement] = new_gqes

        coordinator_endpoint = runtime.gqes_by_machine[
            plan.coordinator_machine].name
        m1_interval = adaptivity.m1_interval if monitoring_on else 0
        sink_channel = channel_key_for(ROOT_SUBPLAN, 0, 0)
        for old_fragment in lost:
            index = old_fragment.instance_index
            ctx = EvalContext(
                grid=self.context,
                machine=self.context.registry.machine(replacement),
                metrics=SubplanMetrics(old_fragment.instance_id),
                cost=self.cost,
                engine_config=failed.engine_config,
                monitor=detector)
            new_fragment = build_compute_fragment(
                ctx, plan, index, self.operations, coordinator_endpoint,
                m1_interval)
            new_gqes.deploy(new_fragment)
            # Swap runtime records so statistics reflect the live world.
            position = next(
                i for i, fragment in enumerate(runtime.compute_fragments)
                if fragment.instance_id == old_fragment.instance_id)
            runtime.compute_fragments[position] = new_fragment
            runtime.compute_producers[position] = new_fragment.producers[0]
            # The coordinator forgets the dead incarnation's result
            # announcement; the replacement re-announces from scratch.
            self.send(coordinator_endpoint, KIND_CONTROL, ResetProducer(
                sink_channel, producer_id_for(compute_id, index)))
            # Feed producers redirect and replay their recovery logs.
            for endpoint in dict.fromkeys(
                    ep for ep, _xp in runtime.feed_producers):
                yield from self.call(
                    endpoint, "redirect_channels",
                    {"subplan_id": compute_id,
                     "instance_id": old_fragment.instance_id,
                     "endpoint": new_gqes.name},
                    timeout_ms=self.fault_tolerance.call_timeout_ms,
                    retry=self.context.call_retry_policy())
        if runtime.responder is not None:
            runtime.responder.replace_endpoint(failed.name, new_gqes.name)
            if runtime.responder.crashed:
                # The Responder died, possibly between the replay and
                # discard phases of an update: roll it forward so no
                # producer is left mid-move.
                yield from self._finalize_orphaned_updates(runtime)
        self.failures_recovered += 1
        runtime.recoveries += 1
        self.context.tracer.record(
            "failure", self.name, "evaluators recovered",
            failed_machine=failed.machine.name, replacement=replacement,
            instances=len(lost))
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
            entries = yield from self.call(
                endpoint, "update_status", {"subplan_id": task.subplan_id},
                timeout_ms=self.fault_tolerance.call_timeout_ms)
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
        yield from deploy_update(self, task.producers, newest,
                                 self.fault_tolerance.call_timeout_ms,
                                 self.context.call_retry_policy(),
                                 skip_replay=current)
        self.context.tracer.record(
            "failure", self.name, "orphaned update finalized",
            subplan=task.subplan_id)

    def _collect(self, query_id: str, runtime: QueryRuntime,
                 response_time: float,
                 cpu_baseline: dict | None = None) -> QueryResult:
        machine_utilisation = {}
        if cpu_baseline and response_time > 0:
            for name, baseline in cpu_baseline.items():
                cpu = self.context.registry.machine(name).cpu
                machine_utilisation[name] = min(
                    1.0, (cpu.busy_time - baseline) / response_time)
        sink = runtime.sink
        raw_events = sum(d.raw_events_received
                         for d in runtime.detectors.values())
        cost_notifications = sum(d.cost_notifications_sent
                                 for d in runtime.detectors.values())
        feed_xps = [producer for _endpoint, producer
                    in runtime.feed_producers]
        degree = runtime.plan.partitioning_degree
        tuples_per_consumer = [0] * degree
        for producer in feed_xps:
            for index, count in enumerate(producer.sent_per_consumer):
                tuples_per_consumer[index] += count
        stats = QueryStatistics(
            response_time_ms=response_time,
            result_count=len(sink.final_rows()),
            duplicates_dropped=sink.duplicates_dropped,
            raw_monitoring_events=raw_events,
            cost_notifications=cost_notifications,
            proposals_sent=(runtime.diagnoser.proposals_sent
                            if runtime.diagnoser else 0),
            adaptations_accepted=(runtime.responder.adaptations_accepted
                                  if runtime.responder else 0),
            retrospective_moves=sum(p.retrospective_moves
                                    for p in feed_xps),
            tuples_moved=sum(p.tuples_moved for p in feed_xps),
            skipped_near_completion=(
                runtime.responder.skipped_near_completion
                if runtime.responder else 0),
            skipped_cooldown=(runtime.responder.skipped_cooldown
                              if runtime.responder else 0),
            skipped_below_threshold=(
                runtime.responder.skipped_below_threshold
                if runtime.responder else 0),
            machines_recovered=self.failures_recovered,
            machine_utilisation=machine_utilisation,
            tuples_replayed_for_recovery=sum(
                p.tuples_replayed_for_recovery for p in feed_xps),
            tuples_per_consumer=tuples_per_consumer,
            clones_quarantined=(runtime.responder.quarantines
                                if runtime.responder else 0),
            clones_reintegrated=(runtime.responder.reintegrations
                                 if runtime.responder else 0),
            policy=(runtime.policy.name if runtime.policy else "static"),
            oscillation=(runtime.responder.oscillation
                         if runtime.responder else 0.0))
        registry = self.context.metrics
        if registry.enabled:
            latency = None
            if runtime.policy is not None:
                latency = registry.find(
                    "histogram", "detection_latency_ms",
                    query=query_id, policy=runtime.policy.name)
            registry.add_report(AdaptivityReport(
                query_id=query_id,
                response_time_ms=response_time,
                adaptations_applied=stats.adaptations_accepted,
                proposals_sent=stats.proposals_sent,
                cost_notifications=stats.cost_notifications,
                raw_monitoring_events=stats.raw_monitoring_events,
                tuple_balance_ratio=stats.consumer_imbalance_ratio,
                tuples_per_consumer=tuple(tuples_per_consumer),
                detection_latency_ms=(latency.summary() if latency
                                      else {"count": 0, "sum": 0.0}),
                policy=stats.policy,
                oscillation=stats.oscillation))
        return QueryResult(query_id, sink.final_rows(),
                           runtime.plan.output_schema, stats)
