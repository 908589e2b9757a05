"""The Grid Distributed Query Service: query lifecycle orchestration.

The GDQS accepts queries, compiles them (parse -> logical plan ->
partitioned physical plan), creates the (A)GQESs and fragments through
:mod:`repro.dqp.deployment`, waits for the result sink to complete,
then broadcasts query completion and gathers statistics.  Per §2, it
plays *no* role during adaptations — the AGQESs and the adaptivity
services handle rebalancing among themselves.  Failure detection and
recovery under fault tolerance live in :mod:`repro.dqp.failover`.
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
from repro.data.schema import Schema
from repro.dqp.deployment import QueryRuntime, deploy_query
from repro.engine.control import QueryComplete
from repro.grid.container import GridContext
from repro.net.message import KIND_CONTROL
from repro.planner.logical import build_logical_plan
from repro.planner.optimizer import optimize
from repro.planner.parser import parse
from repro.services.base import GridService
from repro.services.gds import GridDataService
from repro.services.ws import WebServiceOperation
from repro.sim.events import Event


@dataclasses.dataclass
class QueryStatistics:
    """Execution statistics gathered after query completion: the one
    per-query record of what the query's components counted, which the
    metrics registry exports as is."""

    response_time_ms: float
    result_count: int
    duplicates_dropped: int
    raw_monitoring_events: int
    cost_notifications: int
    proposals_sent: int
    adaptations_accepted: int
    retrospective_moves: int
    tuples_moved: int
    #: Proposals the Responder declined, per reason ("cooldown", ...).
    skips: dict
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
    def skipped_near_completion(self) -> int:
        return self.skips.get("near_completion", 0)

    @property
    def skipped_cooldown(self) -> int:
        return self.skips.get("cooldown", 0)

    @property
    def skipped_below_threshold(self) -> int:
        return self.skips.get("below_threshold", 0)

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
    """Coordinator service: compile, deploy, collect.

    Failure detection and recovery of fault-tolerant queries are the
    :class:`~repro.dqp.failover.Failover` it owns.
    """

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
        from repro.dqp.failover import Failover  # it imports this module
        self.failover = Failover(self)
        self._query_counter = 0
        self.queries_failed = 0

    def on_notification(self, topic: str, payload: typing.Any,
                        sender: str) -> None:
        # Only a heartbeat held by the host's stall (decision 41).
        watch = self.failover.watched.get(payload)
        if watch is not None:
            watch.heartbeats[sender] = self.env.now

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
                               beat=self.failover.beat)
        self.context.tracer.record("query", self.name, "query submitted",
                                    query_id=query_id)
        handle = QueryHandle(query_id, self.env.event())
        handle.runtime = runtime
        handle.cpu_baseline = {
            name: self.context.registry.machine(name).cpu.busy_time
            for name in plan.machines_used()}
        handle.submitted_at = self.env.now
        handle.started_at = self.env.now
        self.env.start(self._orchestrate(handle),
                       name=f"gdqs:orchestrate:{query_id}")
        if self.fault_tolerance.enabled:
            self.failover.watch(handle)
        return handle

    def _orchestrate(self, handle: QueryHandle) -> typing.Generator:
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
        self._settle(handle)

    def _settle(self, handle: QueryHandle,
                failure: QueryFailed | None = None) -> None:
        """The one terminal path: a result without ``failure``, else the
        typed failure.

        The outcome travels as the *value* of the succeeded ``done``
        event, so synchronous waiters and callback listeners both see a
        clean settlement — never an unhandled exception inside the
        simulation loop.  Every participant gets the same QueryComplete
        broadcast either way, so heartbeats, detectors and evaluators
        wind down identically, and the query's services retire.
        """
        runtime = handle.runtime
        # Broadcast completion so evaluators and detectors wind down.
        for gqes in runtime.all_gqes():
            self.send(gqes.name, KIND_CONTROL,
                      QueryComplete(handle.query_id))
        handle.completed_at = self.env.now
        if failure is None:
            response_time = runtime.sink.completed_at - handle.started_at
            outcome = handle.result = self._collect(handle, response_time)
            self.context.tracer.record(
                "query", self.name, "query completed",
                query_id=handle.query_id,
                response_ms=round(response_time, 1))
        else:
            outcome = handle.failure = failure
            self.queries_failed += 1
            self.context.tracer.record(
                "query", self.name, "query failed",
                query_id=handle.query_id, cause=failure.cause,
                failed_machine=failure.failed_machine or "",
                elapsed_ms=round(failure.elapsed_ms, 1),
                recoveries=failure.recoveries)
        handle.done.succeed(outcome)
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

    def abort(self, handle: QueryHandle, cause: str,
              failed_machine: str | None = None) -> bool:
        """End a running query with a typed failure (scheduler
        deadlines, and losses recovery cannot repair).

        Returns True if this call terminated the query, False if the
        query had already settled (success or failure) — aborting a
        finished query is a harmless no-op so expired deadline timers
        never race the completion path.
        """
        runtime = handle.runtime
        if runtime is None or handle.done.triggered:
            return False
        self._settle(handle, QueryFailed(
            query_id=handle.query_id,
            cause=cause,
            failed_machine=failed_machine,
            elapsed_ms=self.env.now - handle.started_at,
            recoveries=runtime.recoveries))
        return True

    def _collect(self, handle: QueryHandle,
                 response_time: float) -> QueryResult:
        query_id, runtime = handle.query_id, handle.runtime
        machine_utilisation = {}
        if response_time > 0:
            for name, baseline in handle.cpu_baseline.items():
                cpu = self.context.registry.machine(name).cpu
                machine_utilisation[name] = min(
                    1.0, (cpu.busy_time - baseline) / response_time)
        sink, responder = runtime.sink, runtime.responder
        detectors = runtime.detectors.values()
        feed_xps = [producer for _endpoint, producer
                    in runtime.feed_producers]
        tuples_per_consumer = [0] * runtime.plan.partitioning_degree
        for producer in feed_xps:
            for index, count in enumerate(producer.sent_per_consumer):
                tuples_per_consumer[index] += count
        rows = sink.final_rows()
        stats = QueryStatistics(
            response_time_ms=response_time,
            result_count=len(rows),
            duplicates_dropped=sink.duplicates_dropped,
            raw_monitoring_events=sum(d.raw_events_received
                                      for d in detectors),
            cost_notifications=sum(d.cost_notifications_sent
                                   for d in detectors),
            proposals_sent=(runtime.diagnoser.proposals_sent
                            if runtime.diagnoser else 0),
            adaptations_accepted=(responder.adaptations_accepted
                                  if responder else 0),
            retrospective_moves=sum(p.retrospective_moves
                                    for p in feed_xps),
            tuples_moved=sum(p.tuples_moved for p in feed_xps),
            skips=dict(responder.skips) if responder else {},
            machines_recovered=runtime.recoveries,
            machine_utilisation=machine_utilisation,
            tuples_replayed_for_recovery=sum(
                p.tuples_replayed_for_recovery for p in feed_xps),
            tuples_per_consumer=tuples_per_consumer,
            clones_quarantined=responder.quarantines if responder else 0,
            clones_reintegrated=(responder.reintegrations
                                 if responder else 0),
            policy=(runtime.policy.name if runtime.policy else "static"),
            oscillation=responder.oscillation if responder else 0.0)
        self.context.metrics.add_report(query_id, stats)
        return QueryResult(query_id, rows, runtime.plan.output_schema,
                           stats)
