"""Deployment: physical plan -> services, fragments and adaptivity wiring.

This module performs what the GDQS does after optimisation: it creates
one (A)GQES per participating machine, instantiates the operator trees
of every subplan fragment, connects exchange producers to consumer
channels, and — when adaptivity is enabled — stands up the
MonitoringEventDetector / Diagnoser / Responder components with their
pub/sub subscriptions, exactly as in the paper's Fig. 1.  Failure
recovery re-deploys a lost compute instance through the same code
(:meth:`QueryRuntime.redeploy`).
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
from repro.core.diagnoser import BalancingTask, Diagnoser
from repro.core.monitoring import MonitoringEventDetector
from repro.core.notifications import TOPIC_COST, TOPIC_IMBALANCE, TOPIC_WEIGHTS
from repro.core.responder import Responder
from repro.dqp.gqes import GQES, heartbeats
from repro.engine.distribution import (
    HashBucketPolicy,
    WeightedRoundRobin,
)
from repro.engine.evaluator import Fragment
from repro.engine.metrics import SubplanMetrics
from repro.engine.operators.aggregate import GroupAggregator
from repro.engine.operators import (
    ConsumerRef,
    EvalContext,
    ExchangeConsumer,
    ExchangeProducer,
    HashJoin,
    OperationCall,
    Project,
    ResultSink,
    Select,
    TableScan,
)
from repro.errors import PlanningError
from repro.grid.container import GridContext
from repro.planner.physical import PhysicalPlan, POLICY_HASH, ROOT_SUBPLAN
from repro.policy import AdaptationPolicy, create_policy
from repro.services.gds import GridDataService
from repro.services.ws import WebServiceOperation


def producer_id_for(subplan_id: str, instance: int = 0) -> str:
    return f"xp:{subplan_id}:{instance}"


def channel_key_for(subplan_id: str, instance: int, port: int) -> str:
    return f"{subplan_id}:{instance}:{port}"


@dataclasses.dataclass
class QueryRuntime:
    """Everything deployed for one query, and what it is built from.

    Initial deployment (:func:`deploy_query`) and the recovery of a lost
    compute instance (:meth:`redeploy`) build services and fragments
    through the same methods, so a re-deployed instance is made exactly
    as the one it replaces was.
    """

    context: GridContext
    plan: PhysicalPlan
    operations: typing.Mapping[str, WebServiceOperation]
    engine_config: EngineConfig
    cost: CostModel
    adaptivity: AdaptivityConfig
    fault_tolerance: FaultToleranceConfig
    #: Sends one heartbeat of a GQES to the GDQS (``Failover.beat``).
    beat: typing.Callable[[GQES], None]
    #: The adaptation policy shared by this query's detectors,
    #: Diagnoser and Responder (None when adaptivity is disabled).
    policy: AdaptationPolicy | None
    gqes_by_machine: dict = dataclasses.field(default_factory=dict)
    detectors: dict = dataclasses.field(default_factory=dict)
    diagnoser: Diagnoser | None = None
    responder: Responder | None = None
    sink: ResultSink | None = None
    feed_producers: list = dataclasses.field(default_factory=list)
    compute_producers: list = dataclasses.field(default_factory=list)
    compute_fragments: list = dataclasses.field(default_factory=list)
    balancing_task: BalancingTask | None = None
    #: GQES endpoints whose failure the GDQS has already handled.
    failures_handled: set = dataclasses.field(default_factory=set)
    #: Successful machine recoveries performed for this query (the
    #: ``FaultToleranceConfig.max_recoveries`` budget counter).
    recoveries: int = 0

    @property
    def m1_interval(self) -> int:
        """Tuples per M1 event; 0 when there are no detectors."""
        return self.adaptivity.m1_interval if self.adaptivity.enabled else 0

    def all_gqes(self) -> list[GQES]:
        return list(self.gqes_by_machine.values())

    def unhandled_failures(self) -> list:
        """Crashed services no recovery pass has dealt with yet."""
        return [gqes for gqes in self.all_gqes()
                if gqes.crashed and gqes.name not in self.failures_handled]

    def add_detector(self, machine_name: str) -> None:
        detector = self.detectors[machine_name] = MonitoringEventDetector(
            self.context, machine_name, self.adaptivity, self.cost,
            query_id=self.plan.query_id, policy=self.policy)
        if self.diagnoser is not None:
            detector.subscribe(TOPIC_COST, self.diagnoser.name)

    def add_gqes(self, machine_name: str) -> None:
        self.gqes_by_machine[machine_name] = GQES(
            self.context, self.plan.query_id, machine_name,
            self.engine_config, self.cost,
            detector=self.detectors.get(machine_name))

    def start_heartbeats(self, deployment: list[GQES]) -> None:
        """One heartbeat timer for the GQESs created at this instant."""
        if self.fault_tolerance.enabled:
            self.context.env.start(heartbeats(
                deployment, self.fault_tolerance.heartbeat_interval_ms,
                self.beat), name="heartbeats")

    def eval_context(self, machine_name: str,
                     instance_id: str) -> EvalContext:
        return EvalContext(
            grid=self.context,
            machine=self.context.registry.machine(machine_name),
            metrics=SubplanMetrics(instance_id),
            cost=self.cost,
            engine_config=self.engine_config,
            monitor=self.detectors.get(machine_name))

    def compute_fragment(self, index: int, machine_name: str) -> Fragment:
        """Build instance ``index`` of the partitioned compute subplan."""
        plan = self.plan
        compute = plan.compute
        ctx = self.eval_context(machine_name, f"{compute.subplan_id}:{index}")
        consumers: dict[str, ExchangeConsumer] = {}
        state_operators: dict[str, HashJoin] = {}
        if compute.join_keys is not None:
            build_scan = next(s for s in plan.scans if s.target_port == 0)
            probe_scan = next(s for s in plan.scans if s.target_port == 1)
            build_key = channel_key_for(compute.subplan_id, index, 0)
            probe_key = channel_key_for(compute.subplan_id, index, 1)
            build_xc = ExchangeConsumer(
                ctx, build_key,
                [producer_id_for(build_scan.subplan_id)], defer_acks=True)
            probe_xc = ExchangeConsumer(
                ctx, probe_key, [producer_id_for(probe_scan.subplan_id)])
            consumers[build_key] = build_xc
            consumers[probe_key] = probe_xc
            operator: typing.Any = HashJoin(
                ctx, build_xc, probe_xc,
                compute.join_keys[0], compute.join_keys[1])
            state_operators[build_key] = operator
        else:
            channel = channel_key_for(compute.subplan_id, index, 0)
            operator = consumers[channel] = ExchangeConsumer(
                ctx, channel, [producer_id_for(plan.scans[0].subplan_id)])
        for function_name, argument_position in compute.applies:
            try:
                operation = self.operations[function_name]
            except KeyError:
                raise PlanningError(
                    f"no WS implementation bound for {function_name!r}"
                    ) from None
            operator = OperationCall(ctx, operator, operation,
                                     argument_position)
        operator = Project(ctx, operator, compute.project_positions)
        root = ExchangeProducer(
            ctx, operator,
            producer_id=producer_id_for(compute.subplan_id, index),
            target_subplan_id=ROOT_SUBPLAN,
            consumers=[ConsumerRef(
                endpoint=self.gqes_by_machine[plan.coordinator_machine].name,
                channel_key=channel_key_for(ROOT_SUBPLAN, 0, 0),
                instance_id=f"{ROOT_SUBPLAN}:0",
                machine_name=plan.coordinator_machine)],
            policy=WeightedRoundRobin(1),
            row_bytes=compute.output_row_bytes,
            estimated_total=compute.estimated_output)
        return Fragment(ctx, compute.subplan_id, index, root, consumers,
                        [root], state_operators, self.m1_interval)

    def redeploy(self, lost: Fragment, machine_name: str) -> GQES:
        """Re-create the lost compute instance on ``machine_name``, with
        the same id and channels so the feed producers can redirect and
        replay to it; the machine gets this query's detector and GQES
        first if it has none."""
        if self.m1_interval and machine_name not in self.detectors:
            self.add_detector(machine_name)
        if machine_name not in self.gqes_by_machine:
            self.add_gqes(machine_name)
            self.start_heartbeats([self.gqes_by_machine[machine_name]])
        gqes = self.gqes_by_machine[machine_name]
        fragment = self.compute_fragment(lost.instance_index, machine_name)
        gqes.deploy(fragment)
        # Swap runtime records so statistics reflect the live world.
        position = next(
            i for i, old in enumerate(self.compute_fragments)
            if old.instance_id == lost.instance_id)
        self.compute_fragments[position] = fragment
        self.compute_producers[position] = fragment.producers[0]
        return gqes


def deploy_query(context: GridContext, plan: PhysicalPlan,
                 gds_map: typing.Mapping[str, GridDataService],
                 operations: typing.Mapping[str, WebServiceOperation],
                 engine_config: EngineConfig, cost: CostModel,
                 adaptivity: AdaptivityConfig,
                 fault_tolerance: FaultToleranceConfig,
                 beat: typing.Callable[[GQES], None]) -> QueryRuntime:
    """Instantiate services and operator trees for ``plan``."""
    machines = plan.machines_used()
    # One policy instance per query, shared by every adaptivity
    # component so controller state (smoothed costs, hysteresis arms,
    # PID integrals) is coherent across the control loop.
    runtime = QueryRuntime(
        context, plan, operations, engine_config, cost, adaptivity,
        fault_tolerance, beat,
        create_policy(adaptivity) if adaptivity.enabled else None)
    # All detectors, then all GQESs, then the fragments: registration
    # order is endpoint order, and crash order on a machine.
    for machine_name in (machines if runtime.m1_interval else ()):
        runtime.add_detector(machine_name)
    for machine_name in machines:
        runtime.add_gqes(machine_name)
    gqes_by_machine = runtime.gqes_by_machine
    runtime.start_heartbeats(runtime.all_gqes())
    m1_interval = runtime.m1_interval
    compute = plan.compute
    degree = len(compute.machine_names)
    coordinator_gqes = gqes_by_machine[plan.coordinator_machine]

    # ---- compute fragments (the partitioned subplan) --------------------
    for index, machine_name in enumerate(compute.machine_names):
        fragment = runtime.compute_fragment(index, machine_name)
        runtime.compute_fragments.append(fragment)
        runtime.compute_producers.append(fragment.producers[0])
        gqes_by_machine[machine_name].deploy(fragment)

    # ---- feed fragments (scans on the data hosts) --------------------------
    feed_producers = runtime.feed_producers
    shared_bucket_map: list[int] | None = None
    for scan in plan.scans:
        instance_id = f"{scan.subplan_id}:0"
        ctx = runtime.eval_context(scan.machine_name, instance_id)
        gds = gds_map[scan.table_name]
        operator = TableScan(ctx, gds)
        for comparison, predicate in scan.filters:
            operator = Select(ctx, operator, predicate,
                              description=str(comparison))
        consumer_refs = [
            ConsumerRef(
                endpoint=gqes_by_machine[machine_name].name,
                channel_key=channel_key_for(
                    compute.subplan_id, index, scan.target_port),
                instance_id=f"{compute.subplan_id}:{index}",
                machine_name=machine_name)
            for index, machine_name in enumerate(compute.machine_names)]
        if compute.policy_kind == POLICY_HASH:
            if scan.key_position is None:
                raise PlanningError(
                    f"{scan.subplan_id}: hash policy without key position")
            policy = HashBucketPolicy(
                degree, scan.key_position,
                bucket_count=adaptivity.hash_buckets,
                weights=compute.initial_weights)
            # Every producer feeding a stateful consumer group must use
            # the same bucket map, or matching keys would diverge.
            if shared_bucket_map is None:
                shared_bucket_map = list(policy.bucket_map)
            else:
                policy.bucket_map = list(shared_bucket_map)
        else:
            policy = WeightedRoundRobin(degree, compute.initial_weights)
        root = ExchangeProducer(
            ctx, operator,
            producer_id=producer_id_for(scan.subplan_id),
            target_subplan_id=compute.subplan_id,
            consumers=consumer_refs,
            policy=policy,
            row_bytes=scan.row_bytes,
            estimated_total=scan.estimated_total,
            # The hash join's build rows *are* its state: the build
            # feed retains what it routes so bucket moves replay the
            # whole bucket, not just the unacknowledged log tail.
            state_channel=(compute.policy_kind == POLICY_HASH
                          and scan.target_port == 0))
        fragment = Fragment(ctx, scan.subplan_id, 0, root, {}, [root],
                            m1_interval=m1_interval)
        feed_gqes = gqes_by_machine[scan.machine_name]
        feed_producers.append((feed_gqes.name, root))
        feed_gqes.deploy(fragment)

    # ---- root fragment (result collection on the coordinator) ---------------
    sink_channel = channel_key_for(ROOT_SUBPLAN, 0, 0)
    root_ctx = runtime.eval_context(plan.coordinator_machine,
                                    f"{ROOT_SUBPLAN}:0")
    sink_consumer = ExchangeConsumer(
        root_ctx, sink_channel,
        [producer.producer_id for producer in runtime.compute_producers])
    aggregator = None
    if plan.aggregation is not None:
        aggregation = plan.aggregation
        aggregator = GroupAggregator(aggregation.group_positions,
                                     aggregation.aggregates,
                                     aggregation.output_layout)
    runtime.sink = ResultSink(root_ctx, sink_consumer, aggregator)
    root_fragment = Fragment(root_ctx, ROOT_SUBPLAN, 0, runtime.sink,
                             {sink_channel: sink_consumer}, [],
                             m1_interval=0)
    coordinator_gqes.deploy(root_fragment)

    # ---- adaptivity components (Fig. 1 wiring) --------------------------------
    if adaptivity.enabled:
        instance_channels = {}
        co_located = set()
        for index, machine_name in enumerate(compute.machine_names):
            instance_id = f"{compute.subplan_id}:{index}"
            channels = []
            for scan in plan.scans:
                channel = channel_key_for(
                    compute.subplan_id, index, scan.target_port)
                channels.append(channel)
                if scan.machine_name == machine_name:
                    co_located.add(channel)
            instance_channels[instance_id] = tuple(channels)
        balancing_task = BalancingTask(
            subplan_id=compute.subplan_id,
            instance_ids=tuple(f"{compute.subplan_id}:{i}"
                               for i in range(degree)),
            initial_weights=tuple(compute.initial_weights),
            instance_channels=instance_channels,
            co_located_channels=frozenset(co_located),
            producer_endpoints=tuple(dict.fromkeys(
                endpoint for endpoint, _xp in feed_producers)),
            producers=tuple(
                (producer.producer_id, endpoint, scan.target_port)
                for (endpoint, producer), scan
                in zip(feed_producers, plan.scans)),
            policy_kind=compute.policy_kind,
            bucket_map=(tuple(shared_bucket_map)
                        if shared_bucket_map is not None else None),
            instance_endpoints=tuple(dict.fromkeys(
                gqes_by_machine[name].name
                for name in compute.machine_names)))
        # Paper Fig. 1: one Diagnoser and one Responder subscribe to the
        # per-site detectors; we place them on the first compute machine.
        placement = compute.machine_names[0]
        diagnoser = runtime.diagnoser = Diagnoser(
            context, placement, adaptivity, cost, [balancing_task],
            query_id=plan.query_id, policy=runtime.policy)
        responder = runtime.responder = Responder(
            context, placement, adaptivity, cost, [balancing_task],
            query_id=plan.query_id, policy=runtime.policy)
        runtime.balancing_task = balancing_task
        for detector in runtime.detectors.values():
            detector.subscribe(TOPIC_COST, diagnoser.name)
        diagnoser.subscribe(TOPIC_IMBALANCE, responder.name)
        responder.subscribe(TOPIC_WEIGHTS, diagnoser.name)
    return runtime
