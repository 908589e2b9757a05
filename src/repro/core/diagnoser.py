"""The Diagnoser component (§3.1, Assessment).

The Diagnoser gathers the cost notifications produced by
MonitoringEventDetectors and establishes whether there is workload
imbalance.  For a subplan ``p`` partitioned across ``n`` machines it
knows the current tuple distribution vector ``W`` and the per-tuple
cost ``c(p_i)`` of each instance; the balanced vector ``W'`` allocates
to each instance a workload inversely proportional to ``c(p_i)``.  It
notifies the Responder only if some element of ``W'`` deviates
relatively from ``W`` by more than ``thresA``.

Costs are computed in one of two ways:

* **A1** — only the M1 notifications of the instance (assumes the cost
  of sending data overlaps with processing, thanks to pipelining);
* **A2** — additionally the per-tuple communication cost (from M2) of
  the channels delivering data to the instance, with co-located
  channels counting as zero.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import AdaptivityConfig, CostModel
from repro.core.notifications import (
    CostNotification,
    ImbalanceProposal,
    TOPIC_COST,
    TOPIC_IMBALANCE,
    TOPIC_WEIGHTS,
)
from repro.engine.distribution import normalise_weights
from repro.grid.container import GridContext
from repro.policy import AdaptationPolicy, create_policy
from repro.services.base import GridService
from repro.services.pubsub import NotificationPublisher


@dataclasses.dataclass(frozen=True)
class BalancingTask:
    """Everything the adaptivity components know about one partitioned
    subplan: its instances, the channels feeding them, the producers'
    hosts, and the initial distribution."""

    subplan_id: str
    instance_ids: tuple
    initial_weights: tuple
    #: instance_id -> channel keys delivering data to it (for A2).
    instance_channels: dict
    #: Channels whose producer and consumer share a machine (their
    #: communication cost "is considered zero").
    co_located_channels: frozenset
    #: GQES endpoints hosting the producers that feed the subplan.
    producer_endpoints: tuple
    #: (producer_id, gqes_endpoint, target_port) for every feeding
    #: producer; the Responder applies updates in port order.
    producers: tuple
    #: "wrr" for stateless subplans, "hash" for stateful ones.
    policy_kind: str
    #: Initial bucket map for hash-partitioned subplans.
    bucket_map: tuple | None = None
    #: GQES endpoints hosting the subplan's instances (for progress
    #: estimation over *processed* tuples, [7]).
    instance_endpoints: tuple = ()


class Diagnoser(GridService, NotificationPublisher):
    """Assesses detector notifications and proposes balanced vectors."""

    def __init__(self, context: GridContext, machine_name: str,
                 config: AdaptivityConfig, cost: CostModel,
                 tasks: typing.Sequence[BalancingTask],
                 query_id: str = "q",
                 policy: AdaptationPolicy | None = None) -> None:
        GridService.__init__(self, context, f"diagnoser:{query_id}",
                             machine_name)
        NotificationPublisher.__init__(self)
        self.config = config
        self.cost = cost
        #: The controller that observes costs and proposes vectors;
        #: shared with the query's detectors and Responder when
        #: deployed together.
        self.policy = policy if policy is not None else create_policy(config)
        self.tasks = {task.subplan_id: task for task in tasks}
        self._weights: dict[str, list[float]] = {
            task.subplan_id: list(normalise_weights(task.initial_weights))
            for task in tasks}
        self._task_of_instance: dict[str, BalancingTask] = {}
        self._task_of_channel: dict[str, BalancingTask] = {}
        for task in tasks:
            for instance_id in task.instance_ids:
                self._task_of_instance[instance_id] = task
            for channels in task.instance_channels.values():
                for channel in channels:
                    self._task_of_channel[channel] = task
        self.proposals_sent = 0
        self.query_id = query_id
        metrics = context.metrics
        self._metric_notifications = metrics.counter(
            "diagnoser_notifications_received", query=query_id,
            policy=self.policy.name)
        #: Detector-timestamp to assessment latency of every cost
        #: notification (the monitoring leg of the control loop).
        self._metric_latency = metrics.histogram(
            "detection_latency_ms", query=query_id,
            policy=self.policy.name)

    def on_notification(self, topic: str, payload: typing.Any,
                        sender: str) -> None:
        if topic == TOPIC_COST:
            self._on_cost(payload)
        elif (topic == TOPIC_WEIGHTS
              and payload.subplan_id in self._weights):
            self._weights[payload.subplan_id] = list(payload.weights)

    def _on_cost(self, notification: CostNotification) -> None:
        self._metric_notifications.inc()
        self._metric_latency.observe(self.env.now - notification.timestamp)
        self.machine.cpu.execute(self.cost.control_event_work,
                                 label="diagnoser")
        task: BalancingTask | None = None
        if notification.kind == "m1":
            task = self._task_of_instance.get(notification.instance_id)
        elif notification.kind == "m2":
            task = self._task_of_channel.get(notification.recipient_channel)
        if task is not None:
            self.policy.observe(notification, task)
            self._assess(task)

    def _assess(self, task: BalancingTask) -> None:
        current = self._weights[task.subplan_id]
        outcome = self.policy.diagnose(task, current, self.env.now)
        if outcome is None:
            return  # not enough information, or not worth proposing
        proposed, costs = outcome
        proposal = ImbalanceProposal(
            subplan_id=task.subplan_id,
            current_weights=tuple(current),
            proposed_weights=tuple(proposed),
            instance_costs=tuple(costs),
            timestamp=self.env.now)
        self.publish(TOPIC_IMBALANCE, proposal)
        self.proposals_sent += 1
        self.context.tracer.record(
            "assessment", self.name, "imbalance proposal",
            subplan=task.subplan_id,
            proposed=tuple(round(w, 3) for w in proposed))
