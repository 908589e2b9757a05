"""The Responder component (§3.1, Response).

The Responder receives imbalance proposals (enhanced workload vectors
W') from the Diagnoser and decides whether and how to react.  Before
accepting, it contacts the evaluators that produce data to estimate
the progress of execution (in line with [7]); if the run is close to
completion the adaptation is skipped.  Otherwise it notifies the
producers that must change their distribution policy — prospectively
(R2) or retrospectively (R1, redistributing the recovery logs) — and
the Diagnosers that must update the current distribution (W <- W').

Every deployment (an accepted proposal, a clone's quarantine or
reintegration) and the GDQS's roll-forward of an orphaned one go
through :func:`deploy_update`, the two-phase replay/discard calls.
"""

from __future__ import annotations

import collections
import typing

from repro.config import AdaptivityConfig, CostModel
from repro.core.diagnoser import BalancingTask
from repro.core.notifications import (
    ImbalanceProposal,
    TOPIC_IMBALANCE,
    TOPIC_WEIGHTS,
    WeightsInstalled,
)
from repro.engine.control import DistributionUpdate
from repro.engine.distribution import (
    normalise_weights,
    rebalance_buckets,
)
from repro.errors import ServiceError
from repro.grid.container import GridContext
from repro.policy import AdaptationPolicy, create_policy
from repro.policy.base import SKIP
from repro.services.base import GridService
from repro.services.pubsub import NotificationPublisher


class _SubplanState:
    """Mutable adaptation state the Responder keeps per subplan.

    Endpoints are copied out of the (frozen) task so failure recovery
    can re-point them at replacement hosts.
    """

    def __init__(self, task: BalancingTask) -> None:
        self.task = task
        self.weights = list(normalise_weights(task.initial_weights))
        self.bucket_map = (list(task.bucket_map)
                           if task.bucket_map is not None else None)
        self.producer_endpoints = list(task.producer_endpoints)
        self.instance_endpoints = list(task.instance_endpoints)
        self.producers = [list(entry) for entry in task.producers]
        self.epoch = 0
        self.last_adaptation: float | None = None
        self.busy = False
        #: Weight delta of the last policy-driven adaptation, kept to
        #: measure oscillation (mass moved one way then reversed).
        self.prev_delta: list | None = None
        # Per-instance quarantine flags (suspect clones, w_i -> 0) and
        # the weights to restore shares from at reintegration.
        self.quarantined = [False] * len(self.weights)
        self.pre_quarantine_weights: list | None = None


class Responder(GridService, NotificationPublisher):
    """Decides on, and deploys, workload redistributions."""

    def __init__(self, context: GridContext, machine_name: str,
                 config: AdaptivityConfig, cost: CostModel,
                 tasks: typing.Sequence[BalancingTask],
                 query_id: str = "q",
                 policy: AdaptationPolicy | None = None) -> None:
        GridService.__init__(self, context, f"responder:{query_id}",
                             machine_name)
        NotificationPublisher.__init__(self)
        self.config = config
        self.cost = cost
        #: The controller whose verdicts gate deployments; shared with
        #: the query's detectors and Diagnoser when deployed together.
        self.policy = policy if policy is not None else create_policy(config)
        self._state = {task.subplan_id: _SubplanState(task)
                       for task in tasks}
        self.adaptations_accepted = 0
        #: Declined proposals per reason ("cooldown", "busy", ...).
        self.skips: collections.Counter = collections.Counter()
        self.quarantines = 0
        self.reintegrations = 0
        #: Total oscillation: workload mass moved by one adaptation and
        #: moved back by a later one (sum over sign-reversed weight
        #: deltas).  Quarantine/reintegration moves are excluded — they
        #: are reactions to faults, not controller churn.
        self.oscillation = 0.0
        self.query_id = query_id
        metrics = context.metrics
        self._metric_proposals = metrics.counter(
            "responder_proposals_received", query=query_id,
            policy=self.policy.name)
        #: Proposal-timestamp to installed-weights latency of each
        #: accepted adaptation (the response leg of the control loop).
        self._metric_latency = metrics.histogram(
            "adaptation_latency_ms", query=query_id,
            policy=self.policy.name)
        #: Deadline for control calls so a crashed peer cannot hang an
        #: adaptation forever.
        self.call_timeout_ms = 10_000.0

    def replace_endpoint(self, old_endpoint: str, new_endpoint: str) -> None:
        """Failure recovery moved a host: re-point control targets."""
        for state in self._state.values():
            state.producer_endpoints = [
                new_endpoint if endpoint == old_endpoint else endpoint
                for endpoint in state.producer_endpoints]
            state.instance_endpoints = [
                new_endpoint if endpoint == old_endpoint else endpoint
                for endpoint in state.instance_endpoints]
            for entry in state.producers:
                if entry[1] == old_endpoint:
                    entry[1] = new_endpoint

    def on_notification(self, topic: str, payload: typing.Any,
                        sender: str) -> None:
        if topic != TOPIC_IMBALANCE:
            return
        self._metric_proposals.inc()
        # A decision in progress keeps the Responder from retiring: its
        # calls' replies must find it.
        self.spawn(self._handle(payload), name=f"{self.name}:proposal")

    def _handle(self, proposal: ImbalanceProposal) -> typing.Generator:
        yield self.machine.cpu.execute(self.cost.control_event_work,
                                       label="responder")
        state = self._state.get(proposal.subplan_id)
        if state is None:
            return
        if state.busy:
            self.skips["busy"] += 1
            return
        state.busy = True
        try:
            yield from self._decide(state, proposal)
        finally:
            state.busy = False

    def _decide(self, state: _SubplanState,
                proposal: ImbalanceProposal) -> typing.Generator:
        now = self.env.now
        if any(state.quarantined):
            # The Diagnoser's proposal assumes the full clone set;
            # deploying it would hand work back to a stalled clone.
            self.skips["quarantined"] += 1
            return
        # The accept/skip judgement (cooldown, threshold re-check
        # against our possibly-newer state, and any policy-specific
        # gating) is policy-owned.
        verdict = self.policy.decide(state, proposal, now)
        if verdict.action == SKIP:
            self.skips[verdict.reason or "below_threshold"] += 1
            return
        proposed = list(verdict.weights)
        # Progress estimation in line with [7]: combine how much input
        # the producers expect overall with how much the subplan's
        # instances have already processed; near-complete queries are
        # left alone.  The estimation itself takes time (SQL progress
        # estimators and 2005-era SOAP stacks are not free).
        if self.config.decision_latency_ms > 0:
            yield self.env.timeout(self.config.decision_latency_ms)
        retry = self.context.call_retry_policy()
        try:
            estimated_total = 0
            for endpoint in state.producer_endpoints:
                reports = yield from self.call(
                    endpoint, "progress",
                    {"subplan_id": state.task.subplan_id},
                    timeout_ms=self.call_timeout_ms, retry=retry)
                estimated_total += sum(r.estimated_total for r in reports)
            processed_total = 0
            for endpoint in state.instance_endpoints:
                processed_total += yield from self.call(
                    endpoint, "processed",
                    {"subplan_id": state.task.subplan_id},
                    timeout_ms=self.call_timeout_ms, retry=retry)
        except ServiceError:
            # A peer is unreachable (likely crashed); abort this
            # adaptation and let failure recovery sort the world out.
            self.skips["unreachable"] += 1
            return
        if estimated_total <= 0:
            # A degenerate estimate says nothing about progress; it
            # used to masquerade as "near completion" (fraction 1.0).
            # Count it honestly and leave the run alone — adapting on
            # zero information risks thrashing a finished subplan.
            self.skips["degenerate_progress"] += 1
            self.context.tracer.record(
                "response", self.name,
                "adaptation skipped on degenerate progress estimate",
                estimated_total=estimated_total)
            return
        fraction = processed_total / estimated_total
        if not self.policy.accept_progress(fraction):
            self.skips["near_completion"] += 1
            self.context.tracer.record(
                "response", self.name, "adaptation skipped near completion",
                fraction=round(fraction, 3))
            return
        previous_weights = list(state.weights)
        deployed = yield from self._deploy_weights(
            state, proposed, self.config.retrospective)
        if not deployed:
            self.skips["unreachable"] += 1
            return
        state.last_adaptation = now
        self.adaptations_accepted += 1
        self._metric_latency.observe(self.env.now - proposal.timestamp)
        self._note_oscillation(state, previous_weights, proposed)
        self.policy.on_adaptation(state.task.subplan_id, tuple(proposed),
                                  self.env.now)
        self.context.tracer.record(
            "response", self.name, "distribution rebalanced",
            subplan=state.task.subplan_id, epoch=state.epoch,
            retrospective=self.config.retrospective,
            weights=tuple(round(w, 3) for w in proposed))
        self.publish(TOPIC_WEIGHTS, WeightsInstalled(
            subplan_id=state.task.subplan_id,
            weights=tuple(proposed),
            epoch=state.epoch,
            timestamp=now))

    def _note_oscillation(self, state: _SubplanState,
                          previous: list, proposed: list) -> None:
        """Accumulate reversed workload mass across adaptations.

        For consecutive policy-driven adaptations with deltas ``p``
        (previous) and ``d`` (current), the oscillation contribution is
        ``sum(min(|d_i|, |p_i|))`` over components where the sign
        flipped — workload shifted one way and then shifted back.  A
        well-damped controller scores near zero however many
        adaptations it fires.
        """
        delta = [new - old for new, old in zip(proposed, previous)]
        if state.prev_delta is not None:
            reversed_mass = sum(
                min(abs(d), abs(p))
                for d, p in zip(delta, state.prev_delta) if d * p < 0)
            if reversed_mass > 0:
                self.oscillation += reversed_mass
        state.prev_delta = delta

    def _deploy_weights(self, state: _SubplanState, proposed: list,
                        retrospective: bool) -> typing.Generator:
        """Push a weight vector to every producer; True on success."""
        state.epoch += 1
        bucket_map: tuple | None = None
        if state.bucket_map is not None:
            state.bucket_map = rebalance_buckets(state.bucket_map, proposed)
            bucket_map = tuple(state.bucket_map)
        update = DistributionUpdate(
            subplan_id=state.task.subplan_id,
            weights=tuple(proposed),
            bucket_map=bucket_map,
            retrospective=retrospective,
            epoch=state.epoch)
        try:
            yield from deploy_update(self, state.producers, update,
                                     self.call_timeout_ms,
                                     self.context.call_retry_policy())
        except ServiceError:
            return False
        state.weights = list(proposed)
        return True

    # -- quarantine of suspect clones (chaos defense) -------------------

    def _weights_excluding_quarantined(self,
                                       state: _SubplanState) -> list | None:
        """The share vector with quarantined clones driven to zero.

        Based on the pre-quarantine shares so a reintegrated clone gets
        its old share back (the Diagnoser then re-proposes from live
        costs).  ``None`` when no weight would remain.
        """
        base = state.pre_quarantine_weights or state.weights
        masked = [0.0 if quarantined else weight
                  for weight, quarantined in zip(base, state.quarantined)]
        if sum(masked) <= 0:
            if not any(state.quarantined):
                # Degenerate pre-quarantine vector: fall back to even.
                return list(normalise_weights([1.0] * len(masked)))
            return None
        return list(normalise_weights(masked))

    def set_quarantined(self, subplan_id: str, instance_index: int,
                        quarantined: bool) -> typing.Generator:
        """Quarantine a suspect clone (``True``: weight to zero, recovery
        log and in-flight state retained) or reintegrate a recovered one
        (``False``: its pre-quarantine share returns), prospectively;
        the flip is undone if nothing could be deployed.  Spawned by the
        GDQS monitor, through :meth:`spawn`, when heartbeats stop or
        resume."""
        state = self._state.get(subplan_id)
        if (state is None or self.crashed
                or not 0 <= instance_index < len(state.quarantined)
                or state.quarantined[instance_index] == quarantined):
            return
        while state.busy:
            yield self.env.timeout(25.0)
        state.busy = True
        try:
            if quarantined and state.pre_quarantine_weights is None:
                state.pre_quarantine_weights = list(state.weights)
            state.quarantined[instance_index] = quarantined
            # None: every clone suspect, nowhere to shift work to.
            proposed = self._weights_excluding_quarantined(state)
            if proposed is None or not (yield from self._deploy_weights(
                    state, proposed, retrospective=False)):
                state.quarantined[instance_index] = not quarantined
                return
            # A fault-driven move breaks the adaptation sequence for
            # oscillation purposes.
            state.prev_delta = None
            if quarantined:
                self.quarantines += 1
            else:
                self.reintegrations += 1
                if not any(state.quarantined):
                    state.pre_quarantine_weights = None
            self.context.tracer.record(
                "response", self.name,
                "clone quarantined" if quarantined else "clone reintegrated",
                subplan=subplan_id, instance=instance_index,
                epoch=state.epoch,
                weights=tuple(round(w, 3) for w in proposed))
            self.publish(TOPIC_WEIGHTS, WeightsInstalled(
                subplan_id=subplan_id, weights=tuple(proposed),
                epoch=state.epoch, timestamp=self.env.now))
        finally:
            state.busy = False


def deploy_update(service: GridService,
                  producers: typing.Sequence[typing.Sequence],
                  update: DistributionUpdate | None, timeout_ms: float,
                  retry, skip_replay: typing.Container[str] = ()
                  ) -> typing.Generator:
    """Drive both phases of a distribution update from ``service``.

    The replay phase goes to the ``(producer_id, endpoint, port)``
    entries in port order (a join's build side before its probe side,
    so replayed state is observed before the tuples that probe it),
    then the discard phase in reverse (old probe tuples leave before
    the state they need is torn down), skipping the replays of
    ``skip_replay``.  Every call is acknowledged; a failed one raises
    :class:`~repro.errors.ServiceError`.
    """
    by_port = sorted(producers, key=lambda p: p[2])
    for producer_id, endpoint, _port in by_port:
        if producer_id not in skip_replay:
            yield from service.call(endpoint, "update_distribution", {
                "update": update, "producer_id": producer_id,
                "phase": "replay"}, timeout_ms=timeout_ms, retry=retry)
    for producer_id, endpoint, _port in reversed(by_port):
        yield from service.call(endpoint, "update_distribution", {
            "update": update, "producer_id": producer_id,
            "phase": "discard"}, timeout_ms=timeout_ms, retry=retry)
