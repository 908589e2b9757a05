"""The adaptation-policy protocol.

The paper's adaptivity controller — ``W' ∝ 1/c(p_i)`` with fixed
``thresM``/``thresA`` gates — is one point in a much larger design
space of observe → diagnose → propose controllers.  This module
defines the seam: an :class:`AdaptationPolicy` owns every *decision*
of the monitor/assess/respond pipeline (which detector averages are
worth notifying, what the balanced vector is, whether a proposal is
worth deploying) while the Diagnoser/Responder services keep owning
the *mechanics* (pub/sub plumbing, CPU charges, progress-estimation
calls, two-phase weight deployment).  That split is what lets the
paper's four A1/A2×R1/R2 variants be this base class itself — the
``paper-*`` entries of :data:`repro.policy.POLICIES` — while other
controllers (hysteresis, PID) drop in without touching the services.

Protocol surface (all consulted by the core services):

* :meth:`AdaptationPolicy.notification_gate` — the detector's
  re-notification threshold (``thresM`` in the paper instance);
* :meth:`AdaptationPolicy.observe` — ingest one cost notification
  (the paper instance records windowed averages; smoothing policies
  fold them into EWMAs instead);
* :meth:`AdaptationPolicy.diagnose` — propose a new weight vector for
  a balancing task, or ``None`` to stay quiet;
* :meth:`AdaptationPolicy.decide` — gate an imbalance proposal on the
  Responder side into a :class:`Verdict` (deploy these weights / skip
  for this reason);
* :meth:`AdaptationPolicy.accept_progress` — the near-completion
  cutoff, consulted once the Responder has estimated progress;
* :meth:`AdaptationPolicy.on_adaptation` — told when a proposal it
  made was deployed.

While any clone is quarantined the Responder skips every proposal: the
policy's vector assumes the full clone set.

A policy instance is created per query (one shared by that query's
detectors, Diagnoser and Responder) and holds mutable controller
state; it must never touch the simulation — no event scheduling, no
CPU charges, no randomness — so that policy arithmetic stays a pure
function of what the services feed it.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ASSESSMENT_A2, AdaptivityConfig
from repro.engine.distribution import (
    inverse_cost_weights,
    max_relative_change,
    normalise_weights,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.diagnoser import BalancingTask
    from repro.core.notifications import CostNotification

#: Absolute change (ms/tuple) below which an average measured against a
#: zero baseline counts as unchanged.  A relative gate is undefined at
#: zero — e.g. a co-located channel whose send cost is zero — so
#: without this floor any nonzero wobble would re-notify regardless of
#: ``thres_m``.
THRES_M_FLOOR = 1e-6

#: Verdict actions.
DEPLOY = "deploy"
SKIP = "skip"


@dataclasses.dataclass(frozen=True)
class Verdict:
    """The Responder-side outcome of judging one imbalance proposal.

    ``action`` is :data:`DEPLOY` or :data:`SKIP`; a skip carries the
    ``reason`` used for the per-reason skip counters, a deploy carries
    the (normalised) ``weights`` to install — which need not equal the
    proposal's vector (a PID policy deploys a partial step).
    """

    action: str
    reason: str | None = None
    weights: tuple = ()

    @classmethod
    def deploy(cls, weights: typing.Sequence[float]) -> "Verdict":
        return cls(DEPLOY, weights=tuple(weights))

    @classmethod
    def skip(cls, reason: str) -> "Verdict":
        return cls(SKIP, reason=reason)


class AdaptationPolicy:
    """Base policy: the paper's arithmetic, split into override hooks.

    Subclasses customise single decisions (cost smoothing, the target
    vector, the proposal/decision gates) without re-implementing the
    bookkeeping.  The base class *is* the paper controller: every
    ``paper-*`` name of :data:`repro.policy.POLICIES` instantiates it.
    """

    #: The :data:`~repro.policy.POLICIES` name; set by ``create_policy``.
    name = "base"
    #: Tunables: parameter name -> default value.  Overridden per
    #: policy; values come from ``AdaptivityConfig.policy_params``.
    PARAMS: dict = {}

    def __init__(self, config: AdaptivityConfig) -> None:
        self.config = config
        self.params = dict(self.PARAMS)
        self.params.update(config.params())
        #: Assessed per-tuple processing cost per instance (M1).
        self._m1_cost: dict[str, float] = {}
        #: Assessed per-tuple communication cost per channel (M2).
        self._m2_cost: dict[str, float] = {}

    # -- monitoring (detector-owned thresholds live here) ----------------

    def notification_gate(self, last: float | None,
                          average: float) -> bool:
        """Whether the detector should (re-)notify for ``average``.

        The paper gate: relative change of the windowed average beyond
        ``thres_m``, with the absolute :data:`THRES_M_FLOOR` taking over
        against a zero baseline (where a relative gate is undefined).
        """
        if last is None:
            return True
        if last > 0:
            return abs(average - last) / last >= self.config.thres_m
        return abs(average - last) > THRES_M_FLOOR

    # -- observation ------------------------------------------------------

    def observe(self, notification: "CostNotification",
                task: "BalancingTask") -> None:
        """Ingest one cost notification for ``task``."""
        if notification.kind == "m1":
            self._record_m1(notification.instance_id,
                            notification.average_value)
        elif notification.kind == "m2":
            self._record_m2(notification.recipient_channel,
                            notification.average_value)

    def _record_m1(self, instance_id: str, value: float) -> None:
        self._m1_cost[instance_id] = value

    def _record_m2(self, channel: str, value: float) -> None:
        self._m2_cost[channel] = value

    def instance_cost(self, task: "BalancingTask",
                      instance_id: str) -> float | None:
        """The assessed per-tuple cost c(p_i), or None if unknown.

        Degenerate (non-positive) measurements are treated as unknown:
        a zero cost would make the inverse-proportional vector put all
        load on one instance on the strength of a broken sample.
        """
        processing = self._m1_cost.get(instance_id)
        if processing is None or processing <= 0:
            return None
        total = processing
        if self.config.assessment == ASSESSMENT_A2:
            for channel in task.instance_channels.get(instance_id, ()):
                if channel in task.co_located_channels:
                    continue
                communication = self._m2_cost.get(channel)
                if communication is not None:
                    total += communication
        return max(total, 1e-9)

    # -- diagnosis --------------------------------------------------------

    def diagnose(self, task: "BalancingTask",
                 current_weights: typing.Sequence[float],
                 now: float) -> tuple[list[float], list[float]] | None:
        """A ``(proposed_weights, instance_costs)`` pair, or None.

        Returns None while any instance cost is still unknown or the
        policy judges the imbalance not worth a proposal.
        """
        costs = []
        for instance_id in task.instance_ids:
            cost = self.instance_cost(task, instance_id)
            if cost is None:
                return None  # not enough information yet
            costs.append(cost)
        proposed = self.propose(task, list(current_weights), costs, now)
        if proposed is None:
            return None
        return proposed, costs

    def propose(self, task: "BalancingTask", current: list[float],
                costs: list[float], now: float) -> list[float] | None:
        """The enhanced vector W', or None to stay quiet.

        Paper behaviour: inverse-cost target, gated on the relative
        per-element deviation exceeding ``thres_a``.
        """
        proposed = inverse_cost_weights(costs)
        if max_relative_change(current, proposed) <= self.config.thres_a:
            return None
        return proposed

    # -- decision (Responder side) ---------------------------------------

    def decision_threshold(self) -> float:
        """The Responder-side re-check threshold (``thres_a``)."""
        return self.config.thres_a

    def decide(self, state, proposal, now: float) -> Verdict:
        """Judge ``proposal`` against the Responder's current ``state``.

        ``state`` exposes ``weights`` (the installed vector, possibly
        newer than the Diagnoser's view) and ``last_adaptation``; it
        must be treated read-only.  Paper behaviour: cooldown gate,
        then re-check the deviation against ``thres_a``.
        """
        if (state.last_adaptation is not None
                and now - state.last_adaptation < self.config.cooldown_ms):
            return Verdict.skip("cooldown")
        proposed = normalise_weights(proposal.proposed_weights)
        if (max_relative_change(state.weights, proposed)
                <= self.decision_threshold()):
            return Verdict.skip("below_threshold")
        return Verdict.deploy(proposed)

    def accept_progress(self, fraction: float) -> bool:
        """Whether to adapt given the estimated progress ``fraction``.

        False skips as near-completion (progress estimation [7]).
        """
        return fraction < self.config.progress_cutoff

    # -- lifecycle hook ---------------------------------------------------

    def on_adaptation(self, subplan_id: str,
                      weights: typing.Sequence[float],
                      now: float) -> None:
        """An adaptation this policy proposed was deployed."""
