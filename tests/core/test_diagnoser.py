"""Unit tests for the Diagnoser (assessment stage)."""

import pytest

from repro.config import ASSESSMENT_A2, AdaptivityConfig, CostModel
from repro.core import (
    BalancingTask,
    CostNotification,
    Diagnoser,
    TOPIC_COST,
    TOPIC_IMBALANCE,
    TOPIC_WEIGHTS,
    WeightsInstalled,
)
from repro.grid import GridContext
from repro.policy import create_policy
from repro.services import GridService


class RecordingService(GridService):
    def __init__(self, context, name, machine_name):
        super().__init__(context, name, machine_name)
        self.received = []

    def on_notification(self, topic, payload, sender):
        self.received.append((topic, payload))


def make_task(co_located=()):
    return BalancingTask(
        subplan_id="compute",
        instance_ids=("compute:0", "compute:1"),
        initial_weights=(0.5, 0.5),
        instance_channels={"compute:0": ("compute:0:0",),
                           "compute:1": ("compute:1:0",)},
        co_located_channels=frozenset(co_located),
        producer_endpoints=("gqes:q1:data-host",),
        producers=(("xp:feed0:0", "gqes:q1:data-host", 0),),
        policy_kind="wrr")


def make_diagnoser(config=None, co_located=()):
    context = GridContext(seed=0)
    context.add_machine("m1")
    context.add_machine("m2")
    config = config or AdaptivityConfig()
    diagnoser = Diagnoser(context, "m1", config, CostModel(),
                          [make_task(co_located)],
                          policy=create_policy(config))
    responder = RecordingService(context, "resp", "m2")
    diagnoser.subscribe(TOPIC_IMBALANCE, "resp")
    return context, diagnoser, responder


def cost_m1(instance, value):
    return CostNotification(kind="m1", key=f"m1|{instance}",
                            instance_id=instance, recipient_channel=None,
                            subplan_id="compute", average_value=value,
                            window_length=5, timestamp=0.0)


def cost_m2(channel, value):
    return CostNotification(kind="m2", key=f"m2|xp->{channel}",
                            instance_id=None, recipient_channel=channel,
                            subplan_id=None, average_value=value,
                            window_length=5, timestamp=0.0)


class TestAssessment:
    def test_no_proposal_until_all_instances_have_costs(self):
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 50.0),
                                  "det")
        context.env.run()
        assert responder.received == []

    def test_imbalance_proposes_inverse_cost_vector(self):
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 50.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.0),
                                  "det")
        context.env.run()
        assert len(responder.received) == 1
        proposal = responder.received[0][1]
        assert proposal.subplan_id == "compute"
        assert proposal.proposed_weights[0] == pytest.approx(1 / 11)
        assert proposal.proposed_weights[1] == pytest.approx(10 / 11)
        assert proposal.current_weights == (0.5, 0.5)

    def test_balanced_costs_do_not_propose(self):
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 5.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.4),
                                  "det")
        context.env.run()
        assert responder.received == []  # 4% deviation < thresA

    def test_thres_a_gates_exactly(self):
        # Costs chosen so the proposed deviation just exceeds 20%.
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 16.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 10.0),
                                  "det")
        context.env.run()
        # W' = (10/26, 16/26) = (0.385, 0.615): 23% deviation.
        assert len(responder.received) == 1

    def test_degenerate_zero_cost_sample_ignored(self):
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 0.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.0),
                                  "det")
        context.env.run()
        assert responder.received == []

    def test_weights_installed_updates_reference_vector(self):
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(
            TOPIC_WEIGHTS,
            WeightsInstalled("compute", (1 / 11, 10 / 11), 1, 0.0), "resp")
        # Costs matching the installed weights: no further proposal.
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 50.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.0),
                                  "det")
        context.env.run()
        assert responder.received == []

    def test_unknown_instance_notification_ignored(self):
        context, diagnoser, responder = make_diagnoser()
        diagnoser.on_notification(TOPIC_COST, cost_m1("other:0", 50.0),
                                  "det")
        context.env.run()
        assert responder.received == []


class TestAssessmentA2:
    def test_a2_adds_communication_cost(self):
        config = AdaptivityConfig(assessment=ASSESSMENT_A2)
        context, diagnoser, responder = make_diagnoser(config)
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 5.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.0),
                                  "det")
        context.env.run()
        assert responder.received == []  # balanced processing
        # Communication to instance 0 is expensive: A2 now sees 10 vs 5.
        diagnoser.on_notification(TOPIC_COST, cost_m2("compute:0:0", 5.0),
                                  "det")
        context.env.run()
        assert len(responder.received) == 1
        proposal = responder.received[0][1]
        assert proposal.instance_costs[0] == pytest.approx(10.0)

    def test_a1_ignores_communication_cost(self):
        context, diagnoser, responder = make_diagnoser()  # default A1
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 5.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m2("compute:0:0", 50.0),
                                  "det")
        context.env.run()
        assert responder.received == []

    def test_a2_co_located_channel_counts_zero(self):
        config = AdaptivityConfig(assessment=ASSESSMENT_A2)
        context, diagnoser, responder = make_diagnoser(
            config, co_located=("compute:0:0",))
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:0", 5.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m1("compute:1", 5.0),
                                  "det")
        diagnoser.on_notification(TOPIC_COST, cost_m2("compute:0:0", 50.0),
                                  "det")
        context.env.run()
        assert responder.received == []  # zero by co-location
