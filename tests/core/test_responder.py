"""Unit tests for the Responder (response stage)."""

import typing

import pytest

from repro.config import AdaptivityConfig, CostModel, RESPONSE_R1
from repro.core import (
    BalancingTask,
    ImbalanceProposal,
    Responder,
    TOPIC_IMBALANCE,
    TOPIC_WEIGHTS,
)
from repro.engine.control import ProgressReport
from repro.grid import GridContext
from repro.policy import create_policy
from repro.services import GridService


class FakeGQES(GridService):
    """Answers progress/processed/update operations like a real GQES."""

    def __init__(self, context, name, machine_name,
                 estimated_total=1000, processed=100):
        super().__init__(context, name, machine_name)
        self.estimated_total = estimated_total
        self.processed = processed
        self.updates: list[dict] = []

    def op_progress(self, payload, sender) -> typing.Generator:
        return [ProgressReport("xp:feed0:0", self.processed,
                               self.estimated_total)]
        yield  # pragma: no cover

    def op_processed(self, payload, sender) -> typing.Generator:
        return self.processed
        yield  # pragma: no cover

    def op_update_distribution(self, payload, sender) -> typing.Generator:
        self.updates.append(payload)
        return "applied"
        yield  # pragma: no cover


class RecordingService(GridService):
    def __init__(self, context, name, machine_name):
        super().__init__(context, name, machine_name)
        self.received = []

    def on_notification(self, topic, payload, sender):
        self.received.append((topic, payload))


def make_world(config=None, processed=100, policy_kind="wrr",
               bucket_map=None, two_producers=False,
               estimated_total=1000):
    context = GridContext(seed=0)
    for name in ("m1", "m2", "data"):
        context.add_machine(name)
    gqes = FakeGQES(context, "gqes:q:data", "data", processed=processed,
                    estimated_total=estimated_total)
    producers = [("xp:feed0:0", "gqes:q:data", 0)]
    if two_producers:
        producers.append(("xp:feed1:0", "gqes:q:data", 1))
    compute_gqes = FakeGQES(context, "gqes:q:m1", "m1",
                            processed=processed)
    task = BalancingTask(
        subplan_id="compute",
        instance_ids=("compute:0", "compute:1"),
        initial_weights=(0.5, 0.5),
        instance_channels={"compute:0": ("compute:0:0",),
                           "compute:1": ("compute:1:0",)},
        co_located_channels=frozenset(),
        producer_endpoints=("gqes:q:data",),
        producers=tuple(producers),
        policy_kind=policy_kind,
        bucket_map=bucket_map,
        instance_endpoints=("gqes:q:m1",))
    config = config or AdaptivityConfig(decision_latency_ms=0.0,
                                        cooldown_ms=0.0)
    responder = Responder(context, "m1", config, CostModel(), [task],
                          policy=create_policy(config))
    diagnoser = RecordingService(context, "diag", "m2")
    responder.subscribe(TOPIC_WEIGHTS, "diag")
    return context, responder, gqes, diagnoser


def proposal(weights=(1 / 11, 10 / 11)):
    return ImbalanceProposal(
        subplan_id="compute", current_weights=(0.5, 0.5),
        proposed_weights=weights, instance_costs=(50.0, 5.0),
        timestamp=0.0)


class TestResponderDecisions:
    def test_accepts_and_deploys_two_phase_update(self):
        context, responder, gqes, diagnoser = make_world()
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 1
        phases = [u["phase"] for u in gqes.updates]
        assert phases == ["replay", "discard"]
        update = gqes.updates[0]["update"]
        assert update.weights[1] == pytest.approx(10 / 11)
        assert update.epoch == 1

    def test_notifies_diagnoser_of_installed_weights(self):
        context, responder, _gqes, diagnoser = make_world()
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        topics = [t for t, _p in diagnoser.received]
        assert TOPIC_WEIGHTS in topics
        installed = diagnoser.received[-1][1]
        assert installed.weights[0] == pytest.approx(1 / 11)

    def test_near_completion_skips_adaptation(self):
        context, responder, gqes, _diag = make_world(processed=960)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 0
        assert responder.skips["near_completion"] == 1
        assert gqes.updates == []

    def test_cooldown_skips_rapid_second_adaptation(self):
        # Far beyond any lingering call-timeout timer that env.run()
        # may drain through.
        config = AdaptivityConfig(decision_latency_ms=0.0,
                                  cooldown_ms=1e9)
        context, responder, _gqes, _diag = make_world(config)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        responder.on_notification(
            TOPIC_IMBALANCE, proposal(weights=(0.9, 0.1)), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 1
        assert responder.skips["cooldown"] == 1

    def test_stale_proposal_below_threshold_after_install(self):
        context, responder, _gqes, _diag = make_world()
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        # The same vector again: responder state already matches.
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 1
        assert responder.skips["below_threshold"] == 1

    def test_retrospective_flag_follows_config(self):
        config = AdaptivityConfig(response=RESPONSE_R1,
                                  decision_latency_ms=0.0, cooldown_ms=0.0)
        context, responder, gqes, _diag = make_world(config)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert gqes.updates[0]["update"].retrospective is True

    def test_hash_task_ships_rebalanced_bucket_map(self):
        initial_map = tuple([0] * 8 + [1] * 8)
        context, responder, gqes, _diag = make_world(
            policy_kind="hash", bucket_map=initial_map)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        update = gqes.updates[0]["update"]
        assert update.bucket_map is not None
        assert len(update.bucket_map) == 16
        # ~10/11 of buckets now belong to consumer 1.
        assert update.bucket_map.count(1) == 15

    def test_two_producers_replay_ascending_discard_descending(self):
        context, responder, gqes, _diag = make_world(two_producers=True)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        ordered = [(u["phase"], u["producer_id"]) for u in gqes.updates]
        assert ordered == [
            ("replay", "xp:feed0:0"), ("replay", "xp:feed1:0"),
            ("discard", "xp:feed1:0"), ("discard", "xp:feed0:0")]

    def test_unknown_subplan_proposal_ignored(self):
        context, responder, gqes, _diag = make_world()
        bad = ImbalanceProposal("nope", (0.5, 0.5), (0.1, 0.9),
                                (1.0, 1.0), 0.0)
        responder.on_notification(TOPIC_IMBALANCE, bad, "diag")
        context.env.run()
        assert gqes.updates == []

    def test_decision_latency_delays_deployment(self):
        config = AdaptivityConfig(decision_latency_ms=4000.0,
                                  cooldown_ms=0.0)
        context, responder, gqes, _diag = make_world(config)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 1
        assert context.env.now >= 4000.0

    def test_degenerate_progress_estimate_counted_as_such(self):
        # estimated_total == 0 says nothing about progress; it used to
        # be folded into fraction = 1.0 and skipped as near-completion.
        context, responder, gqes, _diag = make_world(estimated_total=0)
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 0
        assert responder.skips["degenerate_progress"] == 1
        assert responder.skips["near_completion"] == 0
        assert gqes.updates == []

    def test_oscillation_accumulates_on_reversed_mass(self):
        context, responder, gqes, _diag = make_world()
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        assert responder.oscillation == 0.0  # first move: nothing to
        # reverse yet
        responder.on_notification(
            TOPIC_IMBALANCE,
            ImbalanceProposal("compute", (1 / 11, 10 / 11), (0.5, 0.5),
                              (5.0, 5.0), 0.0), "diag")
        context.env.run()
        # Second adaptation moved mass straight back: the overlap of
        # the two deltas (|0.5 - 1/11| per component) sums over both.
        assert responder.adaptations_accepted == 2
        assert responder.oscillation == pytest.approx(2 * (0.5 - 1 / 11))

    def test_same_direction_moves_do_not_oscillate(self):
        context, responder, gqes, _diag = make_world()
        responder.on_notification(
            TOPIC_IMBALANCE,
            ImbalanceProposal("compute", (0.5, 0.5), (0.3, 0.7),
                              (7.0, 3.0), 0.0), "diag")
        context.env.run()
        responder.on_notification(
            TOPIC_IMBALANCE,
            ImbalanceProposal("compute", (0.3, 0.7), (0.1, 0.9),
                              (9.0, 1.0), 0.0), "diag")
        context.env.run()
        assert responder.adaptations_accepted == 2
        assert responder.oscillation == 0.0

    def test_epochs_increase_per_adaptation(self):
        context, responder, gqes, _diag = make_world()
        responder.on_notification(TOPIC_IMBALANCE, proposal(), "diag")
        context.env.run()
        responder.on_notification(
            TOPIC_IMBALANCE,
            ImbalanceProposal("compute", (1 / 11, 10 / 11), (0.5, 0.5),
                              (5.0, 5.0), 0.0), "diag")
        context.env.run()
        epochs = [u["update"].epoch for u in gqes.updates]
        assert epochs == [1, 1, 2, 2]
