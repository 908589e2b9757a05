"""Unit tests for the non-paper controllers, in isolation.

Each policy is driven directly through the protocol surface (observe/
diagnose/decide and the lifecycle hook) with hand-made notifications
— no grid, no simulation — so the controller arithmetic is pinned
down independently of the services that host it.
"""

import pytest

from repro.config import AdaptivityConfig
from repro.core import BalancingTask, CostNotification
from repro.policy import create_policy


def make_task():
    return BalancingTask(
        subplan_id="compute",
        instance_ids=("compute:0", "compute:1"),
        initial_weights=(0.5, 0.5),
        instance_channels={"compute:0": ("c0",), "compute:1": ("c1",)},
        co_located_channels=frozenset(),
        producer_endpoints=("gqes:data",),
        producers=(("xp", "gqes:data", 0),),
        policy_kind="wrr")


def m1(instance_id, value):
    return CostNotification(
        kind="m1", key=f"m1|{instance_id}", instance_id=instance_id,
        recipient_channel=None, subplan_id="compute",
        average_value=value, window_length=5, timestamp=0.0)


def policy_named(name, **config_kwargs):
    return create_policy(AdaptivityConfig(policy=name, **config_kwargs))


def feed(policy, task, cost0, cost1):
    policy.observe(m1("compute:0", cost0), task)
    policy.observe(m1("compute:1", cost1), task)


class TestHysteresisPolicy:
    def test_ewma_smooths_cost_updates(self):
        policy, task = policy_named("hysteresis"), make_task()
        policy.observe(m1("compute:0", 10.0), task)
        policy.observe(m1("compute:0", 20.0), task)
        # alpha = 0.4: 0.4 * 20 + 0.6 * 10.
        assert policy.instance_cost(task, "compute:0") == pytest.approx(14.0)

    def test_disarms_after_adaptation(self):
        policy, task = policy_named("hysteresis"), make_task()
        feed(policy, task, 10.0, 1.0)
        outcome = policy.diagnose(task, [0.5, 0.5], now=0.0)
        assert outcome is not None
        proposed, _costs = outcome
        assert proposed[1] > proposed[0]
        policy.on_adaptation("compute", tuple(proposed), now=0.0)
        # Same imbalance, same weights: the disarmed trigger stays mute.
        assert policy.diagnose(task, [0.5, 0.5], now=1.0) is None

    def test_rearms_once_deviation_falls_below_release(self):
        policy, task = policy_named("hysteresis"), make_task()
        feed(policy, task, 10.0, 1.0)
        proposed, _costs = policy.diagnose(task, [0.5, 0.5], now=0.0)
        policy.on_adaptation("compute", tuple(proposed), now=0.0)
        # Deployed weights now match the target: deviation ~0 re-arms
        # (and, being below thres_a, still proposes nothing).
        assert policy.diagnose(task, list(proposed), now=1.0) is None
        # The imbalance flips: the re-armed trigger fires again.
        feed(policy, task, 1.0, 1.0)  # EWMA pulls costs back together
        feed(policy, task, 1.0, 1.0)
        feed(policy, task, 1.0, 1.0)
        outcome = policy.diagnose(task, list(proposed), now=2.0)
        assert outcome is not None


class TestPidPolicy:
    def test_steps_toward_target_instead_of_jumping(self):
        policy, task = policy_named("pid"), make_task()
        feed(policy, task, 10.0, 1.0)
        proposed, costs = policy.diagnose(task, [0.5, 0.5], now=0.0)
        target_0 = (1 / 10) / (1 / 10 + 1 / 1)  # inverse-cost weight
        # A partial step: strictly between the setpoint and current.
        assert target_0 < proposed[0] < 0.5
        assert proposed[0] + proposed[1] == pytest.approx(1.0)

    def test_deadband_clears_integral_and_stays_quiet(self):
        policy, task = policy_named("pid"), make_task()
        feed(policy, task, 10.0, 1.0)
        policy.diagnose(task, [0.5, 0.5], now=0.0)  # accumulates error
        assert policy._integral  # noqa: SLF001 - white-box check
        feed(policy, task, 1.0, 1.0)
        feed(policy, task, 1.0, 1.0)
        feed(policy, task, 1.0, 1.0)
        assert policy.diagnose(task, [0.5, 0.5], now=1.0) is None
        assert not policy._integral

    def test_decision_threshold_scaled_by_deadband_ratio(self):
        policy = policy_named("pid", thres_a=0.2)
        assert policy.decision_threshold() == pytest.approx(0.1)

    def test_integral_term_accumulates_across_steps(self):
        policy, task = policy_named("pid"), make_task()
        feed(policy, task, 10.0, 1.0)
        first, _ = policy.diagnose(task, [0.5, 0.5], now=0.0)
        second, _ = policy.diagnose(task, [0.5, 0.5], now=1.0)
        # Same error twice: the integral term makes the second step
        # larger than the first from the same starting vector.
        assert second[0] < first[0]
