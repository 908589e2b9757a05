"""Unit tests for chaos configuration and retry policies."""

import math
import random

import pytest

from repro.chaos import (
    ChaosConfig,
    FaultSchedule,
    LinkFault,
    MachineCrash,
    MachineFreeze,
    RetryPolicy,
    ServiceFault,
)
from repro.errors import ConfigurationError


class TestLinkFault:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ConfigurationError):
            LinkFault(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            LinkFault(duplicate_probability=-0.1)
        with pytest.raises(ConfigurationError):
            LinkFault(delay_probability=2.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkFault(delay_probability=0.5, delay_ms=-1.0)

    @pytest.mark.parametrize("delay_ms", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay_ms):
        with pytest.raises(ConfigurationError):
            LinkFault(delay_probability=0.5, delay_ms=delay_ms)

    def test_control_messages_are_not_droppable(self):
        with pytest.raises(ConfigurationError, match="control"):
            LinkFault(drop_probability=0.1,
                      kinds=("data", "control"))
        # Delaying or duplicating control traffic is allowed: the
        # recovery protocol only needs eventual delivery.
        LinkFault(delay_probability=0.5, delay_ms=10.0,
                  kinds=("control",))
        LinkFault(duplicate_probability=0.5, kinds=("control",))

    def test_window_must_be_well_formed(self):
        with pytest.raises(ConfigurationError):
            LinkFault(start_ms=-1.0)
        with pytest.raises(ConfigurationError):
            LinkFault(start_ms=100.0, end_ms=100.0)

    def test_matches_filters_endpoints_kind_and_window(self):
        fault = LinkFault(src="m1", dst="*", drop_probability=0.5,
                          kinds=("data",), start_ms=10.0, end_ms=20.0)
        assert fault.matches("m1", "m2", "data", 10.0)
        assert fault.matches("m1", "m9", "data", 19.9)
        assert not fault.matches("m2", "m1", "data", 15.0)  # wrong src
        assert not fault.matches("m1", "m2", "control", 15.0)
        assert not fault.matches("m1", "m2", "data", 9.9)  # before
        assert not fault.matches("m1", "m2", "data", 20.0)  # half-open

    def test_wildcards_match_any_machine(self):
        fault = LinkFault(drop_probability=0.5)
        assert fault.matches("a", "b", "data", 0.0)
        assert fault.matches("x", "y", "response", 1e9)


class TestMachineFreeze:
    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineFreeze("m1", at_ms=-1.0, duration_ms=10.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MachineFreeze("m1", at_ms=0.0, duration_ms=0.0)

    @pytest.mark.parametrize("at_ms, duration_ms", [
        (math.nan, 10.0), (math.inf, 10.0),
        (0.0, math.nan), (0.0, math.inf)],
        ids=["at-nan", "at-inf", "duration-nan", "duration-inf"])
    def test_non_finite_times_rejected(self, at_ms, duration_ms):
        with pytest.raises(ConfigurationError):
            MachineFreeze("m1", at_ms=at_ms, duration_ms=duration_ms)


class TestMachineCrash:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineCrash("m1", at_ms=-1.0)

    @pytest.mark.parametrize("at_ms", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_time_rejected(self, at_ms):
        with pytest.raises(ConfigurationError):
            MachineCrash("m1", at_ms=at_ms)

    def test_crash_at_time_zero_is_legal(self):
        assert MachineCrash("m1", at_ms=0.0).at_ms == 0.0

    def test_crashes_make_a_schedule_non_empty(self):
        schedule = FaultSchedule(crashes=(MachineCrash("m1", at_ms=5.0),))
        assert not schedule.is_empty

    def test_lossy_accepts_crashes(self):
        config = ChaosConfig.lossy(
            crashes=(MachineCrash("m1", at_ms=1.0),))
        assert config.enabled
        (crash,) = config.schedule.crashes
        assert crash.machine == "m1"


class TestServiceFault:
    def test_probability_and_window_validated(self):
        with pytest.raises(ConfigurationError):
            ServiceFault(failure_probability=1.1)
        with pytest.raises(ConfigurationError):
            ServiceFault(start_ms=5.0, end_ms=1.0)

    def test_matches_operation_and_window(self):
        fault = ServiceFault(operation="EntropyAnalyser",
                             failure_probability=0.5, end_ms=100.0)
        assert fault.matches("EntropyAnalyser", 0.0)
        assert not fault.matches("Other", 0.0)
        assert not fault.matches("EntropyAnalyser", 100.0)
        assert ServiceFault(failure_probability=0.5).matches("Any", 0.0)


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(backoff_base_ms=100.0, backoff_cap_ms=450.0,
                             jitter=0.0)
        assert policy.backoff_ms(1) == 100.0
        assert policy.backoff_ms(2) == 200.0
        assert policy.backoff_ms(3) == 400.0
        assert policy.backoff_ms(4) == 450.0  # capped
        assert policy.backoff_ms(10) == 450.0

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.2)
        rng = random.Random(7)
        values = [policy.backoff_ms(1, rng) for _ in range(200)]
        assert all(80.0 <= v <= 120.0 for v in values)
        assert len(set(values)) > 1  # the rng actually perturbs

    def test_no_rng_means_deterministic_backoff(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.5)
        assert policy.backoff_ms(1) == 100.0

    def test_attempt_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_ms(0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ms=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_ms=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)

    @pytest.mark.parametrize("field", ["timeout_ms", "backoff_base_ms",
                                       "backoff_cap_ms", "jitter"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**{field: value})


class TestChaosConfig:
    def test_default_is_disabled_and_empty(self):
        config = ChaosConfig()
        assert not config.enabled
        assert config.schedule.is_empty

    def test_data_plane_retries_must_be_unbounded(self):
        # A bounded data retry that exhausts its attempts silently
        # loses tuples: rejected at construction, not at runtime.
        with pytest.raises(ConfigurationError, match="send_retry"):
            ChaosConfig(send_retry=RetryPolicy(max_attempts=3))
        with pytest.raises(ConfigurationError, match="ws_retry"):
            ChaosConfig(ws_retry=RetryPolicy(max_attempts=3))

    def test_control_plane_retry_may_be_bounded(self):
        config = ChaosConfig(call_retry=RetryPolicy(max_attempts=2))
        assert config.call_retry.max_attempts == 2
        assert ChaosConfig().call_retry.max_attempts is not None

    def test_lossy_builds_one_rule_per_knob(self):
        config = ChaosConfig.lossy(drop_probability=0.1,
                                   delay_probability=0.2, delay_ms=30.0,
                                   ws_failure_probability=0.3,
                                   freezes=(MachineFreeze("m", 1.0, 2.0),))
        assert config.enabled
        (link,) = config.schedule.link_faults
        assert link.drop_probability == 0.1
        assert link.delay_ms == 30.0
        (ws,) = config.schedule.service_faults
        assert ws.failure_probability == 0.3
        assert len(config.schedule.freezes) == 1

    def test_lossy_without_knobs_has_empty_schedule(self):
        assert ChaosConfig.lossy().schedule.is_empty

    def test_schedule_is_empty_property(self):
        assert FaultSchedule().is_empty
        assert not FaultSchedule(
            freezes=(MachineFreeze("m", 0.0, 1.0),)).is_empty
