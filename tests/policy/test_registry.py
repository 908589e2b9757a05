"""Unit tests for the policy table and its config integration."""

import pytest

from repro.config import AdaptivityConfig
from repro.errors import ConfigurationError
from repro.policy import POLICIES, HysteresisPolicy, create_policy


class TestPolicyRegistry:
    def test_policies_lists_all_builtins(self):
        assert sorted(POLICIES) == [
            "hysteresis", "paper-A1R1", "paper-A1R2", "paper-A2R1",
            "paper-A2R2", "pid"]

    def test_unknown_name_lists_registered_policies(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AdaptivityConfig(policy="A3")
        message = str(excinfo.value)
        assert "'A3'" in message
        assert "paper-A1R1" in message
        assert "hysteresis" in message

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_policy_creates_a_named_instance(self, name):
        config = AdaptivityConfig(policy=name)
        policy = create_policy(config)
        assert type(policy) is POLICIES[name]
        assert policy.name == name
        if name.startswith("paper-"):
            assert config.assessment + config.response == name[6:]

    def test_create_names_the_instance(self):
        config = AdaptivityConfig(policy="hysteresis")
        policy = create_policy(config)
        assert isinstance(policy, HysteresisPolicy)
        assert policy.name == "hysteresis"

    def test_unknown_param_lists_known_tunables(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AdaptivityConfig(policy="hysteresis",
                             policy_params={"alhpa": 1.0})
        message = str(excinfo.value)
        assert "'alhpa'" in message
        assert "alpha" in message
        assert "release_ratio" in message


class TestConfigValidation:
    def test_unknown_policy_error_lists_options(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AdaptivityConfig(policy="A3")
        message = str(excinfo.value)
        assert "'A3'" in message
        assert "pid" in message

    def test_bad_assessment_error_lists_valid_axes(self):
        with pytest.raises(ConfigurationError) as excinfo:
            AdaptivityConfig(assessment="A3")
        assert "A1" in str(excinfo.value)
        assert "A2" in str(excinfo.value)

    def test_paper_policy_name_is_authoritative_over_axes(self):
        config = AdaptivityConfig(policy="paper-A2R1",
                                  assessment="A1", response="R2")
        assert config.assessment == "A2"
        assert config.response == "R1"
        assert config.retrospective is True

    def test_axes_resolve_to_paper_policy_name(self):
        config = AdaptivityConfig(assessment="A2", response="R2")
        assert config.policy is None
        assert config.policy_name == "paper-A2R2"

    def test_policy_params_mapping_normalised_to_sorted_tuple(self):
        config = AdaptivityConfig(policy="pid",
                                  policy_params={"ki": 0.1, "kp": 0.7})
        assert config.policy_params == (("ki", 0.1), ("kp", 0.7))
        assert config.params() == {"ki": 0.1, "kp": 0.7}

    def test_unknown_policy_param_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            AdaptivityConfig(policy="pid", policy_params={"kd": 0.2})

    def test_params_reach_the_instance(self):
        config = AdaptivityConfig(policy="pid",
                                  policy_params={"kp": 0.7})
        policy = create_policy(config)
        assert policy.params["kp"] == 0.7
        assert policy.params["ki"] == 0.15  # default preserved
