"""Unit tests for configuration validation."""

import pytest

from repro.config import (
    ASSESSMENT_A1,
    AdaptivityConfig,
    CostModel,
    EngineConfig,
    RESPONSE_R1,
    RESPONSE_R2,
)
from repro.errors import ConfigurationError


class TestAdaptivityConfig:
    def test_defaults_match_paper_section_3_1(self):
        config = AdaptivityConfig()
        assert config.m1_interval == 10
        assert config.window_size == 25
        assert config.thres_m == pytest.approx(0.20)
        assert config.thres_a == pytest.approx(0.20)
        assert config.assessment == ASSESSMENT_A1
        assert config.enabled

    def test_disabled_factory(self):
        config = AdaptivityConfig.disabled()
        assert not config.enabled

    def test_retrospective_property(self):
        assert AdaptivityConfig(response=RESPONSE_R1).retrospective
        assert not AdaptivityConfig(response=RESPONSE_R2).retrospective

    def test_replace_creates_modified_copy(self):
        config = AdaptivityConfig()
        other = config.replace(thres_a=0.5)
        assert other.thres_a == 0.5
        assert config.thres_a == pytest.approx(0.20)

    @pytest.mark.parametrize("kwargs", [
        {"assessment": "A3"},
        {"response": "R9"},
        {"m1_interval": -1},
        {"window_size": 2},
        {"thres_m": -0.1},
        {"thres_a": -0.1},
        {"progress_cutoff": 0.0},
        {"progress_cutoff": 1.5},
        {"hash_buckets": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptivityConfig(**kwargs)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.buffer_size == 50
        assert config.checkpoint_interval == 50
        assert config.logging_enabled

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"batch_size": -1},
        {"batch_size": 2.5},
        {"batch_size": True},
        {"buffer_size": 0},
        {"buffer_size": 50.0},
        {"checkpoint_interval": 0},
        {"checkpoint_interval": "50"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EngineConfig(**kwargs)

    def test_replace(self):
        assert EngineConfig().replace(buffer_size=10).buffer_size == 10


class TestCostModel:
    def test_replace_is_non_destructive(self):
        cost = CostModel()
        other = cost.replace(ack_work=99.0)
        assert other.ack_work == 99.0
        assert cost.ack_work != 99.0

    def test_all_costs_non_negative(self):
        cost = CostModel()
        import dataclasses
        for field in dataclasses.fields(cost):
            assert getattr(cost, field.name) >= 0, field.name
