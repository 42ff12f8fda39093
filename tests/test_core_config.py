"""Tests for the algorithm configuration."""

import pytest

from repro.core.config import (
    BlitzCoinConfig,
    ConfigError,
    ExchangeMode,
    plain_four_way,
    plain_one_way,
    preferred_embodiment,
)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = BlitzCoinConfig()
        assert cfg.mode is ExchangeMode.ONE_WAY
        assert cfg.wrap_around
        assert cfg.random_pairing_every == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"refresh_count": 0},
            {"backoff_factor": 0.5},
            {"speedup_step": -1},
            {"min_interval": 0},
            {"min_interval": 100, "max_interval": 50},
            {"random_pairing_every": -1},
            {"convergence_threshold": 0.0},
            {"thermal_caps": {3: -1}},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BlitzCoinConfig(**kwargs)


class TestComputeCycles:
    def test_one_way_is_single_cycle(self):
        assert plain_one_way().compute_cycles == 1

    def test_four_way_needs_pipelined_arithmetic(self):
        assert plain_four_way().compute_cycles > plain_one_way().compute_cycles


class TestCaps:
    def test_cap_lookup(self):
        cfg = BlitzCoinConfig(thermal_caps={2: 10})
        assert cfg.cap_for(2) == 10
        assert cfg.cap_for(3) is None

    def test_no_caps_configured(self):
        assert BlitzCoinConfig().cap_for(0) is None


class TestPresets:
    def test_plain_variants_disable_optimizations(self):
        for cfg in (plain_one_way(), plain_four_way()):
            assert not cfg.dynamic_timing
            assert not cfg.wrap_around
            assert cfg.random_pairing_every == 0

    def test_preferred_embodiment_is_optimized_one_way(self):
        cfg = preferred_embodiment()
        assert cfg.mode is ExchangeMode.ONE_WAY
        assert cfg.dynamic_timing
        assert cfg.wrap_around
        assert cfg.random_pairing_every == 16
