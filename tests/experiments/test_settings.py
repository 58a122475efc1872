"""Tests for experiment settings (Table 3)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.settings import (
    DEFAULT_SCALE_ENV,
    UTILIZATION_BOUND_SWEEP,
    ExperimentSettings,
    default_scale,
)
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


class TestTable3Defaults:
    def test_baseline_values(self):
        settings = ExperimentSettings(scale=1.0)
        assert settings.evaluation_days == 14
        assert settings.interval_hours == 2.0
        assert settings.reservation == 0.20
        assert settings.utilization_bound == 0.80
        assert settings.n_intervals == 168

    def test_sweep_covers_paper_range(self):
        assert UTILIZATION_BOUND_SWEEP[0] == 0.70
        assert UTILIZATION_BOUND_SWEEP[-1] == 1.00

    def test_with_reservation(self):
        settings = ExperimentSettings(scale=1.0).with_reservation(0.30)
        assert settings.utilization_bound == pytest.approx(0.70)

    def test_planning_config_override(self):
        settings = ExperimentSettings(scale=1.0)
        assert settings.planning_config().utilization_bound == 0.8
        assert settings.planning_config(0.9).utilization_bound == 0.9


class TestScale:
    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SCALE_ENV, "0.5")
        assert default_scale() == 0.5

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_SCALE_ENV, raising=False)
        assert default_scale() == 0.25

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_SCALE_ENV, "lots")
        with pytest.raises(ConfigurationError):
            default_scale()
        monkeypatch.setenv(DEFAULT_SCALE_ENV, "-1")
        with pytest.raises(ConfigurationError):
            default_scale()


class TestPool:
    def test_build_pool_scales_with_traces(self):
        settings = ExperimentSettings(scale=1.0)
        ts = TraceSet(
            "t",
            [make_server_trace(f"v{i}", [0.1] * 4, [1.0] * 4) for i in range(40)],
        )
        pool = settings.build_pool(ts)
        assert len(pool) == 20

    def test_minimum_pool(self):
        settings = ExperimentSettings(scale=1.0)
        ts = TraceSet("t", [make_server_trace("v", [0.1] * 4, [1.0] * 4)])
        assert len(settings.build_pool(ts)) == 12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(scale=1.0, reservation=1.0)
        with pytest.raises(ConfigurationError):
            ExperimentSettings(scale=0.0)
