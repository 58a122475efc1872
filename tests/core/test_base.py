"""Tests for the planning context and config."""

import pytest

from repro.core.base import PlanningConfig, PlanningContext
from repro.exceptions import ConfigurationError
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _ts(name, vm_ids, hours=48):
    return TraceSet(
        name,
        [
            make_server_trace(vm_id, [0.1] * hours, [1.0] * hours)
            for vm_id in vm_ids
        ],
    )


class TestPlanningConfig:
    def test_defaults_match_table3(self):
        config = PlanningConfig()
        assert config.utilization_bound == 0.8
        assert config.interval_hours == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlanningConfig(utilization_bound=0.0)
        with pytest.raises(ConfigurationError):
            PlanningConfig(utilization_bound=1.2)
        with pytest.raises(ConfigurationError):
            PlanningConfig(interval_hours=0)


class TestPlanningContext:
    def test_interval_accounting(self, small_pool):
        context = PlanningContext(
            history=_ts("h", ["a", "b"]),
            evaluation=_ts("e", ["a", "b"]),
            datacenter=small_pool,
        )
        # 48 hours at 2 h intervals.
        assert context.n_intervals == 24
        assert context.points_per_interval == 2

    def test_vm_mismatch_rejected(self, small_pool):
        with pytest.raises(ConfigurationError, match="same VMs"):
            PlanningContext(
                history=_ts("h", ["a", "b"]),
                evaluation=_ts("e", ["a", "c"]),
                datacenter=small_pool,
            )

    def test_unaligned_interval_rejected(self, small_pool):
        with pytest.raises(ConfigurationError):
            PlanningContext(
                history=_ts("h", ["a"]),
                evaluation=_ts("e", ["a"]),
                datacenter=small_pool,
                config=PlanningConfig(interval_hours=1.5),
            )

    def test_partial_interval_rejected(self, small_pool):
        with pytest.raises(ConfigurationError, match="whole number"):
            PlanningContext(
                history=_ts("h", ["a"], hours=48),
                evaluation=_ts("e", ["a"], hours=47),
                datacenter=small_pool,
                config=PlanningConfig(interval_hours=2.0),
            )
