"""Tests for static consolidation."""

import pytest

from repro.core.base import PlanningContext
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.static import StaticConsolidation
from repro.exceptions import ConfigurationError
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


@pytest.fixture
def context(small_pool):
    history, evaluation = [], []
    for i in range(30):
        # Sized near half an HS23 blade so margins actually matter.
        history.append(
            make_server_trace(
                f"vm{i}", [0.5] * 48, [10.0] * 48, cpu_rpe2=4000.0,
                configured_gb=32.0,
            )
        )
        evaluation.append(
            make_server_trace(
                f"vm{i}", [0.5] * 48, [10.0] * 48, cpu_rpe2=4000.0,
                configured_gb=32.0,
            )
        )
    return PlanningContext(
        history=TraceSet("h", history),
        evaluation=TraceSet("e", evaluation),
        datacenter=small_pool,
    )


class TestStaticConsolidation:
    def test_margin_increases_server_count(self, context):
        lean = StaticConsolidation(provisioning_margin=0.0).plan(context)
        padded = StaticConsolidation(provisioning_margin=0.5).plan(context)
        assert (
            padded.segments[0].placement.active_host_count
            >= lean.segments[0].placement.active_host_count
        )

    def test_zero_margin_matches_semistatic(self, context):
        static = StaticConsolidation(provisioning_margin=0.0).plan(context)
        semi = SemiStaticConsolidation().plan(context)
        assert (
            static.segments[0].placement.active_host_count
            == semi.segments[0].placement.active_host_count
        )

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticConsolidation(provisioning_margin=-0.1)

    def test_single_segment(self, context):
        schedule = StaticConsolidation().plan(context)
        assert len(schedule) == 1
        assert schedule.total_migrations() == 0
