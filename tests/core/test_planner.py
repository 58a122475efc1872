"""Tests for the consolidation planner facade."""

import pytest

from repro.core.planner import ConsolidationPlanner, split_window
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.stochastic import StochasticConsolidation
from repro.exceptions import ConfigurationError
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


@pytest.fixture
def month_traces():
    hours = 30 * 24
    return TraceSet(
        "m",
        [
            make_server_trace(
                f"vm{i}", [0.1 + 0.01 * i] * hours, [1.0] * hours
            )
            for i in range(6)
        ],
    )


class TestSplitWindow:
    def test_default_split(self, month_traces):
        history, evaluation = split_window(month_traces)
        assert history.duration_hours == 16 * 24
        assert evaluation.duration_hours == 14 * 24

    def test_custom_split(self, month_traces):
        history, evaluation = split_window(month_traces, evaluation_days=7)
        assert evaluation.duration_hours == 7 * 24

    def test_no_history_rejected(self, month_traces):
        with pytest.raises(ConfigurationError, match="history"):
            split_window(month_traces, evaluation_days=30)


class TestConsolidationPlanner:
    def test_run_produces_result(self, month_traces, small_pool):
        planner = ConsolidationPlanner(
            traces=month_traces, datacenter=small_pool
        )
        result = planner.run(SemiStaticConsolidation())
        assert result.scheme == "semi-static"
        assert result.workload == "m"
        assert result.n_hours == 14 * 24
        assert result.provisioned_servers >= 1

    def test_compare_runs_each_once(self, month_traces, small_pool):
        planner = ConsolidationPlanner(
            traces=month_traces, datacenter=small_pool
        )
        results = planner.compare(
            [SemiStaticConsolidation(), StochasticConsolidation()]
        )
        assert set(results) == {"semi-static", "stochastic"}

    def test_duplicate_names_rejected(self, month_traces, small_pool):
        planner = ConsolidationPlanner(
            traces=month_traces, datacenter=small_pool
        )
        with pytest.raises(ConfigurationError, match="unique"):
            planner.compare(
                [SemiStaticConsolidation(), SemiStaticConsolidation()]
            )

    def test_context_split_matches_settings(self, month_traces, small_pool):
        planner = ConsolidationPlanner(
            traces=month_traces, datacenter=small_pool, evaluation_days=7
        )
        assert planner.context.evaluation.duration_hours == 7 * 24
        assert planner.context.history.duration_hours == 23 * 24
