"""Tests for the utilization-bound sensitivity analysis (Figs. 13-16)."""

import pytest

from repro.core.planner import ConsolidationPlanner
from repro.emulator.emulator import ConsolidationEmulator
from repro.experiments.sensitivity import run_sensitivity, run_sensitivity_all
from repro.experiments.settings import (
    UTILIZATION_BOUND_SWEEP,
    ExperimentSettings,
)


@pytest.fixture(scope="module")
def banking_sweep():
    return run_sensitivity(
        "banking",
        ExperimentSettings(scale=0.08),
        bounds=(0.7, 0.8, 0.9, 1.0),
    )


class TestSensitivity:
    def test_dynamic_monotone_in_bound(self, banking_sweep):
        servers = [
            banking_sweep.dynamic_servers_by_bound[b]
            for b in sorted(banking_sweep.dynamic_servers_by_bound)
        ]
        assert all(a >= b for a, b in zip(servers, servers[1:]))

    def test_reference_lines_flat(self, banking_sweep):
        rows = banking_sweep.rows()
        assert len({r["semi_static_servers"] for r in rows}) == 1
        assert len({r["stochastic_servers"] for r in rows}) == 1

    def test_crossover_detection(self, banking_sweep):
        crossover = banking_sweep.crossover_bound()
        if crossover is not None:
            assert (
                banking_sweep.dynamic_servers_by_bound[crossover]
                <= banking_sweep.stochastic_servers
            )
            # No smaller bound may already cross.
            for bound, servers in banking_sweep.dynamic_servers_by_bound.items():
                if bound < crossover:
                    assert servers > banking_sweep.stochastic_servers

    def test_improvement_at_full_bound(self, banking_sweep):
        improvement = banking_sweep.improvement_at_full_bound()
        full = banking_sweep.dynamic_servers_by_bound[1.0]
        expected = 1.0 - full / banking_sweep.stochastic_servers
        assert improvement == pytest.approx(expected)

    def test_rows_sorted_by_bound(self, banking_sweep):
        bounds = [r["utilization_bound"] for r in banking_sweep.rows()]
        assert bounds == sorted(bounds)


class TestSensitivityGrid:
    def test_run_sensitivity_all_keys_results_by_datacenter(self):
        grid = run_sensitivity_all(
            ExperimentSettings(scale=0.08),
            bounds=(0.8, 1.0),
            datacenters=["banking"],
        )
        assert set(grid) == {"banking"}
        assert set(grid["banking"].dynamic_servers_by_bound) == {0.8, 1.0}


#: ``provisioned_servers`` of emulated replays over the full bound sweep:
#: (datacenter, scale) -> (semi-static, stochastic, dynamic per bound).
EMULATED_COUNTS = {
    ("banking", 0.2): (9, 7, (8, 7, 7, 6, 6, 6, 5)),
    ("natural-resources", 0.15): (17, 15, (19, 18, 17, 16, 15, 14, 13)),
}


class TestCountsWithoutReplay:
    """The sweep counts each plan's hosts; it builds no planner facade
    and no emulator, and returns the counts an emulated replay gives."""

    @pytest.mark.parametrize("key, scale", sorted(EMULATED_COUNTS))
    def test_rows_match_emulated_counts(self, monkeypatch, key, scale):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not replay a schedule")

        monkeypatch.setattr(ConsolidationEmulator, "__post_init__", refuse)
        monkeypatch.setattr(ConsolidationEmulator, "evaluate", refuse)
        monkeypatch.setattr(ConsolidationPlanner, "__post_init__", refuse)
        result = run_sensitivity(key, ExperimentSettings(scale=scale))
        semi, stochastic, dynamic = EMULATED_COUNTS[key, scale]
        assert result.semi_static_servers == semi
        assert result.stochastic_servers == stochastic
        assert result.dynamic_servers_by_bound == dict(
            zip(UTILIZATION_BOUND_SWEEP, dynamic)
        )
