"""Tests for the consolidation-interval study (paper §7)."""

import pytest

from repro.emulator.emulator import ConsolidationEmulator
from repro.experiments.intervals import IntervalPoint, run_interval_study
from repro.experiments.settings import ExperimentSettings


@pytest.fixture(scope="module")
def study():
    return run_interval_study(
        "banking",
        ExperimentSettings(scale=0.06),
        intervals_hours=(1.0, 2.0, 4.0, 8.0),
    )


class TestIntervalStudy:
    def test_one_point_per_interval(self, study):
        assert [p.interval_hours for p in study] == [1.0, 2.0, 4.0, 8.0]

    def test_shorter_intervals_do_not_need_more_servers(self, study):
        servers = [p.provisioned_servers for p in study]
        # Finer sizing can only help the footprint (paper §7's claim).
        assert servers[0] <= servers[-1]

    def test_shorter_intervals_save_energy(self, study):
        assert study[0].energy_kwh <= study[-1].energy_kwh

    def test_shorter_intervals_cost_migrations(self, study):
        migrations = [p.total_migrations for p in study]
        assert migrations[0] >= migrations[-1]

    def test_active_fraction_rises_with_interval(self, study):
        # Coarser intervals must provision for longer windows, keeping
        # more hosts on.
        assert (
            study[0].mean_active_fraction
            <= study[-1].mean_active_fraction + 0.05
        )

    def test_points_are_pinned(self, study):
        """The points of the sweep that built one planner per interval."""
        assert study == (
            IntervalPoint(1.0, 2, 98.64555544098356, 985, 0.0,
                          0.6636904761904762),
            IntervalPoint(2.0, 3, 111.76555544098358, 885, 0.0,
                          0.5238095238095238),
            IntervalPoint(4.0, 3, 134.16555544098355, 851, 0.0,
                          0.6626984126984128),
            IntervalPoint(8.0, 4, 165.52555544098357, 438, 0.0,
                          0.6428571428571429),
        )


def test_sweep_builds_one_emulator(monkeypatch):
    """The split and the emulator serve every interval of the sweep."""
    built = []
    post_init = ConsolidationEmulator.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ConsolidationEmulator, "__post_init__", counted)
    points = run_interval_study("banking", ExperimentSettings(scale=0.05))
    assert len(points) == 4
    assert len(built) == 1
