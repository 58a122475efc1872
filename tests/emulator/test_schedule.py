"""Tests for placement schedules."""

import pytest

from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import ConsolidationPlanner
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.stochastic import StochasticConsolidation
from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.schedule import PlacementSchedule, ScheduledPlacement
from repro.exceptions import EmulationError
from repro.infrastructure.datacenter import build_target_pool
from repro.placement.plan import Placement
from repro.workloads.datacenters import generate_datacenter


class TestScheduledPlacement:
    def test_duration(self):
        segment = ScheduledPlacement(
            Placement({"a": "h1"}), start_hour=0, end_hour=2
        )
        assert segment.duration_hours == 2

    def test_empty_segment_rejected(self):
        with pytest.raises(EmulationError):
            ScheduledPlacement(Placement({"a": "h1"}), 2, 2)


class TestPlacementSchedule:
    def test_static_covers_window(self):
        schedule = PlacementSchedule.static(Placement({"a": "h1"}), 336)
        assert len(schedule) == 1
        assert schedule.start_hour == 0
        assert schedule.end_hour == 336
        assert schedule.duration_hours == 336

    def test_periodic_tiles_exactly(self):
        placements = [Placement({"a": "h1"}) for _ in range(4)]
        schedule = PlacementSchedule.periodic(placements, 2.0)
        assert len(schedule) == 4
        assert schedule.end_hour == 8.0
        starts = [s.start_hour for s in schedule]
        assert starts == [0.0, 2.0, 4.0, 6.0]

    def test_gap_rejected(self):
        with pytest.raises(EmulationError, match="gap"):
            PlacementSchedule(
                segments=(
                    ScheduledPlacement(Placement({"a": "h1"}), 0, 2),
                    ScheduledPlacement(Placement({"a": "h1"}), 3, 4),
                )
            )

    def test_empty_schedule_rejected(self):
        with pytest.raises(EmulationError):
            PlacementSchedule(segments=())

    def test_total_migrations(self):
        placements = [
            Placement({"a": "h1", "b": "h1"}),
            Placement({"a": "h2", "b": "h1"}),  # a moves
            Placement({"a": "h2", "b": "h2"}),  # b moves
        ]
        schedule = PlacementSchedule.periodic(placements, 2.0)
        assert schedule.total_migrations() == 2

    def test_static_has_no_migrations(self):
        schedule = PlacementSchedule.static(Placement({"a": "h1"}), 10)
        assert schedule.total_migrations() == 0


class TestHostsUsed:
    """``hosts_used`` is the host set the emulator provisions."""

    @pytest.fixture(scope="class")
    def planner(self):
        traces = generate_datacenter(
            "natural-resources", scale=0.1, days=6, seed=11
        )
        pool = build_target_pool("pool", host_count=len(traces) // 2)
        return ConsolidationPlanner(
            traces=traces, datacenter=pool, evaluation_days=2
        )

    @pytest.mark.parametrize(
        "algorithm",
        [
            SemiStaticConsolidation(),
            StochasticConsolidation(),
            DynamicConsolidation(),
        ],
        ids=["semi-static", "stochastic", "dynamic"],
    )
    def test_planned_schedules(self, planner, algorithm):
        result = planner.run(algorithm)
        assert result.provisioned_servers > 0
        assert result.schedule.hosts_used == set(result.host_ids)

    @pytest.mark.parametrize(
        "pattern", [(1, 0, 1), (0, 0, 0)], ids=["empty-middle", "all-empty"]
    )
    def test_segments_without_vms(self, planner, pattern):
        evaluation = planner.context.evaluation
        vm_ids = evaluation.vm_ids
        hosts = [h.host_id for h in planner.datacenter]
        placements = [
            Placement({vm: hosts[k % 3] for vm in vm_ids[: k + 1]})
            if placed
            else Placement.empty()
            for k, placed in enumerate(pattern)
        ]
        schedule = PlacementSchedule.periodic(placements, 2.0)
        emulator = ConsolidationEmulator(
            trace_set=evaluation, datacenter=planner.datacenter
        )
        result = emulator.evaluate(schedule)
        assert schedule.hosts_used == set(result.host_ids)
        assert len(schedule.hosts_used) == sum(pattern)
