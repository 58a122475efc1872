"""Tests for the consolidation emulator."""

import numpy as np
import pytest

from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import EmulationError
from repro.placement.plan import Placement
from repro.sizing.estimator import VirtualizationOverhead
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


@pytest.fixture
def two_vm_set():
    return TraceSet(
        "two",
        [
            make_server_trace(
                "a", [0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 2.0, 2.0], cpu_rpe2=1000
            ),
            make_server_trace(
                "b", [0.4, 0.3, 0.2, 0.1], [2.0, 2.0, 1.0, 1.0], cpu_rpe2=1000
            ),
        ],
    )


@pytest.fixture
def no_overhead():
    return VirtualizationOverhead(
        cpu_overhead_frac=0.0, memory_overhead_gb=0.0, dedup_savings_frac=0.0
    )


class TestDemandAccounting:
    def test_demand_sums_colocated_vms(self, two_vm_set, tiny_pool, no_overhead):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool, overhead=no_overhead
        )
        schedule = PlacementSchedule.static(
            Placement({"a": "tiny-h0", "b": "tiny-h0"}), 4
        )
        result = emulator.evaluate(schedule, scheme="test")
        assert result.host_ids == ("tiny-h0",)
        # Both VMs on one host: demand = sum of the two traces.
        assert np.allclose(result.cpu_demand[0], [500, 500, 500, 500])
        assert np.allclose(result.memory_demand[0], [3.0, 3.0, 3.0, 3.0])

    def test_overhead_applied(self, two_vm_set, tiny_pool):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set,
            datacenter=tiny_pool,
            overhead=VirtualizationOverhead(
                cpu_overhead_frac=0.1, memory_overhead_gb=0.5
            ),
        )
        schedule = PlacementSchedule.static(
            Placement({"a": "tiny-h0", "b": "tiny-h0"}), 4
        )
        result = emulator.evaluate(schedule)
        assert np.allclose(result.cpu_demand[0], np.full(4, 550.0))
        assert np.allclose(result.memory_demand[0], np.full(4, 4.0))

    def test_dedup_reduces_memory(self, two_vm_set, tiny_pool):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set,
            datacenter=tiny_pool,
            overhead=VirtualizationOverhead(
                cpu_overhead_frac=0.0,
                memory_overhead_gb=0.0,
                dedup_savings_frac=0.5,
            ),
        )
        schedule = PlacementSchedule.static(
            Placement({"a": "tiny-h0", "b": "tiny-h0"}), 4
        )
        result = emulator.evaluate(schedule)
        assert np.allclose(result.memory_demand[0], np.full(4, 1.5))

    def test_schedule_switches_assignments(
        self, two_vm_set, tiny_pool, no_overhead
    ):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool, overhead=no_overhead
        )
        schedule = PlacementSchedule.periodic(
            [
                Placement({"a": "tiny-h0", "b": "tiny-h0"}),
                Placement({"a": "tiny-h0", "b": "tiny-h1"}),
            ],
            2.0,
        )
        result = emulator.evaluate(schedule)
        # First two hours: everything on h0; last two: b on h1.
        assert np.allclose(result.cpu_demand[0], [500, 500, 300, 400])
        assert np.allclose(result.cpu_demand[1], [0, 0, 200, 100])
        assert list(result.active[1]) == [False, False, True, True]


class TestPowerAccounting:
    def test_inactive_hosts_draw_nothing(
        self, two_vm_set, tiny_pool, no_overhead
    ):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool, overhead=no_overhead
        )
        schedule = PlacementSchedule.periodic(
            [
                Placement({"a": "tiny-h0", "b": "tiny-h1"}),
                Placement({"a": "tiny-h0", "b": "tiny-h0"}),
            ],
            2.0,
        )
        result = emulator.evaluate(schedule)
        assert (result.power_watts[1, 2:] == 0).all()
        assert (result.power_watts[:, :2] > 0).all()

    def test_energy_positive(self, two_vm_set, tiny_pool, no_overhead):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool, overhead=no_overhead
        )
        schedule = PlacementSchedule.static(
            Placement({"a": "tiny-h0", "b": "tiny-h0"}), 4
        )
        result = emulator.evaluate(schedule)
        assert result.energy_kwh > 0


class TestValidation:
    def test_unknown_vm_rejected(self, two_vm_set, tiny_pool):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool
        )
        schedule = PlacementSchedule.static(Placement({"zz": "tiny-h0"}), 4)
        with pytest.raises(EmulationError, match="unknown VM"):
            emulator.evaluate(schedule)

    def test_unknown_host_rejected(self, two_vm_set, tiny_pool):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool
        )
        schedule = PlacementSchedule.static(Placement({"a": "ghost"}), 4)
        with pytest.raises(EmulationError, match="unknown host"):
            emulator.evaluate(schedule)

    @pytest.mark.parametrize(
        "rows, hosts, match",
        [
            ([0, 2], [0, 0], "unknown VM 'zz'"),
            ([0, 1], [0, 1], "unknown host 'ghost'"),
        ],
    )
    def test_unknown_ids_of_an_index_built_placement_rejected(
        self, two_vm_set, tiny_pool, rows, hosts, match
    ):
        # Tuples naming ids the emulator does not know; only the
        # entries that use them are errors.
        placement = Placement.from_indices(
            ("a", "b", "zz"), ("tiny-h0", "ghost"), rows, hosts
        )
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool
        )
        with pytest.raises(EmulationError, match=match):
            emulator.evaluate(PlacementSchedule.static(placement, 4))

    def test_unused_unknown_ids_in_the_tuples_are_fine(
        self, two_vm_set, tiny_pool
    ):
        placement = Placement.from_indices(
            ("a", "b", "zz"), ("tiny-h0", "ghost"), [1, 0], [0, 0]
        )
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool
        )
        result = emulator.evaluate(PlacementSchedule.static(placement, 4))
        assert result.host_ids == ("tiny-h0",)

    def test_schedule_longer_than_traces_rejected(
        self, two_vm_set, tiny_pool
    ):
        emulator = ConsolidationEmulator(
            trace_set=two_vm_set, datacenter=tiny_pool
        )
        schedule = PlacementSchedule.static(Placement({"a": "tiny-h0"}), 99)
        with pytest.raises(EmulationError, match="cover"):
            emulator.evaluate(schedule)

    def test_non_hourly_traces_rejected(self, tiny_pool):
        ts = TraceSet(
            "coarse",
            [make_server_trace("a", [0.1, 0.2], [1.0, 1.0], interval_hours=2.0)],
        )
        with pytest.raises(EmulationError, match="hourly"):
            ConsolidationEmulator(trace_set=ts, datacenter=tiny_pool)
