"""Metamorphic relations for the consolidation emulator.

Three relations that must hold whatever the placement looks like:

* **Conservation** — moving VMs between hosts never creates or destroys
  demand: per-hour totals match the overhead-adjusted traces exactly,
  for any two placements of the same VMs.
* **Monotonicity** — power is non-decreasing in CPU utilization: scaling
  every trace down can never raise any host-hour's power draw.
* **Empty baseline** — the empty schedule provisions nothing and costs
  nothing: zero hosts, zero energy, zero contention, zero migrations.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.schedule import PlacementSchedule
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.placement.plan import Placement
from repro.sizing.estimator import VirtualizationOverhead
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace

N_VMS = 6
N_HOSTS = 4
N_HOURS = 12

OVERHEAD = VirtualizationOverhead(
    cpu_overhead_frac=0.1, memory_overhead_gb=0.25, dedup_savings_frac=0.3
)


def _pool() -> Datacenter:
    dc = Datacenter(name="meta")
    for index in range(N_HOSTS):
        dc.add_host(
            PhysicalServer(
                host_id=f"h{index}",
                spec=ServerSpec(cpu_rpe2=1500.0, memory_gb=48.0),
            )
        )
    return dc


def _traces(scale: float = 1.0) -> TraceSet:
    """Deterministic bursty traces, optionally scaled down."""
    rng = random.Random(42)
    traces = []
    for index in range(N_VMS):
        cpu = np.array([rng.uniform(0.05, 0.9) for _ in range(N_HOURS)])
        memory = np.array([rng.uniform(0.5, 4.0) for _ in range(N_HOURS)])
        traces.append(
            make_server_trace(
                f"vm{index}",
                cpu * scale,
                memory,
                cpu_rpe2=1000.0,
                configured_gb=8.0,
            )
        )
    return TraceSet("meta", traces)


def _random_assignment(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        f"vm{i}": f"h{rng.randrange(N_HOSTS)}" for i in range(N_VMS)
    }


@pytest.mark.parametrize("seed", range(10))
def test_demand_conserved_across_placements(seed: int) -> None:
    """Any two placements of the same VMs land identical hourly totals."""
    traces = _traces()
    emulator = ConsolidationEmulator(
        trace_set=traces, datacenter=_pool(), overhead=OVERHEAD
    )
    schedule_a = PlacementSchedule.static(
        Placement(_random_assignment(seed)), N_HOURS
    )
    schedule_b = PlacementSchedule.static(
        Placement(_random_assignment(seed + 1000)), N_HOURS
    )
    result_a = emulator.evaluate(schedule_a)
    result_b = emulator.evaluate(schedule_b)

    np.testing.assert_allclose(
        result_a.cpu_demand.sum(axis=0),
        result_b.cpu_demand.sum(axis=0),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        result_a.memory_demand.sum(axis=0),
        result_b.memory_demand.sum(axis=0),
        rtol=1e-12,
    )
    # And the totals equal the overhead-adjusted traces analytically.
    expected_cpu = traces.cpu_rpe2_matrix().sum(axis=0) * (
        1.0 + OVERHEAD.cpu_overhead_frac
    )
    expected_memory = (
        traces.memory_gb_matrix().sum(axis=0)
        * (1.0 - OVERHEAD.dedup_savings_frac)
        + N_VMS * OVERHEAD.memory_overhead_gb
    )
    np.testing.assert_allclose(
        result_a.cpu_demand.sum(axis=0), expected_cpu, rtol=1e-12
    )
    np.testing.assert_allclose(
        result_a.memory_demand.sum(axis=0), expected_memory, rtol=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scale", [0.25, 0.5, 0.75])
def test_power_monotone_in_utilization(seed: int, scale: float) -> None:
    """Scaling every CPU trace down never raises any host-hour's power."""
    pool = _pool()
    assignment = _random_assignment(seed)
    schedule = PlacementSchedule.static(Placement(assignment), N_HOURS)

    full = ConsolidationEmulator(
        trace_set=_traces(1.0), datacenter=pool
    ).evaluate(schedule)
    scaled = ConsolidationEmulator(
        trace_set=_traces(scale), datacenter=pool
    ).evaluate(schedule)

    # Same placement → same hosts and activity structure.
    assert scaled.host_ids == full.host_ids
    np.testing.assert_array_equal(scaled.active, full.active)
    assert (scaled.power_watts <= full.power_watts + 1e-9).all()
    assert scaled.energy_kwh <= full.energy_kwh + 1e-12


def test_empty_schedule_costs_nothing() -> None:
    """The empty schedule: zero hosts, zero cost, zero contention."""
    emulator = ConsolidationEmulator(trace_set=_traces(), datacenter=_pool())
    schedule = PlacementSchedule.static(Placement.empty(), N_HOURS)
    result = emulator.evaluate(schedule, scheme="empty")

    assert result.provisioned_servers == 0
    assert result.energy_kwh == pytest.approx(0.0)
    assert result.mean_power_watts == pytest.approx(0.0)
    assert result.contention_time_fraction() == pytest.approx(0.0)
    assert result.cpu_contention_cdf() is None
    assert result.schedule.total_migrations() == 0
    series = result.active_fraction_series()
    assert series.shape == (N_HOURS,)
    assert (series == 0.0).all()
