"""Property-based tests for the emulator (hypothesis).

The load-bearing invariant: replay conserves demand.  However VMs are
shuffled across hosts and intervals, the summed demand equals the summed
traces (with overhead), and every active flag matches having >= 1 VM.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.schedule import PlacementSchedule
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.placement.plan import Placement
from repro.sizing.estimator import VirtualizationOverhead
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace

N_VMS = 5
N_HOSTS = 4
N_HOURS = 8


def _pool():
    dc = Datacenter(name="prop")
    for index in range(N_HOSTS):
        dc.add_host(
            PhysicalServer(
                host_id=f"h{index}",
                spec=ServerSpec(cpu_rpe2=1000.0, memory_gb=64.0),
            )
        )
    return dc


@st.composite
def random_schedules(draw):
    """Random traces plus a random 2-segment schedule over them."""
    cpu = draw(
        st.lists(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=N_HOURS,
                max_size=N_HOURS,
            ),
            min_size=N_VMS,
            max_size=N_VMS,
        )
    )
    assignment_a = {
        f"vm{i}": f"h{draw(st.integers(0, N_HOSTS - 1))}"
        for i in range(N_VMS)
    }
    assignment_b = {
        f"vm{i}": f"h{draw(st.integers(0, N_HOSTS - 1))}"
        for i in range(N_VMS)
    }
    return cpu, assignment_a, assignment_b


@given(data=random_schedules())
@settings(max_examples=50, deadline=None)
def test_demand_conserved_under_any_schedule(data):
    cpu_rows, assignment_a, assignment_b = data
    traces = TraceSet(
        "prop",
        [
            make_server_trace(
                f"vm{index}",
                np.array(row),
                np.full(N_HOURS, 1.0),
                cpu_rpe2=1000.0,
            )
            for index, row in enumerate(cpu_rows)
        ],
    )
    emulator = ConsolidationEmulator(
        trace_set=traces,
        datacenter=_pool(),
        overhead=VirtualizationOverhead(
            cpu_overhead_frac=0.0, memory_overhead_gb=0.0
        ),
    )
    schedule = PlacementSchedule.periodic(
        [Placement(assignment_a), Placement(assignment_b)], N_HOURS / 2
    )
    result = emulator.evaluate(schedule)
    assert result.cpu_demand.sum() == pytest.approx(
        traces.cpu_rpe2_matrix().sum(), rel=1e-12
    )
    assert result.memory_demand.sum() == pytest.approx(
        traces.memory_gb_matrix().sum(), rel=1e-12
    )


@given(data=random_schedules())
@settings(max_examples=50, deadline=None)
def test_activity_matches_assignment(data):
    cpu_rows, assignment_a, assignment_b = data
    traces = TraceSet(
        "prop",
        [
            make_server_trace(
                f"vm{index}",
                np.array(row),
                np.full(N_HOURS, 1.0),
            )
            for index, row in enumerate(cpu_rows)
        ],
    )
    emulator = ConsolidationEmulator(trace_set=traces, datacenter=_pool())
    schedule = PlacementSchedule.periodic(
        [Placement(assignment_a), Placement(assignment_b)], N_HOURS / 2
    )
    result = emulator.evaluate(schedule)
    host_row = {h: i for i, h in enumerate(result.host_ids)}
    half = N_HOURS // 2
    for assignment, hours in (
        (assignment_a, range(0, half)),
        (assignment_b, range(half, N_HOURS)),
    ):
        used = set(assignment.values())
        for host_id, row in host_row.items():
            for hour in hours:
                assert result.active[row, hour] == (host_id in used)
    # Power flows only on active host-hours.
    assert (result.power_watts[~result.active] == 0).all()
    assert (result.power_watts[result.active] > 0).all()
