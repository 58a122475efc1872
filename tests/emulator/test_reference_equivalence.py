"""Vectorized emulator == retained loop-based reference, bit for bit.

:class:`ConsolidationEmulator` (columnar scatter-add) must return arrays
*exactly* equal — same floats, not approximately — to
:class:`ReferenceConsolidationEmulator` (the scalar loop kept in
``tests/reference/emulator.py``), for randomized trace sets and
schedules covering both scatter strategies (narrow bincount segments
and wide per-row-add segments), shared and distinct power models,
partial placements, and empty segments.  Driven by a seeded
stdlib-:mod:`random` sweep plus hypothesis cases when the dependency is
present.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest

from repro.emulator import ConsolidationEmulator, PlacementSchedule
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.metrics.catalog import ServerModel
from repro.placement.plan import Placement
from repro.sizing.estimator import VirtualizationOverhead
from repro.workloads.trace import ResourceTrace, ServerTrace, TraceSet
from tests.reference.emulator import ReferenceConsolidationEmulator

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

_COMPARED = (
    "cpu_demand",
    "memory_demand",
    "active",
    "power_watts",
    "cpu_capacity",
    "memory_capacity",
)


def _build_instance(
    rng: random.Random, *, n_vms: int, n_hosts: int, n_hours: int
) -> Tuple[TraceSet, Datacenter]:
    np_rng = np.random.default_rng(rng.randint(0, 2**31))
    spec = ServerSpec(cpu_rpe2=1500.0, memory_gb=8.0)
    traces = TraceSet(
        "equiv",
        [
            ServerTrace(
                vm=VirtualMachine(vm_id=f"vm{i:03d}", memory_config_gb=8.0),
                source_spec=spec,
                cpu_util=ResourceTrace(
                    values=np_rng.uniform(0.0, 1.0, size=n_hours),
                    unit="fraction",
                ),
                memory_gb=ResourceTrace(
                    values=np_rng.uniform(0.1, 8.0, size=n_hours), unit="GB"
                ),
            )
            for i in range(n_vms)
        ],
    )
    datacenter = Datacenter(name="equiv-dc")
    for i in range(n_hosts):
        # A mix of hosts with catalog power models and hosts on the
        # default curve, so the grouped power broadcast sees both.
        model = None
        if i % 3 == 0:
            model = ServerModel(
                name=f"m{i % 2}",
                cpu_rpe2=40_000.0,
                memory_gb=128.0,
                idle_watts=120.0 + 40.0 * (i % 2),
                peak_watts=380.0 + 20.0 * (i % 2),
            )
        datacenter.add_host(
            PhysicalServer(
                host_id=f"h{i:03d}",
                spec=ServerSpec(cpu_rpe2=40_000.0, memory_gb=128.0),
                model=model,
            )
        )
    return traces, datacenter


def _random_schedule(
    rng: random.Random,
    vm_ids: Tuple[str, ...],
    host_ids: List[str],
    n_hours: int,
    interval_hours: int,
) -> PlacementSchedule:
    """One placement per interval; some VMs unplaced, some hosts idle."""
    placements = []
    for segment in range(n_hours // interval_hours):
        assignment = {}
        for vm_id in vm_ids:
            if rng.random() < 0.85:
                assignment[vm_id] = rng.choice(host_ids)
        placements.append(Placement(assignment=assignment))
    return PlacementSchedule.periodic(placements, float(interval_hours))


def assert_emulators_agree(
    traces: TraceSet,
    datacenter: Datacenter,
    schedule: PlacementSchedule,
    overhead: VirtualizationOverhead = VirtualizationOverhead(),
) -> None:
    vectorized = ConsolidationEmulator(
        traces, datacenter, overhead=overhead
    ).evaluate(schedule, scheme="equiv")
    reference = ReferenceConsolidationEmulator(
        traces, datacenter, overhead=overhead
    ).evaluate(schedule, scheme="equiv")
    assert vectorized.host_ids == reference.host_ids
    for name in _COMPARED:
        got = getattr(vectorized, name)
        expected = getattr(reference, name)
        assert np.array_equal(got, expected), (
            f"{name} differs from the scalar reference "
            f"(max abs delta {np.max(np.abs(got - expected))})"
        )


@pytest.mark.parametrize("interval_hours", [4, 24])
def test_narrow_segments_agree(interval_hours: int) -> None:
    """Dynamic-style schedules take the bincount scatter path."""
    rng = random.Random(interval_hours)
    for _ in range(8):
        n_hours = interval_hours * rng.randint(2, 6)
        traces, datacenter = _build_instance(
            rng,
            n_vms=rng.randint(1, 30),
            n_hosts=rng.randint(2, 10),
            n_hours=n_hours,
        )
        schedule = _random_schedule(
            rng,
            traces.vm_ids,
            [h.host_id for h in datacenter],
            n_hours,
            interval_hours,
        )
        assert_emulators_agree(traces, datacenter, schedule)


def test_wide_single_segment_agrees() -> None:
    """A 400-hour static schedule exercises the per-row-add path."""
    rng = random.Random(400)
    for _ in range(4):
        traces, datacenter = _build_instance(
            rng, n_vms=rng.randint(5, 25), n_hosts=5, n_hours=400
        )
        hosts = [h.host_id for h in datacenter]
        assignment = {
            vm_id: rng.choice(hosts) for vm_id in traces.vm_ids
        }
        schedule = PlacementSchedule.static(
            Placement(assignment=assignment), 400.0
        )
        assert_emulators_agree(traces, datacenter, schedule)


def test_overhead_and_dedup_agree() -> None:
    """Adjusted demand matrices match the per-trace adjustment exactly."""
    rng = random.Random(17)
    traces, datacenter = _build_instance(
        rng, n_vms=12, n_hosts=4, n_hours=48
    )
    hosts = [h.host_id for h in datacenter]
    schedule = _random_schedule(rng, traces.vm_ids, hosts, 48, 12)
    overhead = VirtualizationOverhead(
        cpu_overhead_frac=0.1,
        memory_overhead_gb=0.35,
        dedup_savings_frac=0.25,
    )
    assert_emulators_agree(traces, datacenter, schedule, overhead)


def test_empty_segment_agrees() -> None:
    """A segment with no placed VMs lands zero demand in both."""
    rng = random.Random(5)
    traces, datacenter = _build_instance(rng, n_vms=6, n_hosts=3, n_hours=24)
    hosts = [h.host_id for h in datacenter]
    busy = Placement(
        assignment={vm_id: hosts[0] for vm_id in traces.vm_ids}
    )
    schedule = PlacementSchedule.periodic(
        [busy, Placement.empty(), busy], 8.0
    )
    assert_emulators_agree(traces, datacenter, schedule)


def test_stacked_vms_accumulate_in_assignment_order() -> None:
    """Many VMs on one host: the scatter's left-fold accumulation order
    must equal the scalar loop's, or low-order float bits drift."""
    rng = random.Random(99)
    traces, datacenter = _build_instance(
        rng, n_vms=40, n_hosts=2, n_hours=36
    )
    hosts = [h.host_id for h in datacenter]
    assignment = {vm_id: hosts[0] for vm_id in traces.vm_ids}
    schedule = PlacementSchedule.periodic(
        [Placement(assignment=assignment)] * 3, 12.0
    )
    assert_emulators_agree(traces, datacenter, schedule)


if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(0, 10**6),
        n_vms=st.integers(1, 25),
        n_hosts=st.integers(1, 8),
        n_segments=st.integers(1, 5),
        interval_hours=st.sampled_from([2, 6, 12, 24]),
    )
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_emulators_agree(
        seed, n_vms, n_hosts, n_segments, interval_hours
    ):
        rng = random.Random(seed)
        n_hours = n_segments * interval_hours
        traces, datacenter = _build_instance(
            rng, n_vms=n_vms, n_hosts=n_hosts, n_hours=n_hours
        )
        schedule = _random_schedule(
            rng,
            traces.vm_ids,
            [h.host_id for h in datacenter],
            n_hours,
            interval_hours,
        )
        assert_emulators_agree(traces, datacenter, schedule)
