"""Property-based tests for bin packing (hypothesis).

Invariants, for arbitrary demand populations:

* every VM is placed exactly once (or PlacementError is raised),
* no host's summed demand exceeds its bounded capacity,
* packing is deterministic,
* FFD never uses more than one host per VM (trivial upper bound) and
  never fewer than the volume lower bound.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import pack

HOST_CPU = 1000.0
HOST_MEM = 100.0


def _pool(n_hosts: int) -> Datacenter:
    dc = Datacenter(name="prop")
    for index in range(n_hosts):
        dc.add_host(
            PhysicalServer(
                host_id=f"h{index}",
                spec=ServerSpec(cpu_rpe2=HOST_CPU, memory_gb=HOST_MEM),
            )
        )
    return dc


demand_strategy = st.builds(
    lambda i, cpu, mem: VMDemand(vm_id=f"vm{i}", cpu_rpe2=cpu, memory_gb=mem),
    st.integers(0, 10**6),
    st.floats(0.0, 600.0),
    st.floats(0.0, 60.0),
)


def _unique_demands(demands):
    seen = {}
    for demand in demands:
        seen[demand.vm_id] = demand
    return list(seen.values())


@st.composite
def demand_lists(draw):
    return _unique_demands(
        draw(st.lists(demand_strategy, min_size=1, max_size=40))
    )


@given(demands=demand_lists(), bound=st.sampled_from([0.8, 1.0]))
@settings(max_examples=60, deadline=None)
def test_capacity_never_exceeded(demands, bound):
    pool = _pool(len(demands))
    placement = pack(demands, pool.hosts, utilization_bound=bound)
    by_id = {d.vm_id: d for d in demands}
    for host in pool:
        vms = [by_id[v] for v in placement.vms_on(host.host_id)]
        if not vms:
            continue
        assert sum(v.cpu_rpe2 for v in vms) <= HOST_CPU * bound + 1e-6
        assert sum(v.memory_gb for v in vms) <= HOST_MEM * bound + 1e-6


@given(demands=demand_lists())
@settings(max_examples=60, deadline=None)
def test_every_vm_placed_exactly_once(demands):
    pool = _pool(len(demands))
    placement = pack(demands, pool.hosts)
    assert sorted(placement.assignment) == sorted(d.vm_id for d in demands)
    total_assigned = sum(
        len(placement.vms_on(h.host_id)) for h in pool
    )
    assert total_assigned == len(demands)


@given(demands=demand_lists())
@settings(max_examples=40, deadline=None)
def test_packing_is_deterministic(demands):
    pool = _pool(len(demands))
    first = pack(demands, pool.hosts)
    second = pack(demands, pool.hosts)
    assert first.assignment == second.assignment


@given(demands=demand_lists())
@settings(max_examples=40, deadline=None)
def test_host_count_bounded_by_volume(demands):
    pool = _pool(len(demands))
    placement = pack(demands, pool.hosts)
    cpu_lower = sum(d.cpu_rpe2 for d in demands) / HOST_CPU
    mem_lower = sum(d.memory_gb for d in demands) / HOST_MEM
    lower = max(1, math.ceil(max(cpu_lower, mem_lower) - 1e-9))
    assert lower <= placement.active_host_count <= len(demands)


@given(
    cpu=st.floats(1000.1, 10_000.0),
    mem=st.floats(0.0, 50.0),
)
@settings(max_examples=20, deadline=None)
def test_oversized_vm_always_raises(cpu, mem):
    pool = _pool(2)
    with pytest.raises(PlacementError):
        pack([VMDemand(vm_id="big", cpu_rpe2=cpu, memory_gb=mem)], pool.hosts)
