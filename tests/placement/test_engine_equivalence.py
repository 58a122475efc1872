"""``pack()`` == the scalar reference scan, property-based.

The library's :func:`pack` (the dynamic planner's first-fit loop on an
``IncrementalPlan``) must make exactly the same decisions as the
bin-at-a-time :class:`Bin` scan kept in ``tests/reference/packing.py``
— the same assignment listed in the same FFD order, same failures with
the same message — across randomized body-only instances covering link
and disk demands, constraints and pool sizes.  Driven by hypothesis
when available, with a seeded stdlib-:mod:`random` sweep that always
runs so the suite keeps its coverage without the dependency.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.constraints import AntiColocate, ExcludeHosts
from repro.constraints.manager import ConstraintSet
from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import pack
from tests.reference.packing import pack_reference

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

HOST_CPU = 2000.0
HOST_MEM = 16.0
HOST_NET = 1000.0
HOST_DISK = 400.0


def _pool(n_hosts: int) -> Datacenter:
    dc = Datacenter(name="equiv")
    for index in range(n_hosts):
        dc.add_host(
            PhysicalServer(
                host_id=f"h{index:03d}",
                spec=ServerSpec(
                    cpu_rpe2=HOST_CPU,
                    memory_gb=HOST_MEM,
                    network_mbps=HOST_NET,
                    disk_mbps=HOST_DISK,
                ),
            )
        )
    return dc


def assert_engines_agree(
    demands: List[VMDemand],
    *,
    bound: float = 1.0,
    constraints: Optional[ConstraintSet] = None,
    n_hosts: Optional[int] = None,
) -> None:
    """Library and reference give the same placement or the same failure."""
    pool = _pool(n_hosts if n_hosts is not None else len(demands))
    datacenter = pool if constraints else None
    kwargs = dict(
        utilization_bound=bound,
        constraints=constraints,
        datacenter=datacenter,
    )
    try:
        expected = pack_reference(demands, pool.hosts, **kwargs)
    except PlacementError as failure:
        with pytest.raises(PlacementError) as raised:
            pack(demands, pool.hosts, **kwargs)
        assert str(raised.value) == str(failure)
        return
    # Same mapping, listed in the same (FFD) order.
    assert list(pack(demands, pool.hosts, **kwargs).assignment.items()) == (
        list(expected.assignment.items())
    )


def _random_demands(
    rng: random.Random, *, with_io: bool, n_vms: int
) -> List[VMDemand]:
    """Body-only demands; ``with_io`` adds link and disk demands that
    bind (up to 0.6 of a host's link and disk, against 0.45 of its CPU
    and memory)."""
    demands = []
    for i in range(n_vms):
        demands.append(
            VMDemand(
                vm_id=f"vm{i:03d}",
                cpu_rpe2=rng.uniform(0.0, 900.0),
                memory_gb=rng.uniform(0.0, 7.0),
                network_mbps=rng.uniform(0.0, 600.0) if with_io else 0.0,
                disk_mbps=rng.uniform(0.0, 240.0) if with_io else 0.0,
            )
        )
    return demands


# ----------------------------------------------------------------------
# Seeded stdlib sweep: always runs, no hypothesis required.


@pytest.mark.parametrize("with_io", [False, True])
def test_random_instances_agree(with_io: bool) -> None:
    rng = random.Random(f"ffd-{with_io}")
    for _ in range(30):
        demands = _random_demands(
            rng, with_io=with_io, n_vms=rng.randint(1, 40)
        )
        assert_engines_agree(demands, bound=rng.choice([0.7, 0.8, 1.0]))


def test_constrained_instances_agree() -> None:
    """Constraint hooks fire on the same candidates in both scans."""
    rng = random.Random("constraints-ffd")
    for _ in range(15):
        n_vms = rng.randint(4, 24)
        demands = _random_demands(rng, with_io=False, n_vms=n_vms)
        constraints = ConstraintSet()
        spread = [d.vm_id for d in rng.sample(demands, k=min(4, n_vms))]
        constraints.add(AntiColocate(*spread))
        excluded = rng.sample(demands, k=min(2, n_vms))
        for demand in excluded:
            constraints.add(
                ExcludeHosts(demand.vm_id, [f"h{rng.randint(0, 3):03d}"])
            )
        assert_engines_agree(demands, constraints=constraints)


def test_oversized_vm_fails_in_both_engines() -> None:
    demand = VMDemand(vm_id="big", cpu_rpe2=HOST_CPU * 2, memory_gb=1.0)
    assert_engines_agree([demand], n_hosts=3)


def test_duplicate_vm_ids_rejected() -> None:
    demand = VMDemand(vm_id="dup", cpu_rpe2=1.0, memory_gb=0.1)
    pool = _pool(2)
    for packer in (pack_reference, pack):
        with pytest.raises(PlacementError, match="duplicate demand"):
            packer([demand, demand], pool.hosts)


# ----------------------------------------------------------------------
# Pool sizes: small, the benchmark's, and a few hundred hosts.


@pytest.mark.parametrize(
    "n_hosts", [8, 55, 63, 64, 96, 174, 511, 512, 600]
)
def test_pool_sizes_agree(n_hosts: int) -> None:
    """``pack()`` agrees with the reference scan at every pool size.

    55 and 174 hosts are pool sizes of the end-to-end benchmark.
    """
    rng = random.Random(f"auto-ffd-{n_hosts}")
    demands = _random_demands(rng, with_io=True, n_vms=min(40, n_hosts))
    pool = _pool(n_hosts)
    expected = pack_reference(demands, pool.hosts, utilization_bound=0.8)
    got = pack(demands, pool.hosts, utilization_bound=0.8)
    assert list(got.assignment.items()) == list(expected.assignment.items())


def test_unknown_engine_rejected() -> None:
    """There is one packing scan: no ``engine`` option is accepted."""
    demand = VMDemand(vm_id="vm0", cpu_rpe2=1.0, memory_gb=0.1)
    with pytest.raises(TypeError):
        pack([demand], _pool(2).hosts, engine="array")


# ----------------------------------------------------------------------
# Hypothesis sweep: wider value coverage when the dependency is present.

if HAVE_HYPOTHESIS:
    demand_strategy = st.builds(
        lambda i, cpu, mem, net, dsk: VMDemand(
            vm_id=f"vm{i}",
            cpu_rpe2=cpu,
            memory_gb=mem,
            network_mbps=net,
            disk_mbps=dsk,
        ),
        st.integers(0, 10**6),
        st.floats(0.0, 900.0),
        st.floats(0.0, 7.0),
        st.floats(0.0, 600.0),
        st.floats(0.0, 240.0),
    )

    @st.composite
    def demand_lists(draw):
        drawn = draw(st.lists(demand_strategy, min_size=1, max_size=40))
        unique = {d.vm_id: d for d in drawn}
        return list(unique.values())

    @given(
        demands=demand_lists(),
        bound=st.sampled_from([0.7, 0.8, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_engines_agree(demands, bound):
        assert_engines_agree(demands, bound=bound)
