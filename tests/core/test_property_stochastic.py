"""Property-based tests for the PCP pack's tail pooling (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.analysis.correlation import PeakClusters
from repro.constraints.manager import ConstraintSet
from repro.core.stochastic import StochasticConsolidation
from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VMDemand

SPEC = ServerSpec(cpu_rpe2=1000.0, memory_gb=100.0, network_mbps=10_000.0)

demand_strategy = st.builds(
    lambda i, cpu, mem, tail_cpu, tail_mem: VMDemand(
        vm_id=f"vm{i}",
        cpu_rpe2=cpu,
        memory_gb=mem,
        tail_cpu_rpe2=tail_cpu,
        tail_memory_gb=tail_mem,
    ),
    st.integers(0, 10**6),
    st.floats(0.0, 200.0),
    st.floats(0.0, 20.0),
    st.floats(0.0, 150.0),
    st.floats(0.0, 15.0),
)


@st.composite
def placements(draw):
    demands = draw(
        st.lists(
            demand_strategy, min_size=1, max_size=15,
            unique_by=lambda d: d.vm_id,
        )
    )
    clusters = [
        draw(st.integers(0, 3)) for _ in demands
    ]
    overlap = draw(st.sampled_from([0.0, 0.3, 0.55, 1.0]))
    return demands, clusters, overlap


def _pool(n_hosts):
    pool = Datacenter(name="pcp")
    for index in range(n_hosts):
        pool.add_host(PhysicalServer(host_id=f"h{index}", spec=SPEC))
    return pool


def _pack(demands, clusters, overlap, pool):
    """The planner's placement, or None if some VM fits on no host."""
    peak_clusters = PeakClusters(
        vm_ids=tuple(d.vm_id for d in demands), cluster_of=tuple(clusters)
    )
    algorithm = StochasticConsolidation(tail_overlap_factor=overlap)
    try:
        return algorithm._pack(demands, peak_clusters, pool, ConstraintSet())
    except PlacementError:
        return None


def _members(placement, demands, clusters):
    """Per host, its VMs' (demand, cluster) pairs."""
    by_id = {d.vm_id: (d, c) for d, c in zip(demands, clusters)}
    hosts = {}
    for vm_id, host_id in placement.assignment.items():
        hosts.setdefault(host_id, []).append(by_id[vm_id])
    return hosts.values()


@given(data=placements())
@settings(max_examples=80, deadline=None)
def test_greedy_adds_respect_capacity(data):
    demands, clusters, overlap = data
    # One host per VM: every drawn VM fits on an empty host alone.
    placement = _pack(demands, clusters, overlap, _pool(len(demands)))
    assert placement is not None and len(placement) == len(demands)
    # Reconstruct each host's reservation from scratch and check it.
    for members in _members(placement, demands, clusters):
        for body, tail, capacity in (
            ("cpu_rpe2", "tail_cpu_rpe2", SPEC.cpu_rpe2),
            ("memory_gb", "tail_memory_gb", SPEC.memory_gb),
        ):
            tails = {}
            for demand, cluster in members:
                tails[cluster] = tails.get(cluster, 0.0) + getattr(
                    demand, tail
                )
            worst = max(tails.values())
            pooled = worst + overlap * (sum(tails.values()) - worst)
            bodies = sum(getattr(demand, body) for demand, _ in members)
            assert bodies + pooled <= capacity + 1e-6


@given(data=placements())
@settings(max_examples=60, deadline=None)
def test_overlap_one_reserves_all_tails(data):
    demands, clusters, _ = data
    placement = _pack(demands, clusters, 1.0, _pool(len(demands)))
    assert placement is not None
    for members in _members(placement, demands, clusters):
        # With overlap=1 the reservation equals bodies + all tails, i.e.
        # sized-at-max packing.
        total_cpu = sum(d.cpu_rpe2 + d.tail_cpu_rpe2 for d, _ in members)
        total_memory = sum(
            d.memory_gb + d.tail_memory_gb for d, _ in members
        )
        assert total_cpu <= SPEC.cpu_rpe2 + 1e-6
        assert total_memory <= SPEC.memory_gb + 1e-6


@given(data=placements())
@settings(max_examples=60, deadline=None)
def test_lower_overlap_admits_superset(data):
    demands, clusters, _ = data
    single = _pool(1)
    for size in range(1, len(demands) + 1):
        subset = demands[:size], clusters[:size]
        if _pack(*subset, 1.0, single) is not None:
            # Whatever one host holds with every tail reserved, it
            # holds when cross-cluster tails pool (monotonicity in the
            # overlap factor).
            assert _pack(*subset, 0.0, single) is not None
