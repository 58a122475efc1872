"""Tests for link bandwidth as a placement constraint (paper §3.1)."""

import pytest

from repro.core.incremental import HostCapacities
from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import pack


@pytest.fixture
def thin_link_pool():
    """Hosts with plenty of CPU/memory but a 100 Mbps uplink."""
    dc = Datacenter(name="thin")
    for index in range(4):
        dc.add_host(
            PhysicalServer(
                host_id=f"h{index}",
                spec=ServerSpec(
                    cpu_rpe2=10_000.0, memory_gb=100.0, network_mbps=100.0
                ),
            )
        )
    return dc


def _demand(vm_id, network):
    return VMDemand(
        vm_id=vm_id, cpu_rpe2=10.0, memory_gb=0.1, network_mbps=network
    )


class TestNetworkInBin:
    """Link capacity in ``pack()``'s bins (:class:`HostCapacities`)."""

    def test_bin_tracks_network(self, thin_link_pool):
        # 60 + 50 Mbps overfills a 100 Mbps link; 60 + 40 does not.
        split = pack(
            [_demand("a", 60.0), _demand("b", 50.0)], thin_link_pool.hosts
        )
        assert dict(split.assignment) == {"a": "h0", "b": "h1"}
        shared = pack(
            [_demand("a", 60.0), _demand("b", 40.0)], thin_link_pool.hosts
        )
        assert dict(shared.assignment) == {"a": "h0", "b": "h0"}

    def test_bound_scales_network(self, thin_link_pool):
        caps = HostCapacities(thin_link_pool.hosts, 0.8)
        assert caps.cap_net == pytest.approx([80.0] * 4)

    def test_zero_network_demand_never_blocks(self, thin_link_pool):
        # "full-link" sorts first (equal scores, id order) and takes all
        # of h0's link; fifty zero-bandwidth VMs still join it.
        demands = [_demand(f"v{index}", 0.0) for index in range(50)]
        demands.append(_demand("full-link", 100.0))
        placement = pack(demands, thin_link_pool.hosts)
        assert placement.hosts_used == {"h0"}


class TestNetworkInPack:
    def test_network_forces_spread(self, thin_link_pool):
        # CPU/memory would fit all eight on one host; the 100 Mbps link
        # admits only two 40 Mbps VMs per host.
        demands = [_demand(f"v{i}", 40.0) for i in range(8)]
        placement = pack(demands, thin_link_pool.hosts)
        assert placement.active_host_count == 4

    def test_unroutable_vm_raises(self, thin_link_pool):
        with pytest.raises(PlacementError):
            pack([_demand("hog", 500.0)], thin_link_pool.hosts)
