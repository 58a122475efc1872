"""Tests for datacenter topology."""

import pytest

from repro.exceptions import ConfigurationError
from repro.infrastructure.datacenter import (
    Datacenter,
    build_target_pool,
    target_pool_hosts,
)
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.metrics.catalog import HS23_ELITE


def _host(host_id: str, rack: str = "r0") -> PhysicalServer:
    return PhysicalServer(
        host_id=host_id,
        spec=ServerSpec(cpu_rpe2=100.0, memory_gb=1.0),
        rack=rack,
    )


class TestDatacenter:
    def test_add_and_lookup(self):
        dc = Datacenter(name="dc")
        dc.add_host(_host("h1"))
        assert dc.host("h1").host_id == "h1"
        assert "h1" in dc
        assert len(dc) == 1

    def test_duplicate_host_rejected(self):
        dc = Datacenter(name="dc")
        dc.add_host(_host("h1"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            dc.add_host(_host("h1"))

    def test_unknown_host_raises(self):
        dc = Datacenter(name="dc")
        with pytest.raises(ConfigurationError, match="unknown host"):
            dc.host("missing")

    def test_iteration_preserves_insertion_order(self):
        dc = Datacenter(name="dc")
        for i in range(5):
            dc.add_host(_host(f"h{i}"))
        assert [h.host_id for h in dc] == [f"h{i}" for i in range(5)]

    def test_construction_with_initial_hosts(self):
        dc = Datacenter(name="dc", _hosts=[_host("a"), _host("b")])
        assert len(dc) == 2
        assert dc.host("b").host_id == "b"

    def test_racks_and_membership(self):
        dc = Datacenter(name="dc")
        dc.add_host(_host("h1", rack="r1"))
        dc.add_host(_host("h2", rack="r2"))
        dc.add_host(_host("h3", rack="r1"))
        assert dc.racks() == ("r1", "r2")
        assert [h.host_id for h in dc.hosts_in_rack("r1")] == ["h1", "h3"]

    def test_capacity_totals(self):
        dc = Datacenter(name="dc", _hosts=[_host("a"), _host("b")])
        assert dc.total_cpu_rpe2() == 200.0
        assert dc.total_memory_gb() == 2.0

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Datacenter(name="")


class TestBuildTargetPool:
    def test_default_model_is_hs23(self):
        pool = build_target_pool("p", host_count=3)
        for host in pool:
            assert host.spec.cpu_memory_ratio == pytest.approx(160.0)
            assert host.model is HS23_ELITE

    def test_rack_assignment(self):
        pool = build_target_pool("p", host_count=30, hosts_per_rack=14)
        racks = pool.racks()
        assert len(racks) == 3  # ceil(30 / 14)
        assert len(pool.hosts_in_rack(racks[0])) == 14
        assert len(pool.hosts_in_rack(racks[-1])) == 2

    def test_custom_subnets_round_robin(self):
        pool = build_target_pool(
            "p", host_count=28, hosts_per_rack=14, subnets=["netA", "netB"]
        )
        subnets = {h.subnet for h in pool}
        assert subnets == {"netA", "netB"}

    def test_host_ids_unique_and_stable(self):
        pool = build_target_pool("p", host_count=5)
        assert [h.host_id for h in pool] == [f"p-h{i:04d}" for i in range(5)]

    @pytest.mark.parametrize("count", [0, -3])
    def test_invalid_host_count(self, count):
        with pytest.raises(ConfigurationError):
            build_target_pool("p", host_count=count)

    @pytest.mark.parametrize("subnets", [None, ["netA", "netB", "netC"]])
    def test_target_pool_hosts_builds_only_the_named_hosts(self, subnets):
        pool = build_target_pool(
            "p", host_count=40, hosts_per_rack=6, subnets=subnets
        )
        positions = [39, 7, 0, 6, 25]
        alone = target_pool_hosts(
            "p", positions, hosts_per_rack=6, subnets=subnets
        )
        assert [
            (h.host_id, h.rack, h.subnet, h.spec, h.model) for h in alone
        ] == [
            (h.host_id, h.rack, h.subnet, h.spec, h.model)
            for h in (pool.hosts[p] for p in positions)
        ]

    @pytest.mark.parametrize("per_rack", [0, -2])
    def test_invalid_hosts_per_rack(self, per_rack):
        with pytest.raises(ConfigurationError, match="hosts_per_rack"):
            build_target_pool("p", host_count=3, hosts_per_rack=per_rack)
