"""Tests for first-fit-decreasing packing and its bins."""

import numpy as np
import pytest

from repro.constraints.affinity import AntiColocate, Colocate, PinToHost
from repro.constraints.manager import ConstraintSet
from repro.core.dynamic_vector import _Rules, ffd_order, id_ranks
from repro.core.incremental import HostCapacities
from repro.exceptions import ConfigurationError, ConstraintViolation, PlacementError
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import pack


def _demand(vm_id, cpu, mem, tail_cpu=0.0, tail_mem=0.0):
    return VMDemand(
        vm_id=vm_id,
        cpu_rpe2=cpu,
        memory_gb=mem,
        tail_cpu_rpe2=tail_cpu,
        tail_memory_gb=tail_mem,
    )


class TestBin:
    """The bins ``pack()`` runs on: :class:`HostCapacities` and its fit."""

    def test_capacity_scaled_by_bound(self, tiny_pool):
        caps = HostCapacities(tiny_pool.hosts, 0.8)
        assert caps.cap_cpu == pytest.approx([800.0, 800.0])
        assert caps.cap_mem == pytest.approx([8.0, 8.0])

    def test_fits_and_add(self, tiny_pool):
        # 600 + 500 RPE2 overfills a 1000-RPE2 host; 600 + 300 does not.
        split = pack(
            [_demand("a", 600, 6), _demand("b", 500, 1)], tiny_pool.hosts
        )
        assert dict(split.assignment) == {"a": "tiny-h0", "b": "tiny-h1"}
        shared = pack(
            [_demand("a", 600, 6), _demand("b", 300, 1)], tiny_pool.hosts
        )
        assert dict(shared.assignment) == {"a": "tiny-h0", "b": "tiny-h0"}

    def test_add_overflow_raises(self, tiny_pool):
        with pytest.raises(PlacementError, match="VM a .* fits on no host"):
            pack([_demand("a", 2000, 1)], tiny_pool.hosts)

    def test_invalid_bound(self, tiny_pool):
        for bound in (0.0, 1.5, -0.2, float("nan")):
            with pytest.raises(ConfigurationError, match="utilization_bound"):
                pack(
                    [_demand("a", 1, 1)],
                    tiny_pool.hosts,
                    utilization_bound=bound,
                )


class TestFfdOrder:
    """:func:`ffd_order`, the FFD order ``pack()`` and PCP share."""

    @staticmethod
    def _order(demands, reference, rules_for=None):
        vm_ids = tuple(d.vm_id for d in demands)
        cpu = np.array([d.total_cpu_rpe2 for d in demands])
        mem = np.array([d.total_memory_gb for d in demands])
        rules = rules_for(vm_ids) if rules_for else None
        order, n_checked = ffd_order(
            cpu, mem, reference, id_ranks(vm_ids), rules
        )
        return [vm_ids[row] for row in order.tolist()], n_checked

    def test_dominant_resource_ordering(self, tiny_pool):
        reference = tiny_pool.host("tiny-h0")  # 1000 RPE2 / 10 GB
        cpu_heavy = _demand("cpu", 900, 1)   # score 0.9
        mem_heavy = _demand("mem", 100, 8)   # score 0.8
        small = _demand("small", 100, 1)     # score 0.1
        ordered, n_checked = self._order(
            [small, mem_heavy, cpu_heavy], reference
        )
        assert ordered == ["cpu", "mem", "small"]
        assert n_checked == 0

    def test_deterministic_tiebreak(self, tiny_pool):
        reference = tiny_pool.host("tiny-h0")
        a, b = _demand("a", 100, 1), _demand("b", 100, 1)
        assert self._order([b, a], reference)[0] == ["a", "b"]

    def test_tails_count_in_the_score(self, tiny_pool):
        reference = tiny_pool.host("tiny-h0")
        body = _demand("body", 500, 1)                     # score 0.5
        bursty = _demand("bursty", 300, 1, tail_cpu=400)   # score 0.7
        assert self._order([body, bursty], reference)[0] == [
            "bursty", "body",
        ]

    def test_constrained_vms_first(self, tiny_pool):
        reference = tiny_pool.host("tiny-h0")
        demands = [
            _demand("big", 900, 1),
            _demand("pinned", 100, 1),
            _demand("mid", 500, 1),
            _demand("apart", 200, 1),
        ]
        constraints = ConstraintSet(
            [PinToHost("pinned", "tiny-h1"), AntiColocate("apart", "x")]
        )
        ordered, n_checked = self._order(
            demands,
            reference,
            lambda vm_ids: _Rules(
                constraints, tiny_pool, vm_ids, tiny_pool.hosts
            ),
        )
        # Stable within each group: FFD order among the constrained,
        # then among the rest.
        assert ordered == ["apart", "pinned", "big", "mid"]
        assert n_checked == 2


class TestPack:
    def test_all_vms_placed_within_capacity(self, tiny_pool):
        demands = [_demand(f"v{i}", 300, 3) for i in range(6)]
        placement = pack(demands, tiny_pool.hosts)
        assert len(placement) == 6
        for host in tiny_pool:
            vms = placement.vms_on(host.host_id)
            assert sum(300 for _ in vms) <= host.cpu_rpe2

    def test_ffd_minimizes_hosts_for_easy_case(self, tiny_pool):
        # 3 + 3 + 4 fits in one host of 10 GB memory.
        demands = [
            _demand("a", 100, 3.0),
            _demand("b", 100, 3.0),
            _demand("c", 100, 4.0),
        ]
        placement = pack(demands, tiny_pool.hosts)
        assert placement.active_host_count == 1

    def test_utilization_bound_respected(self, tiny_pool):
        demands = [_demand("a", 500, 1), _demand("b", 400, 1)]
        placement = pack(demands, tiny_pool.hosts, utilization_bound=0.8)
        # 500 + 400 = 900 > 800 -> must split across hosts.
        assert placement.active_host_count == 2

    def test_unplaceable_vm_raises(self, tiny_pool):
        with pytest.raises(PlacementError, match="fits on no host"):
            pack([_demand("big", 5000, 1)], tiny_pool.hosts)

    def test_duplicate_vm_rejected(self, tiny_pool):
        with pytest.raises(PlacementError, match="duplicate"):
            pack([_demand("a", 1, 1), _demand("a", 2, 1)], tiny_pool.hosts)

    def test_no_hosts_rejected(self):
        with pytest.raises(PlacementError):
            pack([_demand("a", 1, 1)], [])

    @pytest.mark.parametrize("tail", [{"tail_cpu": 5.0}, {"tail_mem": 0.5}])
    def test_tail_demand_rejected(self, tiny_pool, tail):
        # Bodies only: no planner sizes tails for pack(), and the loop it
        # runs reserves none.
        demands = [_demand("a", 1, 1), _demand("b", 1, 1, **tail)]
        with pytest.raises(ConfigurationError, match="'b' has a tail"):
            pack(demands, tiny_pool.hosts)

    def test_no_preferred_option(self, tiny_pool):
        with pytest.raises(TypeError):
            pack(
                [_demand("a", 1, 1)],
                tiny_pool.hosts,
                preferred={"a": "tiny-h1"},
            )


class TestPackWithConstraints:
    def test_anti_colocate_forces_split(self, tiny_pool):
        constraints = ConstraintSet([AntiColocate("a", "b")])
        demands = [_demand("a", 10, 0.1), _demand("b", 10, 0.1)]
        placement = pack(
            demands,
            tiny_pool.hosts,
            constraints=constraints,
            datacenter=tiny_pool,
        )
        assert placement.host_of("a") != placement.host_of("b")

    def test_pin_to_host(self, tiny_pool):
        constraints = ConstraintSet([PinToHost("a", "tiny-h1")])
        placement = pack(
            [_demand("a", 10, 0.1)],
            tiny_pool.hosts,
            constraints=constraints,
            datacenter=tiny_pool,
        )
        assert placement.host_of("a") == "tiny-h1"

    def test_colocate_group_lands_together(self, tiny_pool):
        constraints = ConstraintSet([Colocate("a", "b")])
        demands = [
            _demand("a", 100, 1),
            _demand("b", 100, 1),
            _demand("c", 700, 7),
        ]
        placement = pack(
            demands,
            tiny_pool.hosts,
            constraints=constraints,
            datacenter=tiny_pool,
        )
        assert placement.host_of("a") == placement.host_of("b")

    def test_constrained_vms_claim_hosts_first(self, tiny_pool):
        # Without constrained-first ordering, the big unconstrained VM
        # would fill h0 before the colocated pair arrives and the pack
        # would fail; the ordering guarantees the pair lands together.
        constraints = ConstraintSet([Colocate("a", "b")])
        demands = [
            _demand("a", 100, 1),
            _demand("b", 100, 1),
            _demand("c", 900, 9),
        ]
        placement = pack(
            demands,
            tiny_pool.hosts,
            constraints=constraints,
            datacenter=tiny_pool,
        )
        assert placement.host_of("a") == placement.host_of("b")
        assert placement.host_of("c") != placement.host_of("a")

    def test_truly_infeasible_colocate_raises(self, tiny_pool):
        # The pair itself exceeds any single host: no ordering saves it.
        constraints = ConstraintSet([Colocate("a", "b")])
        demands = [_demand("a", 600, 6), _demand("b", 600, 6)]
        with pytest.raises(PlacementError):
            pack(
                demands,
                tiny_pool.hosts,
                constraints=constraints,
                datacenter=tiny_pool,
            )

    def test_infeasible_constraints_raise(self, tiny_pool):
        constraints = ConstraintSet(
            [PinToHost("a", "tiny-h0"), PinToHost("b", "tiny-h0"),
             AntiColocate("a", "b")]
        )
        with pytest.raises(PlacementError):
            pack(
                [_demand("a", 10, 0.1), _demand("b", 10, 0.1)],
                tiny_pool.hosts,
                constraints=constraints,
                datacenter=tiny_pool,
            )

    def test_constraints_require_datacenter(self, tiny_pool):
        with pytest.raises(ConfigurationError, match="datacenter"):
            pack(
                [_demand("a", 10, 0.1)],
                tiny_pool.hosts,
                constraints=ConstraintSet([PinToHost("a", "tiny-h0")]),
            )
