"""``IncrementalPlan.load`` / ``from_assignment`` == a from-scratch refold.

Both build a plan's whole state at once: each host's rows ascend and
its bodies are ``np.bincount`` sums, which add in row order.  The
oracle is ``tests/reference/reconcile.py``'s
``plan_from_assignment_reference`` — rows appended host by host, each
host's bodies folded left over its sorted rows — and the comparison is
exact, state list by state list.  ``IncrementalPlan.reset``, the
planners' way to empty a plan, must leave what a ``load`` with every
row ``-1`` leaves.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.exceptions import PlacementError
from repro.infrastructure.server import PhysicalServer, ServerSpec
from tests.reference.reconcile import plan_from_assignment_reference

_STATE = (
    "assignment_rows", "vm_rows_of_host",
    "body_cpu", "body_mem", "body_net", "body_dsk",
    "cpu", "mem", "net", "dsk",
)


def _caps(n_hosts: int) -> HostCapacities:
    return HostCapacities(
        [
            PhysicalServer(
                f"h{i}", ServerSpec(cpu_rpe2=1000.0, memory_gb=64.0)
            )
            for i in range(n_hosts)
        ],
        utilization_bound=0.9,
    )


def _demands(rng: random.Random, n_vms: int):
    return (
        [rng.uniform(10.0, 200.0) for _ in range(n_vms)],
        [rng.uniform(0.5, 8.0) for _ in range(n_vms)],
        [rng.uniform(0.0, 50.0) for _ in range(n_vms)],
        [rng.uniform(0.0, 30.0) for _ in range(n_vms)],
    )


def _assert_state_equal(plan: IncrementalPlan, oracle: IncrementalPlan):
    for name in _STATE:
        # Python lists compared with ==: exact, no tolerance, and the
        # controller's consistency check compares them the same way.
        value = getattr(plan, name)
        assert type(value) is list, name
        assert value == getattr(oracle, name), name
    assert all(type(body) is float for body in plan.body_cpu)
    assert all(type(row) is int for row in plan.assignment_rows)


def _loaded(caps, vm_ids, demands, host_of_row) -> IncrementalPlan:
    n_vms = len(vm_ids)
    plan = IncrementalPlan(caps, vm_ids, [0.0] * n_vms, [0.0] * n_vms)
    plan.load(np.array(host_of_row), *(np.array(d) for d in demands))
    return plan


def _both_ways(caps, vm_ids, demands, host_of_row):
    """load(), from_assignment() and the oracle for one assignment."""
    assignment = {
        vm: caps.host_ids[host]
        for vm, host in zip(vm_ids, host_of_row)
        if host >= 0
    }
    cpu, mem, net, dsk = demands
    oracle = plan_from_assignment_reference(
        caps, vm_ids, cpu, mem, assignment, net, dsk
    )
    rebuilt = IncrementalPlan.from_assignment(
        caps, vm_ids, cpu, mem, assignment, net, dsk
    )
    return _loaded(caps, vm_ids, demands, host_of_row), rebuilt, oracle


class TestLoad:
    def test_bodies_are_row_order_folds_not_pairwise_sums(self) -> None:
        # One host holds 40 rows: np.sum's pairwise blocks and the left
        # fold round differently for these demands, so a loader that
        # summed pairwise would fail here.
        rng = random.Random(3)
        n_vms = 40
        vm_ids = [f"vm{i}" for i in range(n_vms)]
        demands = _demands(rng, n_vms)
        fold = 0.0
        for value in demands[0]:
            fold += value
        assert float(np.sum(demands[0])) != fold
        hosts = [1] * n_vms
        loaded, rebuilt, oracle = _both_ways(
            _caps(3), vm_ids, demands, hosts
        )
        assert loaded.body_cpu[1] == fold
        _assert_state_equal(loaded, oracle)
        _assert_state_equal(rebuilt, oracle)

    def test_empty_hosts_and_one_host_holding_every_vm(self) -> None:
        rng = random.Random(4)
        vm_ids = [f"vm{i}" for i in range(9)]
        demands = _demands(rng, 9)
        loaded, rebuilt, oracle = _both_ways(
            _caps(5), vm_ids, demands, [2] * 9
        )
        assert loaded.vm_rows_of_host == [[], [], list(range(9)), [], []]
        assert loaded.active_hosts() == [2]
        for name in ("body_cpu", "body_mem", "body_net", "body_dsk"):
            bodies = getattr(loaded, name)
            assert [bodies[h] for h in (0, 1, 3, 4)] == [0.0] * 4
        _assert_state_equal(loaded, oracle)
        _assert_state_equal(rebuilt, oracle)

    def test_partial_assignment(self) -> None:
        rng = random.Random(5)
        vm_ids = [f"vm{i}" for i in range(8)]
        demands = _demands(rng, 8)
        hosts = [-1, 0, 2, -1, 0, 2, 1, -1]
        loaded, rebuilt, oracle = _both_ways(
            _caps(3), vm_ids, demands, hosts
        )
        assert loaded.assignment_rows == hosts
        assert loaded.vm_rows_of_host == [[1, 4], [6], [2, 5]]
        assert loaded.host_of("vm0") is None
        _assert_state_equal(loaded, oracle)
        _assert_state_equal(rebuilt, oracle)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_assignments(self, seed: int) -> None:
        rng = random.Random(seed)
        n_hosts, n_vms = rng.randint(1, 12), rng.randint(0, 60)
        vm_ids = [f"vm{i}" for i in range(n_vms)]
        hosts = [rng.randrange(-1, n_hosts) for _ in range(n_vms)]
        loaded, rebuilt, oracle = _both_ways(
            _caps(n_hosts), vm_ids, _demands(rng, n_vms), hosts
        )
        _assert_state_equal(loaded, oracle)
        _assert_state_equal(rebuilt, oracle)

    def test_reload_after_deltas_leaves_nothing_stale(self) -> None:
        rng = random.Random(6)
        caps = _caps(6)
        n_vms = 24
        vm_ids = [f"vm{i}" for i in range(n_vms)]
        first = [rng.randrange(0, 3) for _ in range(n_vms)]
        plan = _loaded(caps, vm_ids, _demands(rng, n_vms), first)
        # Move VMs onto the other hosts, so hosts 3-5 hold rows too.
        for row in range(0, n_vms, 3):
            target = caps.host_ids[3 + row // 3 % 3]
            plan.apply_delta([vm_ids[row]], [target])
        plan.apply_delta([vm_ids[1]], [None])
        assert plan.vm_rows_of_host[3] and plan.assignment_rows[1] == -1
        # The second interval uses hosts 0-1 only, with new demands.
        second = [rng.randrange(0, 2) for _ in range(n_vms)]
        demands = _demands(rng, n_vms)
        plan.load(np.array(second), *(np.array(d) for d in demands))
        _, _, oracle = _both_ways(caps, vm_ids, demands, second)
        _assert_state_equal(plan, oracle)
        assert plan.vm_rows_of_host[3:] == [[], [], []]
        assert plan.body_cpu[3:] == [0.0, 0.0, 0.0]

    def test_rejects_bad_rows_and_shapes(self) -> None:
        caps = _caps(2)
        plan = IncrementalPlan(caps, ["a", "b"], [1.0, 2.0], [1.0, 1.0])
        columns = [np.ones(2)] * 4
        with pytest.raises(PlacementError, match="host index outside"):
            plan.load(np.array([0, 2]), *columns)
        with pytest.raises(PlacementError, match="host index outside"):
            plan.load(np.array([-2, 0]), *columns)
        with pytest.raises(PlacementError, match="one entry per VM row"):
            plan.load(np.array([0]), *columns)
        with pytest.raises(PlacementError, match="demand vectors"):
            plan.load(np.array([0, 1]), np.ones(3), *columns[1:])


class TestFromAssignmentErrors:
    def test_unknown_vm(self) -> None:
        with pytest.raises(PlacementError, match="unknown vm_id 'zz'"):
            IncrementalPlan.from_assignment(
                _caps(2), ["a"], [1.0], [1.0], {"a": "h0", "zz": "h1"}
            )

    def test_unknown_host(self) -> None:
        with pytest.raises(PlacementError, match="unknown host 'h9'"):
            IncrementalPlan.from_assignment(
                _caps(2), ["a"], [1.0], [1.0], {"a": "h9"}
            )


class TestReset:
    def _held(self, seed: int, n_hosts: int = 6, n_vms: int = 30):
        rng = random.Random(seed)
        caps = _caps(n_hosts)
        vm_ids = [f"vm{i}" for i in range(n_vms)]
        hosts = [rng.randrange(-1, n_hosts) for _ in range(n_vms)]
        return rng, caps, vm_ids, _loaded(
            caps, vm_ids, _demands(rng, n_vms), hosts
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_loading_every_row_unassigned(self, seed: int) -> None:
        rng, caps, vm_ids, plan = self._held(seed)
        assert plan.active_hosts()
        n_vms = len(vm_ids)
        demands = [np.array(d) for d in _demands(rng, n_vms)]
        loaded = _loaded(caps, vm_ids, demands, [3] * n_vms)
        loaded.load(np.full(n_vms, -1), *demands)
        plan.reset(*demands)
        _assert_state_equal(plan, loaded)
        assert plan.assignment_rows == [-1] * n_vms
        assert plan.vm_rows_of_host == [[]] * caps.n
        assert plan.active_hosts() == []
        for name in ("body_cpu", "body_mem", "body_net", "body_dsk"):
            assert getattr(plan, name) == [0.0] * caps.n
            assert all(type(body) is float for body in getattr(plan, name))
        assert plan.cpu == demands[0].tolist()

    def test_reads_strided_columns(self) -> None:
        # The planners pass one column of an (n_vms, n_intervals) table.
        rng, caps, vm_ids, plan = self._held(7)
        table = np.array(_demands(rng, len(vm_ids))).T.copy()
        wide = np.repeat(table, 3, axis=1)
        plan.reset(*(wide[:, 3 * i + 1] for i in range(4)))
        assert plan.cpu == table[:, 0].tolist()
        assert plan.dsk == table[:, 3].tolist()

    def test_a_plan_with_zero_vms(self) -> None:
        caps = _caps(3)
        plan = IncrementalPlan(caps, [], [], [])
        empty = np.zeros(0)
        plan.reset(empty, empty, empty, empty)
        oracle = IncrementalPlan(caps, [], [], [])
        oracle.load(np.full(0, -1), empty, empty, empty, empty)
        _assert_state_equal(plan, oracle)
        assert plan.assignment_rows == []
        assert plan.vm_rows_of_host == [[], [], []]

    def test_a_column_of_the_wrong_length_raises(self) -> None:
        _, caps, vm_ids, plan = self._held(8)
        before = {name: list(getattr(plan, name)) for name in _STATE}
        n_vms = len(vm_ids)
        good = np.ones(n_vms)
        for position in range(4):
            columns = [good] * 4
            columns[position] = np.ones(n_vms + 1)
            with pytest.raises(PlacementError, match="reset: demand vectors"):
                plan.reset(*columns)
        with pytest.raises(PlacementError, match="demand vectors"):
            plan.reset(np.ones((n_vms, 1)), good, good, good)
        # Nothing was written before the check failed.
        for name in _STATE:
            assert getattr(plan, name) == before[name], name

    def test_the_previous_sticky_hints_are_not_mutated(self) -> None:
        # The sticky pack keeps the previous assignment_rows list (and
        # the held hosts' row lists) as its hints across the reset.
        _, caps, vm_ids, plan = self._held(9)
        hints = plan.assignment_rows
        saved = list(hints)
        held_lists = [rows for rows in plan.vm_rows_of_host if rows]
        saved_lists = [list(rows) for rows in held_lists]
        n_vms = len(vm_ids)
        plan.reset(*(np.ones(n_vms),) * 4)
        assert plan.assignment_rows is not hints
        assert hints == saved
        assert held_lists == saved_lists
        # Writing the new plan leaves the hints alone too.
        plan.assign(0, 1)
        assert hints == saved
