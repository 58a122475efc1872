"""Incremental replanning == replanning from scratch, bit for bit.

The controller's correctness rests on one invariant: a plan mutated by
*any* sequence of ``apply_delta`` / ``set_demand`` / ``set_demands``
calls is bitwise identical to a plan rebuilt from scratch
(``from_assignment``) over the same demands and assignment.  Canonical
folds (ascending row order) make the float accumulators
order-independent of the *history* of mutations — so drift can never
accumulate in a long-running controller.

The suite drives random update sequences (seeded sweep always; driven
wider by hypothesis when available) and asserts exact equality after
every step, plus the atomicity contract: a delta that fails mid-way
restores the plan byte for byte.
"""

from __future__ import annotations

import random

import pytest

from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.server import PhysicalServer, ServerSpec

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False


def _fleet(n_hosts: int, cpu_rpe2: float = 1000.0, memory_gb: float = 64.0):
    return [
        PhysicalServer(
            f"h{i}", ServerSpec(cpu_rpe2=cpu_rpe2, memory_gb=memory_gb)
        )
        for i in range(n_hosts)
    ]


def _capture(plan: IncrementalPlan):
    return (
        list(plan.assignment_rows),
        [list(rows) for rows in plan.vm_rows_of_host],
        list(plan.body_cpu),
        list(plan.body_mem),
        list(plan.body_net),
        list(plan.body_dsk),
        list(plan.cpu),
        list(plan.mem),
        list(plan.net),
        list(plan.dsk),
    )


def _assert_bitwise_equal(a: IncrementalPlan, b: IncrementalPlan):
    # Plain == on float lists is exact equality — no tolerance anywhere.
    assert a.assignment_rows == b.assignment_rows
    assert a.vm_rows_of_host == b.vm_rows_of_host
    assert a.body_cpu == b.body_cpu
    assert a.body_mem == b.body_mem
    assert a.body_net == b.body_net
    assert a.body_dsk == b.body_dsk


def _rebuild(plan: IncrementalPlan) -> IncrementalPlan:
    return IncrementalPlan.from_assignment(
        plan.caps,
        plan.vm_ids,
        plan.cpu,
        plan.mem,
        plan.assignment(),
        plan.net,
        plan.dsk,
    )


def _random_plan(
    rng: random.Random, n_hosts: int, n_vms: int
) -> IncrementalPlan:
    caps = HostCapacities(_fleet(n_hosts), utilization_bound=0.9)
    vm_ids = [f"vm{i}" for i in range(n_vms)]
    cpu = [rng.uniform(10.0, 200.0) for _ in range(n_vms)]
    mem = [rng.uniform(0.5, 8.0) for _ in range(n_vms)]
    plan = IncrementalPlan(caps, vm_ids, cpu, mem)
    for row, vm_id in enumerate(vm_ids):
        targets = list(range(n_hosts))
        rng.shuffle(targets)
        for host in targets:
            if plan.fits(row, host):
                plan.apply_delta([vm_id], [caps.host_ids[host]])
                break
    return plan


def _random_mutations(
    rng: random.Random, plan: IncrementalPlan, n_ops: int
) -> None:
    """Drive a random op sequence; failed deltas are part of the test."""
    caps = plan.caps
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.2:
            vm_id = rng.choice(plan.vm_ids)
            plan.set_demand(
                vm_id, rng.uniform(10.0, 400.0), rng.uniform(0.5, 12.0)
            )
        elif op < 0.4:
            # Rows drawn with replacement: a repeated row's last value
            # must win, as it would one call at a time.
            rows = rng.choices(range(plan.n_vms), k=rng.randint(1, 6))
            plan.set_demands(
                rows,
                [rng.uniform(10.0, 400.0) for _ in rows],
                [rng.uniform(0.5, 12.0) for _ in rows],
            )
        else:
            n_movers = rng.randint(1, min(3, plan.n_vms))
            movers = rng.sample(plan.vm_ids, n_movers)
            targets = [
                None
                if rng.random() < 0.2
                else rng.choice(caps.host_ids)
                for _ in movers
            ]
            before = _capture(plan)
            try:
                plan.apply_delta(movers, targets)
            except PlacementError:
                # Atomicity: the failed delta restored everything.
                assert _capture(plan) == before


def _check_incremental_equals_rebuild(
    n_hosts: int, n_vms: int, n_ops: int, seed: int
) -> None:
    rng = random.Random(seed)
    plan = _random_plan(rng, n_hosts, n_vms)
    _assert_bitwise_equal(plan, _rebuild(plan))
    for _ in range(4):
        _random_mutations(rng, plan, n_ops)
        _assert_bitwise_equal(plan, _rebuild(plan))


class TestIncrementalEqualsRebuild:
    def test_seeded_sweep(self):
        rng = random.Random(20260808)
        for _ in range(20):
            _check_incremental_equals_rebuild(
                n_hosts=rng.randint(2, 6),
                n_vms=rng.randint(1, 12),
                n_ops=rng.randint(1, 15),
                seed=rng.randint(0, 10_000),
            )

    if HAVE_HYPOTHESIS:

        @settings(max_examples=40, deadline=None)
        @given(
            n_hosts=st.integers(2, 5),
            n_vms=st.integers(1, 10),
            n_ops=st.integers(1, 12),
            seed=st.integers(0, 2**20),
        )
        def test_hypothesis(self, n_hosts, n_vms, n_ops, seed):
            _check_incremental_equals_rebuild(n_hosts, n_vms, n_ops, seed)


class TestApplyDelta:
    def _two_host_plan(self):
        caps = HostCapacities(
            _fleet(2, cpu_rpe2=100.0, memory_gb=100.0),
            utilization_bound=1.0,
        )
        plan = IncrementalPlan(
            caps,
            ["a", "b", "c"],
            [60.0, 60.0, 10.0],
            [1.0, 1.0, 1.0],
        )
        plan.apply_delta(["a", "b", "c"], ["h0", "h1", "h0"])
        return plan

    def test_move_and_evict(self):
        plan = self._two_host_plan()
        touched = plan.apply_delta(["c", "a"], ["h1", None])
        assert touched == [0, 1]
        assert plan.host_of("a") is None
        assert plan.host_of("c") == "h1"
        assert plan.body_cpu[0] == 0.0
        assert plan.body_cpu[1] == 70.0

    def test_failed_delta_restores_everything(self):
        plan = self._two_host_plan()
        before = _capture(plan)
        # "c" fits on h1, but "a" (60) cannot join it (60+60+10 > 100):
        # the whole delta must roll back, including c's successful move.
        with pytest.raises(PlacementError):
            plan.apply_delta(["c", "a"], ["h1", "h1"])
        assert _capture(plan) == before

    def test_swap_within_one_delta(self):
        # Movers are pulled off first, so a pairwise swap that would
        # deadlock under move-at-a-time admission succeeds in one delta.
        plan = self._two_host_plan()
        plan.apply_delta(["a", "b"], ["h1", "h0"])
        assert plan.host_of("a") == "h1"
        assert plan.host_of("b") == "h0"

    def test_duplicate_mover_rejected(self):
        plan = self._two_host_plan()
        before = _capture(plan)
        with pytest.raises(PlacementError):
            plan.apply_delta(["a", "a"], ["h1", "h1"])
        assert _capture(plan) == before

    def test_mismatched_lengths_rejected(self):
        plan = self._two_host_plan()
        with pytest.raises(PlacementError):
            plan.apply_delta(["a"], ["h1", "h0"])

    def test_unknown_ids_rejected(self):
        plan = self._two_host_plan()
        with pytest.raises(PlacementError):
            plan.apply_delta(["nope"], ["h1"])
        with pytest.raises(PlacementError):
            plan.apply_delta(["a"], ["nope"])


class TestSetDemands:
    def test_batch_equals_rows_one_by_one_and_rebuild(self):
        rng = random.Random(20261017)
        for _ in range(30):
            plan = _random_plan(rng, rng.randint(2, 6), rng.randint(1, 14))
            _random_mutations(rng, plan, rng.randint(0, 8))
            one_by_one = _rebuild(plan)
            rows = rng.choices(
                range(plan.n_vms), k=rng.randint(1, 2 * plan.n_vms)
            )
            columns = [
                [rng.uniform(10.0, 400.0) for _ in rows],
                [rng.uniform(0.5, 12.0) for _ in rows],
                [rng.uniform(0.0, 100.0) for _ in rows],
                [rng.uniform(0.0, 100.0) for _ in rows],
            ]
            plan.set_demands(rows, *columns)
            for row, *values in zip(rows, *columns):
                one_by_one.set_demand(plan.vm_ids[row], *values)
            assert _capture(plan) == _capture(one_by_one)
            _assert_bitwise_equal(plan, _rebuild(plan))

    def test_omitted_io_keeps_current_values(self):
        plan = _random_plan(random.Random(3), 3, 5)
        plan.set_demands(
            [0, 1], [1.0, 2.0], [1.0, 2.0], [7.0, 8.0], [9.0, 9.5]
        )
        plan.set_demands([1, 0], [3.0, 4.0], [3.0, 4.0])
        assert plan.cpu[:2] == [4.0, 3.0]
        assert plan.net[:2] == [7.0, 8.0]
        assert plan.dsk[:2] == [9.0, 9.5]
        _assert_bitwise_equal(plan, _rebuild(plan))

    @pytest.mark.parametrize("column", range(4))
    def test_one_negative_value_rejects_the_whole_batch(self, column):
        plan = _random_plan(random.Random(11), 3, 6)
        before = _capture(plan)
        columns = [[50.0, 60.0, 70.0] for _ in range(4)]
        # The bad value is in the last row, after rows that would
        # otherwise already have been written.
        columns[column][2] = -1.0
        with pytest.raises(PlacementError):
            plan.set_demands([0, 1, 2], *columns)
        assert _capture(plan) == before

    @pytest.mark.parametrize(
        "rows, n_values", [([0, 6], 2), ([0, -1], 2), ([0, 1], 1)]
    )
    def test_bad_rows_or_lengths_change_nothing(self, rows, n_values):
        plan = _random_plan(random.Random(12), 3, 6)
        before = _capture(plan)
        with pytest.raises(PlacementError):
            plan.set_demands(rows, [5.0] * n_values, [1.0] * n_values)
        assert _capture(plan) == before


class TestQueries:
    def test_active_hosts_and_assignment(self):
        caps = HostCapacities(_fleet(3), utilization_bound=0.9)
        plan = IncrementalPlan(
            caps, ["a", "b", "c"], [10.0, 10.0, 10.0], [1.0, 1.0, 1.0]
        )
        plan.apply_delta(["a", "b"], ["h2", "h0"])
        assert plan.active_hosts() == [0, 2]
        assert plan.assignment() == {"a": "h2", "b": "h0"}

    def test_set_demand_refolds_only_placed_hosts(self):
        caps = HostCapacities(_fleet(2), utilization_bound=0.9)
        plan = IncrementalPlan(
            caps, ["a", "b"], [10.0, 20.0], [1.0, 2.0]
        )
        plan.apply_delta(["a"], ["h0"])
        plan.set_demand("a", 50.0, 3.0)
        assert plan.body_cpu[0] == 50.0
        assert plan.body_mem[0] == 3.0
        # Unassigned VM: demand recorded, no body touched.
        plan.set_demand("b", 99.0, 9.0)
        assert plan.body_cpu == [50.0, 0.0]
        with pytest.raises(PlacementError):
            plan.set_demand("a", -1.0, 1.0)

    def test_capacities_validation(self):
        with pytest.raises(PlacementError):
            HostCapacities([], utilization_bound=0.9)
        caps = HostCapacities(_fleet(2), utilization_bound=0.5)
        assert caps.cap_cpu == [500.0, 500.0]
        assert caps.eps_cpu[0] == 500.0 + 1e-9

    @pytest.mark.parametrize("bound", [0.0, -0.2, 1.5, float("nan")])
    def test_bound_outside_unit_interval_rejected(self, bound):
        # A zero bound used to pass and divide by zero in the first
        # residual or fill; the others passed silently.
        with pytest.raises(ConfigurationError, match=r"in \(0, 1\]"):
            HostCapacities(_fleet(2), utilization_bound=bound)
        assert HostCapacities(_fleet(2), utilization_bound=1.0).cap_cpu == [
            1000.0, 1000.0,
        ]


# ----------------------------------------------------------------------
# The shared vacate search.


def _random_io_plan(
    rng: random.Random, n_hosts: int, n_vms: int
) -> IncrementalPlan:
    """A crowded plan whose VMs load every resource, I/O included."""
    caps = HostCapacities(_fleet(n_hosts), utilization_bound=0.9)
    vm_ids = [f"vm{i}" for i in range(n_vms)]
    plan = IncrementalPlan(
        caps,
        vm_ids,
        [rng.uniform(50.0, 450.0) for _ in vm_ids],
        [rng.uniform(1.0, 25.0) for _ in vm_ids],
        [rng.uniform(0.0, 4000.0) for _ in vm_ids],
        [rng.uniform(0.0, 1500.0) for _ in vm_ids],
    )
    for row, vm_id in enumerate(vm_ids):
        targets = list(range(n_hosts))
        rng.shuffle(targets)
        for host in targets:
            if plan.fits(row, host):
                plan.apply_delta([vm_id], [caps.host_ids[host]])
                break
    return plan


def _oracle_targets(plan, source, rows, candidates, allows=None):
    """Brute force: each check re-folds the pending load from the moves."""
    caps = plan.caps
    moves = []
    for row in rows:
        for host in candidates:
            if host == source:
                continue
            pending = [0.0, 0.0, 0.0, 0.0]
            for moved, target in moves:
                if target == host:
                    pending[0] += plan.cpu[moved]
                    pending[1] += plan.mem[moved]
                    pending[2] += plan.net[moved]
                    pending[3] += plan.dsk[moved]
            if (
                plan.body_cpu[host] + pending[0] + plan.cpu[row]
                <= caps.eps_cpu[host]
                and plan.body_mem[host] + pending[1] + plan.mem[row]
                <= caps.eps_mem[host]
                and plan.body_net[host] + pending[2] + plan.net[row]
                <= caps.eps_net[host]
                and plan.body_dsk[host] + pending[3] + plan.dsk[row]
                <= caps.eps_dsk[host]
                and (allows is None or allows(row, host, list(moves)))
            ):
                moves.append((row, host))
                break
        else:
            return None
    return moves


def _vacate_cases(seed: int, n_cases: int):
    """Random (plan, source, rows, candidates) draws.

    Rows come in random order; candidates are a random ordered subset
    of all hosts, so the source and empty hosts appear in some draws.
    """
    rng = random.Random(seed)
    for _ in range(n_cases):
        plan = _random_io_plan(rng, rng.randint(2, 6), rng.randint(2, 14))
        source = rng.choice(plan.active_hosts())
        rows = list(plan.vm_rows_of_host[source])
        rng.shuffle(rows)
        candidates = rng.sample(
            range(plan.n_hosts), rng.randint(1, plan.n_hosts)
        )
        yield plan, source, rows, candidates


def _spread(row: int, host: int, moves) -> bool:
    """A pure predicate that refuses about a third of all picks."""
    return (7 * row + 3 * host + len(moves)) % 3 != 0


class TestVacateTargets:
    def test_matches_brute_force_oracle(self):
        outcomes = {"placed": 0, "refused": 0}
        for plan, source, rows, candidates in _vacate_cases(7, 300):
            before = _capture(plan)
            moves = plan.vacate_targets(source, rows, candidates)
            # Read-only: the plan is byte-equal after the search.
            assert _capture(plan) == before
            # None exactly when some row has no admissible candidate.
            assert moves == _oracle_targets(plan, source, rows, candidates)
            if moves is None:
                outcomes["refused"] += 1
                continue
            outcomes["placed"] += 1
            assert [row for row, _ in moves] == rows
            for _, host in moves:
                assert host != source
                assert host in candidates
        assert min(outcomes.values()) >= 30, outcomes

    def test_allows_is_honoured(self):
        vetoed = 0
        for plan, source, rows, candidates in _vacate_cases(11, 300):
            seen = []

            def allows(row, host, moves):
                seen.append((row, host, list(moves)))
                return _spread(row, host, moves)

            before = _capture(plan)
            moves = plan.vacate_targets(source, rows, candidates, allows)
            assert _capture(plan) == before
            assert moves == _oracle_targets(
                plan, source, rows, candidates, _spread
            )
            if plan.vacate_targets(source, rows, candidates) != moves:
                vetoed += 1
            # Every call sees exactly the picks made before its row.
            for row, _, earlier in seen:
                index = rows.index(row)
                assert [moved for moved, _ in earlier] == rows[:index]
                if moves is not None:
                    assert earlier == moves[:index]
            for index, (row, host) in enumerate(moves or []):
                assert _spread(row, host, moves[:index])
        assert vetoed >= 30

    def test_apply_delta_commit_never_overfills(self):
        committed = 0
        for plan, source, rows, candidates in _vacate_cases(13, 300):
            moves = plan.vacate_targets(source, rows, candidates)
            if not moves:
                continue
            caps = plan.caps
            before = _capture(plan)
            try:
                plan.apply_delta(
                    [plan.vm_ids[row] for row, _ in moves],
                    [caps.host_ids[host] for _, host in moves],
                )
            except PlacementError:
                assert _capture(plan) == before
                continue
            committed += 1
            assert plan.vm_rows_of_host[source] == []
            for host in range(plan.n_hosts):
                assert plan.body_cpu[host] <= caps.eps_cpu[host]
                assert plan.body_mem[host] <= caps.eps_mem[host]
                assert plan.body_net[host] <= caps.eps_net[host]
                assert plan.body_dsk[host] <= caps.eps_dsk[host]
            _assert_bitwise_equal(plan, _rebuild(plan))
        assert committed >= 30

    def test_commit_vacate_appends_then_clears_the_source(self):
        caps = HostCapacities(
            _fleet(3, cpu_rpe2=100.0, memory_gb=100.0), utilization_bound=1.0
        )
        plan = IncrementalPlan(
            caps, ["a", "b", "c", "d"], [40.0, 30.0, 20.0, 10.0], [1.0] * 4
        )
        for row, host in ((0, 1), (1, 0), (2, 0), (3, 2)):
            plan.assign(row, host)
        moves = plan.vacate_targets(0, [1, 2], [1, 2, 0])
        assert moves == [(1, 1), (2, 1)]
        plan.commit_vacate(0, moves)
        assert plan.vm_rows_of_host == [[], [0, 1, 2], [3]]
        assert plan.assignment_rows == [1, 1, 1, 2]
        # Append folds in move order, not a canonical re-fold.
        assert plan.body_cpu == [0.0, (40.0 + 30.0) + 20.0, 10.0]
        assert plan.body_mem[0] == 0.0
        # A stale move is re-checked against the committed state.
        with pytest.raises(PlacementError, match="does not fit"):
            plan.commit_vacate(2, [(3, 1), (3, 1)])

    def test_residual_and_fill(self):
        caps = HostCapacities(
            _fleet(2, cpu_rpe2=200.0, memory_gb=10.0), utilization_bound=0.5
        )
        plan = IncrementalPlan(caps, ["a"], [25.0], [4.0])
        plan.assign(0, 1)
        # CPU 25 of 100 (residual 0.75), memory 4 of 5 (residual 0.2).
        assert plan.residual(1) == min((100.0 - 25.0) / 100.0, (5.0 - 4.0) / 5.0)
        assert plan.fill(1) == max(25.0 / 100.0, 4.0 / 5.0)
        assert plan.residual(0) == 1.0
        assert plan.fill(0) == 0.0


class TestVacateRuledOut:
    """The dynamic planner's capacity rule never rules out a success."""

    def test_a_ruled_out_source_never_finds_targets(self):
        rng = random.Random(23)
        allows_choices = (None, _spread, lambda row, host, moves: True)
        ruled = 0
        cases = 600
        for _ in range(cases):
            plan = _random_io_plan(
                rng, rng.randint(2, 8), rng.randint(2, 24)
            )
            if rng.random() < 0.5:
                # Some plans first commit a vacate with append folds, as
                # the planner's sweep does between attempts.
                emptied = rng.choice(plan.active_hosts())
                moves = plan.vacate_targets(
                    emptied,
                    list(plan.vm_rows_of_host[emptied]),
                    rng.sample(range(plan.n_hosts), plan.n_hosts),
                )
                if moves is not None:
                    plan.commit_vacate(emptied, moves)
            caps = plan.caps
            for host in range(plan.n_hosts):
                assert plan.body_cpu[host] <= caps.eps_cpu[host]
                assert plan.body_mem[host] <= caps.eps_mem[host]
            source = rng.choice(plan.active_hosts())
            others = [h for h in range(plan.n_hosts) if h != source]
            candidates = rng.sample(others, rng.randint(0, len(others)))
            candidates.insert(rng.randint(0, len(candidates)), source)
            rows = list(plan.vm_rows_of_host[source])
            rng.shuffle(rows)
            ruled_out = plan.vacate_ruled_out(candidates)
            moves = plan.vacate_targets(
                source, rows, candidates, rng.choice(allows_choices)
            )
            if ruled_out(source):
                ruled += 1
                assert moves is None
        # The rule decides a real share of the draws, not a corner.
        assert ruled >= cases // 5, ruled

    def test_an_exact_fit_is_not_ruled_out(self):
        caps = HostCapacities(
            _fleet(2, cpu_rpe2=100.0, memory_gb=10.0), utilization_bound=1.0
        )
        plan = IncrementalPlan(caps, ["a", "b", "c"], [70.0, 20.0, 10.0],
                               [1.0, 1.0, 1.0])
        for row, host in ((0, 0), (1, 1), (2, 1)):
            plan.assign(row, host)
        ruled_out = plan.vacate_ruled_out([0, 1])
        # Host 0 has exactly 30 free, host 1 holds 30: the search fits.
        assert not ruled_out(1)
        assert plan.vacate_targets(1, [1, 2], [0]) == [(1, 0), (2, 0)]
        # Host 1 has 70 free and host 0 holds 70; one more unit is too many.
        assert not ruled_out(0)
        plan.set_demand("a", 70.5, 1.0)
        assert plan.vacate_ruled_out([0, 1])(0)
        assert plan.vacate_targets(0, [0], [1]) is None
