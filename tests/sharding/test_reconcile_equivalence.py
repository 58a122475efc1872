"""The array merge and reconcile path equals the dict pipeline.

:class:`~repro.sharding.planner.ShardedConsolidation` merges shard
schedules into one host-index matrix and reconciles every interval on
one reloaded :class:`~repro.core.incremental.IncrementalPlan`;
``tests/reference/reconcile.py`` keeps the union-dict pipeline it
replaced.  Over generated fleets, shard counts 1, 2 and 4, with and
without reconciliation, fill thresholds 0.3 / 0.5 / 0.9 and one or two
sweeps, both must produce the same mapping in every interval, the same
moves and the same active-host counts.  Hand-built intervals pin the
two paths that random fleets reach only by chance: an interval the
prefilter skips and a vacate that ``apply_delta`` aborts.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import build_target_pool
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.sharding.planner import ShardedConsolidation, shard_context
from repro.sharding.reconcile import reconcile_assignment
from repro.sizing.estimator import DemandTable
from repro.workloads.datacenters import generate_datacenter
from tests.reference.reconcile import (
    reconcile_assignment_reference,
    sharded_plan_reference,
)

#: (preset, scale, seed): about a hundred VMs each, on a pool of half as
#: many hosts in racks of eight, so four shards still get whole racks.
FLEETS = [
    ("banking", 120 / 816, 3),
    ("natural-resources", 0.08, 17),
]

CASES = [(n_shards, False, 0.5, 2) for n_shards in (1, 2, 4)] + [
    (n_shards, True, threshold, sweeps)
    for n_shards in (1, 2, 4)
    for threshold in (0.3, 0.5, 0.9)
    for sweeps in (1, 2)
]


@pytest.fixture(scope="module", params=FLEETS, ids=lambda f: f[0])
def fleet(request):
    """A planning context plus its shard plans, planned once per count."""
    name, scale, seed = request.param
    traces = generate_datacenter(name, scale=scale, days=4, seed=seed)
    context = PlanningContext(
        history=traces.window(0, 48),
        evaluation=traces.window(48, int(traces.duration_hours)),
        datacenter=build_target_pool(
            "equivalence-pool",
            host_count=len(traces) // 2,
            hosts_per_rack=8,
        ),
        config=PlanningConfig(),
    )
    return context, {}


def _shard_plans(fleet, n_shards):
    context, planned = fleet
    if n_shards not in planned:

        def plan_shards(shards, ctx):
            planned[n_shards] = [
                DynamicConsolidation().plan(shard_context(shard, ctx))
                for shard in shards
            ]
            return planned[n_shards]

        ShardedConsolidation(
            n_shards=n_shards, reconcile=False, plan_shards=plan_shards
        ).plan(context)
    return planned[n_shards]


@pytest.mark.parametrize("n_shards, reconcile, threshold, sweeps", CASES)
def test_array_path_equals_dict_pipeline(
    fleet, n_shards, reconcile, threshold, sweeps
) -> None:
    context, _ = fleet
    schedules = _shard_plans(fleet, n_shards)
    algorithm = ShardedConsolidation(
        n_shards=n_shards,
        reconcile=reconcile,
        fill_threshold=threshold,
        max_reconcile_sweeps=sweeps,
        plan_shards=lambda _shards, _context: list(schedules),
    )
    schedule = algorithm.plan(context)
    expected, moves, before, after = sharded_plan_reference(
        algorithm, context, schedules
    )
    assert [
        (s.start_hour, s.end_hour) for s in schedule
    ] == [(s.start_hour, s.end_hour) for s in schedules[0]]
    assert [dict(s.placement.assignment) for s in schedule] == expected
    report = algorithm.last_report
    assert report.reconcile_moves == moves
    assert report.active_hosts_before == before
    assert report.active_hosts_after == after
    if reconcile and n_shards > 1 and threshold >= 0.5:
        # The comparison is not vacuous: the shard tails do get vacated.
        assert moves > 0
    if n_shards > 1:
        vm_ids = list(context.evaluation.vm_ids)
        assert all(list(s.placement.assignment) == vm_ids for s in schedule)


# ----------------------------------------------------------------------
# Hand-built intervals on reconcile_assignment


def _caps(n_hosts: int) -> HostCapacities:
    return HostCapacities(
        [
            PhysicalServer(
                host_id=f"h{index}",
                spec=ServerSpec(cpu_rpe2=100.0, memory_gb=100.0),
            )
            for index in range(n_hosts)
        ],
        1.0,
    )


def _table(cpu: np.ndarray, mem: np.ndarray) -> DemandTable:
    return DemandTable(
        vm_ids=tuple(f"vm{row}" for row in range(cpu.shape[0])),
        cpu_rpe2=cpu,
        memory_gb=mem,
        network_mbps=np.zeros_like(cpu),
        disk_mbps=np.zeros_like(cpu),
    )


def _workspace(caps: HostCapacities, table: DemandTable) -> IncrementalPlan:
    zeros = [0.0] * len(table.vm_ids)
    return IncrementalPlan(caps, table.vm_ids, zeros, zeros)


def _both(hosts, table, caps, group_of_host, plan=None, **knobs):
    """Reconcile every column both ways; returns [(array, dict)] pairs."""
    plan = _workspace(caps, table) if plan is None else plan
    pairs = []
    for column, row in enumerate(hosts):
        result, moves = reconcile_assignment(
            row, table, column, plan, group_of_host, **knobs
        )
        assignment = {
            vm: caps.host_ids[host] for vm, host in zip(table.vm_ids, row)
        }
        expected, expected_moves = reconcile_assignment_reference(
            assignment, table, column, caps, group_of_host, **knobs
        )
        mapping = {
            vm: caps.host_ids[host]
            for vm, host in zip(table.vm_ids, result.tolist())
        }
        pairs.append(((mapping, moves), (expected, expected_moves)))
    return pairs


def _random_interval(rng: random.Random, caps, n_vms, cpu, mem):
    """A first-fit assignment over shuffled hosts, capacity respected."""
    body_cpu = [0.0] * caps.n
    body_mem = [0.0] * caps.n
    row = []
    for vm in range(n_vms):
        hosts = list(range(caps.n))
        rng.shuffle(hosts)
        for host in hosts:
            if (
                body_cpu[host] + cpu[vm] <= caps.cap_cpu[host]
                and body_mem[host] + mem[vm] <= caps.cap_mem[host]
            ):
                break
        body_cpu[host] += cpu[vm]
        body_mem[host] += mem[vm]
        row.append(host)
    return row


@pytest.mark.parametrize("seed", range(12))
def test_random_intervals_on_one_workspace(seed: int) -> None:
    rng = random.Random(seed)
    caps = _caps(12)
    group_of_host = [host // 4 for host in range(caps.n)]
    n_vms, n_intervals = 30, 8
    gen = np.random.default_rng(seed)
    cpu = gen.uniform(1.0, 30.0, (n_vms, n_intervals))
    mem = gen.uniform(1.0, 25.0, (n_vms, n_intervals))
    table = _table(cpu, mem)
    hosts = np.array(
        [
            _random_interval(rng, caps, n_vms, cpu[:, c], mem[:, c])
            for c in range(n_intervals)
        ]
    )
    for threshold in (0.3, 0.5, 0.9):
        for sweeps in (1, 2):
            # One workspace plan serves every interval and every knob:
            # a reload must leave nothing of the previous interval.
            pairs = _both(
                hosts, table, caps, group_of_host,
                fill_threshold=threshold, max_sweeps=sweeps,
            )
            for got, expected in pairs:
                assert got == expected


def test_prefilter_skip_touches_no_plan_state(monkeypatch) -> None:
    # Interval 0: both active hosts are over half full, so the
    # prefilter skips it; interval 1: h1 is a tail that h0 absorbs.
    caps = _caps(4)
    cpu = np.array([[60.0, 30.0], [70.0, 10.0]])
    table = _table(cpu, np.ones_like(cpu))
    hosts = np.array([[0, 1], [0, 1]])
    loads = []
    load = IncrementalPlan.load

    def counting_load(self, *args):
        loads.append(args)
        return load(self, *args)

    monkeypatch.setattr(IncrementalPlan, "load", counting_load)
    plan = _workspace(caps, table)
    row = hosts[0]
    skipped, moves = reconcile_assignment(row, table, 0, plan, [0, 0, 1, 1])
    assert skipped is row and moves == 0
    assert loads == []
    pairs = _both(hosts, table, caps, [0, 0, 1, 1], plan=plan)
    assert [got for got, _ in pairs] == [expected for _, expected in pairs]
    assert pairs[0][0] == ({"vm0": "h0", "vm1": "h1"}, 0)
    assert pairs[1][0] == ({"vm0": "h0", "vm1": "h0"}, 1)
    # Only interval 1 reached the plan.
    assert len(loads) == 1


def _abort_demands(eps: float):
    """CPU demands of rows 0–3 that make ``apply_delta`` abort a vacate.

    Host 0 holds rows 0 and 2, host 1 rows 1 and 3.  Vacating host 1
    moves row 1 then row 3 onto host 0: the search admits row 3 against
    ``((c0 + c2) + c1) + c3``, while ``apply_delta`` re-folds host 0 in
    row order and checks ``((c0 + c1) + c2) + c3``.  A seeded search
    finds ``c0, c1, c2`` whose two folds differ and sets ``c3`` so that
    only the first fits under ``eps``.
    """
    rng = random.Random(7)
    while True:
        c0, c1, c2 = (rng.uniform(33, 35), rng.uniform(20, 22),
                      rng.uniform(33, 35))
        search, commit = (c0 + c2) + c1, (c0 + c1) + c2
        if not search < commit:
            continue
        c3 = eps - search
        while search + c3 > eps:
            c3 = float(np.nextafter(c3, 0.0))
        while search + float(np.nextafter(c3, np.inf)) <= eps:
            c3 = float(np.nextafter(c3, np.inf))
        if commit + c3 > eps:
            return [c0, c1, c2, c3]


def test_vacate_aborted_by_apply_delta(monkeypatch) -> None:
    caps = _caps(2)
    cpu = np.array([[value] for value in _abort_demands(caps.eps_cpu[0])])
    table = _table(cpu, np.ones_like(cpu))
    hosts = np.array([[0, 1, 0, 1]])
    aborted = []
    apply_delta = IncrementalPlan.apply_delta

    def counting_apply_delta(self, vm_ids, target_hosts):
        try:
            return apply_delta(self, vm_ids, target_hosts)
        except PlacementError:
            aborted.append(tuple(vm_ids))
            raise

    monkeypatch.setattr(IncrementalPlan, "apply_delta", counting_apply_delta)
    [(got, expected)] = _both(hosts, table, caps, [0, 0], max_sweeps=2)
    assert got == expected
    assert got == ({"vm0": "h0", "vm1": "h1", "vm2": "h0", "vm3": "h1"}, 0)
    # Both paths tried the vacate (rack-local, then cross-rack) and
    # apply_delta refused it every time.
    assert aborted == [("vm1", "vm3")] * 4
