"""Hierarchical reconciliation pass semantics on hand-built plans.

Small, fully-determined fixtures (two racks, four hosts) pin the pass's
contract: rack-local vacates happen first, cross-rack vacates mop up
the rest, every vacate is all-or-nothing, and the vectorized prefilter
in :func:`reconcile_assignment` never touches plan state for an interval
with nothing to do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.exceptions import PlacementError
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.sharding.reconcile import reconcile_assignment
from repro.sizing.estimator import DemandTable

#: Two racks of two hosts each, 100 RPE2 / 100 GB per host.
_GROUP_OF_HOST = [0, 0, 1, 1]


def _caps() -> HostCapacities:
    hosts = [
        PhysicalServer(
            host_id=f"h{index}",
            spec=ServerSpec(cpu_rpe2=100.0, memory_gb=100.0),
        )
        for index in range(4)
    ]
    return HostCapacities(hosts, 1.0)


def _table(cpu_by_vm) -> DemandTable:
    """One interval's demands; memory never binds in these fixtures."""
    vm_ids = tuple(sorted(cpu_by_vm))
    column = np.array([[cpu_by_vm[vm]] for vm in vm_ids])
    return DemandTable(
        vm_ids=vm_ids,
        cpu_rpe2=column,
        memory_gb=np.full_like(column, 1.0),
        network_mbps=np.zeros_like(column),
        disk_mbps=np.zeros_like(column),
    )


def _reconcile(table, assignment, group_of_host=_GROUP_OF_HOST, **options):
    """``reconcile_assignment`` on the row form of ``assignment``;
    returns (input row, result mapping, moves)."""
    caps = _caps()
    row = np.array([caps.index_of[assignment[vm]] for vm in table.vm_ids])
    zeros = [0.0] * len(table.vm_ids)
    workspace = IncrementalPlan(caps, table.vm_ids, zeros, zeros)
    result, moves = reconcile_assignment(
        row, table, 0, workspace, group_of_host, **options
    )
    mapping = {
        vm: caps.host_ids[host]
        for vm, host in zip(table.vm_ids, result.tolist())
    }
    return row, mapping, moves


def _active(mapping):
    return sorted({int(host[1:]) for host in mapping.values()})


class TestReconcilePlan:
    """The hierarchical sweeps on hand-built intervals."""

    def test_vacates_under_filled_hosts_rack_first(self) -> None:
        # h1 and h3 are under-filled tails; both fit inside their rack.
        table = _table({"a": 30.0, "b": 30.0, "c": 10.0, "d": 55.0, "e": 5.0})
        _row, result, moves = _reconcile(
            table, {"a": "h0", "b": "h0", "c": "h1", "d": "h2", "e": "h3"}
        )
        assert moves == 2
        assert result["c"] == "h0"
        assert result["e"] == "h2"
        assert _active(result) == [0, 2]

    def test_cross_rack_vacate_when_rack_is_full(self) -> None:
        # h1's VM cannot fit on h0 (90+20 > 100) but fits on h2 in the
        # other rack: phase B must move it.
        table = _table({"a": 90.0, "b": 20.0, "c": 60.0})
        _row, result, moves = _reconcile(
            table, {"a": "h0", "b": "h1", "c": "h2"}
        )
        assert moves == 1
        assert result["b"] == "h2"

    def test_vacate_is_all_or_nothing(self) -> None:
        # h1 holds two VMs; only one of them fits anywhere else.  A
        # partial move would strand the host active anyway, so the pass
        # must leave the assignment untouched.
        table = _table({"a": 80.0, "b": 30.0, "c": 18.0, "d": 85.0, "e": 82.0})
        before = {"a": "h0", "b": "h1", "c": "h1", "d": "h2", "e": "h3"}
        _row, result, moves = _reconcile(table, before)
        assert moves == 0
        assert result == before

    def test_rack_pass_skips_hosts_emptied_earlier_in_the_sweep(self) -> None:
        # Three hosts in rack 0.  Vacating h1 into h0 empties h1; h2 then
        # fits nowhere still active in its rack (h0 is at 70) and must
        # not be moved onto the just-emptied h1, which frees nothing.
        # Across racks h3 is too full, so h2 stays put.
        table = _table({"a": 60.0, "b": 10.0, "c": 45.0, "d": 80.0})
        _row, result, moves = _reconcile(
            table,
            {"a": "h0", "b": "h1", "c": "h2", "d": "h3"},
            [0, 0, 0, 1],
        )
        assert moves == 1
        assert result["b"] == "h0"
        assert _active(result) == [0, 2, 3]

    def test_respects_fill_threshold(self) -> None:
        # At threshold 0.05 nothing is "under-filled", so nothing moves.
        table = _table({"a": 30.0, "b": 10.0})
        _row, _result, moves = _reconcile(
            table, {"a": "h0", "b": "h1"}, fill_threshold=0.05
        )
        assert moves == 0

    def test_rejects_bad_threshold(self) -> None:
        with pytest.raises(PlacementError, match="fill_threshold"):
            _reconcile(_table({"a": 10.0}), {"a": "h0"}, fill_threshold=0.0)


class TestReconcileAssignment:
    def test_moves_tail_vms_and_reports_count(self) -> None:
        table = _table({"a": 30.0, "b": 30.0, "c": 10.0})
        assignment = {"a": "h0", "b": "h0", "c": "h1"}
        row, result, moves = _reconcile(table, assignment)
        assert moves == 1
        assert result["c"] == "h0"
        # The input row is never written.
        assert row.tolist() == [0, 0, 1]

    def test_prefilter_skips_balanced_intervals(self) -> None:
        table = _table({"a": 60.0, "b": 70.0})
        assignment = {"a": "h0", "b": "h1"}
        _row, result, moves = _reconcile(table, assignment)
        assert moves == 0
        assert result == assignment

    @pytest.mark.parametrize(
        "row, match",
        [
            ([0, 0], "cover the same VMs"),
            ([0, 0, -1], r"host index is not in \[0, 4\)"),
            ([0, 1, 9], r"host index is not in \[0, 4\)"),
            ([0, 4, 1], r"host index is not in \[0, 4\)"),
        ],
        ids=["wrong-length", "unassigned", "too-large", "one-past-the-end"],
    )
    def test_rejects_bad_rows(self, row, match) -> None:
        table = _table({"a": 30.0, "b": 30.0, "c": 10.0})
        zeros = [0.0] * len(table.vm_ids)
        workspace = IncrementalPlan(_caps(), table.vm_ids, zeros, zeros)
        with pytest.raises(PlacementError, match=match):
            reconcile_assignment(
                np.array(row), table, 0, workspace, _GROUP_OF_HOST
            )
