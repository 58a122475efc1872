"""Hierarchical cross-shard reconciliation.

Per-shard planning leaves each shard with its own partially filled tail
hosts; with ``S`` shards that is up to ``S - 1`` extra active hosts per
interval versus the unsharded plan.  Reconciliation closes that gap on
the *merged* assignment: under-filled hosts are vacated all-or-nothing
into fuller hosts — first within their own rack (cheap, local moves),
then across racks for whatever is left.  Targets come from the same
search the dynamic planner vacates with
(:meth:`~repro.core.incremental.IncrementalPlan.vacate_targets`, with
its ``capacity + 1e-9`` fit rule), so a reconciled placement satisfies
exactly the invariants the shard plans did.

The pass is deliberately greedy and bounded: sources are only hosts
below the fill threshold (the shard-boundary tail, a handful per shard),
each vacate is all-or-nothing and atomic
(:meth:`IncrementalPlan.apply_delta` rolls back on any misfit), and the
sweep count is capped.

An interval's merged assignment is a row of host indices, one per VM
row of the fleet-wide demand table; every interval of a schedule is
reconciled on one :class:`IncrementalPlan`, reloaded from that row
(:meth:`IncrementalPlan.load`), and only the intervals the prefilter
lets through touch it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.incremental import IncrementalPlan
from repro.exceptions import PlacementError
from repro.sizing.estimator import DemandTable

__all__ = ["reconcile_assignment"]


def _try_vacate(
    plan: IncrementalPlan, source: int, targets: List[int]
) -> int:
    """All-or-nothing vacate of ``source`` into ``targets``.

    Each VM, largest first, takes the fullest of ``targets`` that admits
    it with this attempt's earlier picks counted
    (:meth:`~repro.core.incremental.IncrementalPlan.vacate_targets`);
    the commit is one atomic
    :meth:`~repro.core.incremental.IncrementalPlan.apply_delta`.
    ``targets`` ascend, so the stable fullest-first sort breaks ties on
    the host index.  Returns the number of VMs moved (0 when the vacate
    fails).
    """
    moves = plan.vacate_targets(
        source,
        sorted(
            plan.vm_rows_of_host[source], key=plan.cpu.__getitem__,
            reverse=True,
        ),
        sorted(targets, key=plan.residual),
    )
    if not moves:
        return 0
    try:
        plan.apply_delta(
            [plan.vm_ids[row] for row, _ in moves],
            [plan.caps.host_ids[target] for _, target in moves],
        )
    except PlacementError:
        # The pending folds approximated the canonical folds the commit
        # re-checks; a last-ulp divergence aborts this vacate cleanly
        # (apply_delta restored every accumulator).
        return 0
    return len(moves)


def _sweep(
    plan: IncrementalPlan,
    group_of_host: Sequence[int],
    active: List[int],
    fill_threshold: float,
    max_sweeps: int,
) -> int:
    """Hierarchical vacate sweeps, from the ascending ``active`` hosts.

    Phase A visits each topology group (rack) and vacates its
    under-filled hosts into other active hosts *of the same group*;
    phase B retries the survivors against every active host.  Sources
    go emptiest-first so the cheapest hosts free up first; both phases
    repeat up to ``max_sweeps`` times or until a sweep changes nothing.
    Returns the total number of VM moves committed.

    Every target already carries VMs and a committed vacate empties
    exactly its source, so the active list only ever loses hosts: it is
    kept current by dropping emptied hosts, never by rescanning every
    host of the plan.
    """
    rows_of_host = plan.vm_rows_of_host
    moves = 0
    for _ in range(max_sweeps):
        changed = False
        if len(active) <= 1:
            break
        under = [host for host in active if plan.fill(host) < fill_threshold]
        if not under:
            break
        under.sort(key=lambda h: (len(rows_of_host[h]), plan.body_cpu[h]))

        # Phase A: intra-group (rack-local) vacates, into the peers
        # still active (an earlier vacate of the sweep may have emptied
        # one).
        active_in_group: Dict[int, List[int]] = {}
        for host in active:
            active_in_group.setdefault(group_of_host[host], []).append(host)
        for source in under:
            peers = [
                host
                for host in active_in_group[group_of_host[source]]
                if rows_of_host[host]
            ]
            if len(peers) <= 1:
                continue
            moved = _try_vacate(plan, source, peers)
            if moved:
                moves += moved
                changed = True

        # Phase B: cross-group vacates for the residual under-filled.
        active = [host for host in active if rows_of_host[host]]
        survivors = [
            host
            for host in under
            if rows_of_host[host] and plan.fill(host) < fill_threshold
        ]
        for source in survivors:
            moved = _try_vacate(plan, source, active)
            if moved:
                moves += moved
                changed = True
                active = [host for host in active if host != source]
        if not changed:
            break
    return moves


def reconcile_assignment(
    host_of_row: np.ndarray,
    table: DemandTable,
    column: int,
    plan: IncrementalPlan,
    group_of_host: Sequence[int],
    *,
    fill_threshold: float = 0.5,
    max_sweeps: int = 2,
) -> Tuple[np.ndarray, int]:
    """Reconcile one interval's merged assignment; returns (result, moves).

    ``host_of_row`` holds the interval's host index for every row of
    ``table``, the fleet-wide sized demands (one column per interval).
    ``plan`` is the workspace: an :class:`IncrementalPlan` over
    ``table.vm_ids`` and the fleet's hosts, bulk-reloaded
    (:meth:`~repro.core.incremental.IncrementalPlan.load`) from the row
    and the column for each interval that needs it, so a whole schedule
    reconciles on one plan.  A vectorized bincount prefilter skips an
    interval with no under-filled active host without touching
    ``plan``; its host counts are the first sweep's active list.  The
    input row is never written: the result is a new row when VMs moved
    and ``host_of_row`` itself when none did.
    """
    if not 0 < fill_threshold <= 1:
        raise PlacementError(
            f"fill_threshold must be in (0, 1], got {fill_threshold}"
        )
    caps = plan.caps
    host_of_row = np.asarray(host_of_row, dtype=np.intp)
    if (
        plan.n_vms != len(table.vm_ids)
        or host_of_row.shape != (plan.n_vms,)
    ):
        raise PlacementError(
            "reconcile_assignment: the row, the demand table and the "
            "plan must cover the same VMs"
        )
    if plan.n_vms and not 0 <= host_of_row.min() <= host_of_row.max() < caps.n:
        raise PlacementError(
            f"reconcile_assignment: a row's host index is not in [0, {caps.n})"
        )
    cpu_col = table.cpu_rpe2[:, column]
    mem_col = table.memory_gb[:, column]
    active = np.flatnonzero(np.bincount(host_of_row, minlength=caps.n))
    body_cpu = np.bincount(host_of_row, weights=cpu_col, minlength=caps.n)
    body_mem = np.bincount(host_of_row, weights=mem_col, minlength=caps.n)
    fills = np.maximum(
        body_cpu[active] / caps.cap_cpu_np[active],
        body_mem[active] / caps.cap_mem_np[active],
    )
    if len(active) <= 1 or not (fills < fill_threshold).any():
        return host_of_row, 0

    plan.load(
        host_of_row,
        cpu_col,
        mem_col,
        table.network_mbps[:, column],
        table.disk_mbps[:, column],
    )
    moves = _sweep(
        plan, group_of_host, active.tolist(), fill_threshold, max_sweeps
    )
    if not moves:
        return host_of_row, 0
    return np.array(plan.assignment_rows, dtype=np.intp), moves
