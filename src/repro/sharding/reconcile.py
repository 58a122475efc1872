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
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.exceptions import PlacementError
from repro.sizing.estimator import DemandTable

__all__ = ["reconcile_assignment", "reconcile_plan"]


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


def reconcile_plan(
    plan: IncrementalPlan,
    group_of_host: Sequence[int],
    *,
    fill_threshold: float = 0.5,
    max_sweeps: int = 2,
) -> int:
    """Hierarchical vacate pass over one interval's merged plan.

    Phase A visits each topology group (rack) and vacates its
    under-filled hosts into other active hosts *of the same group*;
    phase B retries the survivors against every active host.  Sources
    go emptiest-first so the cheapest hosts free up first; both phases
    repeat up to ``max_sweeps`` times or until a sweep changes nothing.
    Returns the total number of VM moves committed.
    """
    if not 0 < fill_threshold <= 1:
        raise PlacementError(
            f"fill_threshold must be in (0, 1], got {fill_threshold}"
        )
    moves = 0
    for _ in range(max_sweeps):
        changed = False
        active = plan.active_hosts()
        if len(active) <= 1:
            break
        under = [host for host in active if plan.fill(host) < fill_threshold]
        if not under:
            break
        under.sort(key=lambda h: (len(plan.vm_rows_of_host[h]), plan.body_cpu[h]))

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
                if plan.vm_rows_of_host[host]
            ]
            if len(peers) <= 1:
                continue
            moved = _try_vacate(plan, source, peers)
            if moved:
                moves += moved
                changed = True

        # Phase B: cross-group vacates for the residual under-filled.
        active = plan.active_hosts()
        survivors = [
            host
            for host in under
            if plan.vm_rows_of_host[host]
            and plan.fill(host) < fill_threshold
        ]
        for source in survivors:
            moved = _try_vacate(plan, source, active)
            if moved:
                moves += moved
                changed = True
                active = plan.active_hosts()
        if not changed:
            break
    return moves


def reconcile_assignment(
    assignment: Dict[str, str],
    table: DemandTable,
    column: int,
    caps: HostCapacities,
    group_of_host: Sequence[int],
    *,
    fill_threshold: float = 0.5,
    max_sweeps: int = 2,
) -> Tuple[Dict[str, str], int]:
    """Reconcile one interval's merged assignment; returns (result, moves).

    ``table`` holds the fleet-wide sized demands (one column per
    interval) and must cover every VM in ``assignment``.  A fast
    vectorized prefilter skips intervals with no under-filled active
    host without building any plan state.
    """
    n_hosts = caps.n
    rows_host = np.array(
        [caps.index_of[assignment[vm_id]] for vm_id in table.vm_ids],
        dtype=np.intp,
    )
    cpu_col = table.cpu_rpe2[:, column]
    mem_col = table.memory_gb[:, column]
    body_cpu = np.bincount(rows_host, weights=cpu_col, minlength=n_hosts)
    body_mem = np.bincount(rows_host, weights=mem_col, minlength=n_hosts)
    counts = np.bincount(rows_host, minlength=n_hosts)
    active = counts > 0
    fills = np.maximum(
        body_cpu / caps.cap_cpu_np, body_mem / caps.cap_mem_np
    )
    if active.sum() <= 1 or not (fills[active] < fill_threshold).any():
        return dict(assignment), 0

    plan = IncrementalPlan.from_assignment(
        caps,
        list(table.vm_ids),
        cpu_col.tolist(),
        mem_col.tolist(),
        assignment,
        table.network_mbps[:, column].tolist(),
        table.disk_mbps[:, column].tolist(),
    )
    moves = reconcile_plan(
        plan,
        group_of_host,
        fill_threshold=fill_threshold,
        max_sweeps=max_sweeps,
    )
    return plan.assignment(), moves
