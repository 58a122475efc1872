"""Dynamic consolidation planner on columnar kernels.

:func:`plan_dynamic_array` is what
:meth:`repro.core.dynamic.DynamicConsolidation.plan` runs.  It makes
the per-VM reference planner's decisions *bit-identically*
(``tests/reference/dynamic.py``: per-interval prediction and sizing, a
from-scratch ``pack()`` per interval, vacate sweeps on the scalar
``Bin`` of ``tests/reference/packing.py``)
while replacing its per-VM object churn with columnar kernels:

* prediction + sizing happen **once per plan** — a full
  ``(n_vms, n_intervals)`` peak table
  (:func:`~repro.sizing.prediction.build_peak_table`) pushed through
  :meth:`~repro.sizing.estimator.SizeEstimator.estimate_matrix`, so the
  per-interval loop only reads columns;
* the sticky FFD pack keeps its per-host running totals in an
  :class:`~repro.core.incremental.IncrementalPlan` carried across
  intervals (the delta-pack state, shared with the online controller in
  :mod:`repro.service`) instead of rebuilding per-host bins 360 times,
  folding each placed VM in inline;
* vacate sweeps run on the plan's Python-float lists: stable
  ``sorted`` calls over the appearance-ordered live hosts give the
  reference's source and candidate orders, tie-breaks included, and
  each attempt's targets come from the plan's shared search,
  :meth:`~repro.core.incremental.IncrementalPlan.vacate_targets`;
* deployment constraints are checked where ``pack()`` checks them:
  constrained VMs pack first, and a host is taken only if it fits *and*
  :meth:`~repro.constraints.manager.ConstraintSet.feasible` allows it
  against the interval's assignment so far (plus, in vacate, the
  attempt's pending moves).  That assignment holds only the
  constrained VMs — the only ones any constraint reads.

After each interval's pack and vacate the algorithm's
``_finish_interval`` hook sees the placement; a hook that returns a
different placement (a power budget shedding hosts) seeds the next
interval's sticky pack.

Exactness contract (see ``docs/PERFORMANCE.md``): every float the
reference computes is recomputed here by the *same* IEEE-754 operations
in the *same* order — elementwise numpy ops mirror scalar arithmetic
exactly, comparisons use the identical ``capacity + 1e-9`` slack, and
all per-host accumulations replay the reference's left folds (the
plan's append-fold discipline, :meth:`IncrementalPlan.assign`).  The
one reference step not repeated is the per-attempt candidate sort:
bodies change only when a vacate commits, so the fullest-first order is
sorted once, re-sorted after each commit, and each attempt skips its
own source in it — the same sequence the reference sorts.
Dynamic sizing is :class:`~repro.sizing.functions.MaxSizing`, so every
demand tail is exactly ``0.0`` and ``x + max(0.0, 0.0)`` reduces to
``x`` — the two-term fit checks below match the reference's four-term
expressions bit for bit.

This module must not import :mod:`repro.core.dynamic` (the algorithm
object is passed in), keeping the dependency one-directional.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningContext
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.placement.binpacking import _no_fit_error
from repro.placement.plan import Placement
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import MaxSizing
from repro.sizing.prediction import build_peak_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dynamic import DynamicConsolidation

__all__ = ["plan_dynamic_array"]

#: Admission slack: a fit compares against ``capacity + 1e-9``, as in
#: ``pack()``.
_SLACK = 1e-9


class _HostArrays:
    """Host objects, capacity vectors, and idle power, fixed per plan."""

    def __init__(self, algorithm: "DynamicConsolidation", context) -> None:
        hosts = list(context.datacenter.hosts)
        self.caps = HostCapacities(
            hosts, context.config.utilization_bound
        )
        self.hosts = hosts
        self.host_ids = self.caps.host_ids
        self.n = self.caps.n
        self.idle_watts = [algorithm._idle_watts(h) for h in hosts]


class _Rules:
    """Deployment constraints by VM row and host index.

    ``assigned`` is the current interval's assignment of the constrained
    VMs only: every constraint reads just its own VMs, so this mapping
    answers each ``feasible`` call exactly as the full assignment would.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        datacenter: Datacenter,
        vm_ids: Sequence[str],
        hosts: Sequence[PhysicalServer],
    ) -> None:
        self.constraints = constraints
        self.datacenter = datacenter
        self.vm_ids = vm_ids
        self.hosts = hosts
        self.host_ids = [host.host_id for host in hosts]
        self.constrained = [
            bool(constraints.constraints_for(vm_id)) for vm_id in vm_ids
        ]
        self.assigned: Dict[str, str] = {}

    def allows(
        self, row: int, host: int, assignment: Dict[str, str]
    ) -> bool:
        return self.constraints.feasible(
            self.vm_ids[row], self.hosts[host], assignment, self.datacenter
        )

    def place(self, row: int, host: int) -> None:
        if self.constrained[row]:
            self.assigned[self.vm_ids[row]] = self.host_ids[host]

    def allows_after(
        self, row: int, host: int, moves: List[Tuple[int, int]]
    ) -> bool:
        """:meth:`allows` against ``assigned`` after the pending moves."""
        if not self.constrained[row]:
            return True
        shadow = dict(self.assigned)
        for moved, target in moves:
            if self.constrained[moved]:
                shadow[self.vm_ids[moved]] = self.host_ids[target]
        return self.allows(row, host, shadow)


def plan_dynamic_array(
    algorithm: "DynamicConsolidation", context: PlanningContext
) -> PlacementSchedule:
    """Sticky pack, cost-aware vacate and the interval hook, per interval."""
    points = context.points_per_interval
    history_points = context.history.n_points
    vm_ids = list(context.evaluation.vm_ids)
    class_of = {
        trace.vm_id: trace.vm.workload_class
        for trace in context.evaluation
    }
    cpu_full = np.hstack(
        [
            context.history.cpu_rpe2_matrix(),
            context.evaluation.cpu_rpe2_matrix(),
        ]
    )
    memory_full = np.hstack(
        [
            context.history.memory_gb_matrix(),
            context.evaluation.memory_gb_matrix(),
        ]
    )
    estimator = SizeEstimator(
        sizing=MaxSizing(),
        overhead=context.config.overhead,
        network=context.config.network,
        disk=context.config.disk,
    )
    n_intervals = context.n_intervals
    starts = [history_points + i * points for i in range(n_intervals)]
    # Whole-plan peak tables: one kernel call instead of 2 × n_intervals
    # per-interval predictions.  The burst premium is an elementwise
    # scalar multiply — identical to scaling each column on its own.
    cpu_table = algorithm.cpu_burst_factor * build_peak_table(
        algorithm.predictor, cpu_full, points, starts
    )
    memory_table = build_peak_table(
        algorithm.predictor, memory_full, points, starts
    )
    table = estimator.estimate_matrix(
        vm_ids,
        cpu_table,
        memory_table,
        [class_of.get(vm_id) for vm_id in vm_ids],
    )

    host_arrays = _HostArrays(algorithm, context)
    rules = (
        _Rules(
            context.constraints, context.datacenter, vm_ids, host_arrays.hosts
        )
        if context.constraints
        else None
    )
    n_vms = len(vm_ids)
    # FFD tie-break: ascending vm_id among equal scores.
    id_rank = np.empty(n_vms, dtype=np.intp)
    id_rank[np.argsort(np.array(vm_ids))] = np.arange(n_vms)

    placements: List[Placement] = []
    prev_rows: Optional[List[int]] = None
    prev_active: Optional[List[bool]] = None
    bound = context.config.utilization_bound
    for interval in range(n_intervals):
        plan, order, appearance = _pack_interval(
            table, interval, host_arrays, id_rank,
            prev_rows, prev_active, vm_ids, bound, rules,
        )
        _vacate_intervals_hosts(
            algorithm, context, host_arrays, plan, appearance, rules
        )
        placement = Placement(
            assignment={
                vm_ids[row]: host_arrays.host_ids[plan.assignment_rows[row]]
                for row in order
            }
        )
        final = algorithm._finish_interval(
            placement, table, interval, context
        )
        placements.append(final)
        if final is placement:
            prev_rows = plan.assignment_rows
            prev_active = [bool(rows) for rows in plan.vm_rows_of_host]
        else:
            # The hook moved VMs: the next sticky pack starts from them.
            index_of = host_arrays.caps.index_of
            prev_rows = [
                index_of[final.assignment[vm_id]] for vm_id in vm_ids
            ]
            prev_active = [False] * host_arrays.n
            for host in prev_rows:
                prev_active[host] = True
    return PlacementSchedule.periodic(
        placements, context.config.interval_hours
    )


def _pack_interval(
    table,
    interval: int,
    host_arrays: _HostArrays,
    id_rank: np.ndarray,
    prev_rows: Optional[List[int]],
    prev_active: Optional[List[bool]],
    vm_ids: List[str],
    utilization_bound: float,
    rules: Optional[_Rules],
) -> Tuple[IncrementalPlan, List[int], List[int]]:
    """Sticky FFD pack of one interval column, delta from ``prev_rows``.

    Replays ``pack(..., preferred=previous.assignment)``
    exactly: per VM in FFD order (constrained VMs first), the previous
    host is tried first and a warm-first host scan runs only for
    displaced VMs; a constrained VM takes a host only if it fits and
    the constraints allow it.  Returns the packed
    :class:`IncrementalPlan`, the FFD order, and the host appearance
    order (the vacate sweeps' bin order).
    """
    caps = host_arrays.caps
    n_hosts = host_arrays.n
    cpu_col = table.cpu_rpe2[:, interval]
    mem_col = table.memory_gb[:, interval]

    # Warm-first host order; the FFD reference host is its head.
    if prev_active is None:
        scan_hosts = list(range(n_hosts))
    else:
        scan_hosts = (
            [h for h in range(n_hosts) if prev_active[h]]
            + [h for h in range(n_hosts) if not prev_active[h]]
        )
    reference = host_arrays.hosts[scan_hosts[0]]
    scores = np.maximum(
        cpu_col / reference.cpu_rpe2, mem_col / reference.memory_gb
    )
    order = np.lexsort((id_rank, -scores)).tolist()
    n_checked = 0
    if rules is not None:
        # Constrained VMs claim their feasible hosts first, stable
        # within each group (pack()'s order).
        constrained = rules.constrained
        head = [row for row in order if constrained[row]]
        n_checked = len(head)
        order = head + [row for row in order if not constrained[row]]
        rules.assigned = {}

    # Saturation skip (same optimization as the reference bin scan): the
    # smallest body demand still to come, per FFD position.
    ordered_cpu = cpu_col[order]
    ordered_mem = mem_col[order]
    sufmin_cpu = np.minimum.accumulate(ordered_cpu[::-1])[::-1].tolist()
    sufmin_mem = np.minimum.accumulate(ordered_mem[::-1])[::-1].tolist()

    plan = IncrementalPlan(
        caps,
        vm_ids,
        cpu_col.tolist(),
        mem_col.tolist(),
        table.network_mbps[:, interval].tolist(),
        table.disk_mbps[:, interval].tolist(),
    )
    cpu = plan.cpu
    mem = plan.mem
    net = plan.net
    dsk = plan.dsk
    eps_cpu = caps.eps_cpu
    eps_mem = caps.eps_mem
    eps_net = caps.eps_net
    eps_dsk = caps.eps_dsk
    cap_cpu = caps.cap_cpu
    cap_mem = caps.cap_mem
    body_cpu = plan.body_cpu
    body_mem = plan.body_mem
    body_net = plan.body_net
    body_dsk = plan.body_dsk
    vm_rows_of_host = plan.vm_rows_of_host
    assignment_rows = plan.assignment_rows
    appearance: List[int] = []
    dead = [False] * n_hosts

    for position, row in enumerate(order):
        d_cpu = cpu[row]
        d_mem = mem[row]
        d_net = net[row]
        d_dsk = dsk[row]
        check = position < n_checked
        target = -1
        if prev_rows is not None:
            hint = prev_rows[row]
            if (
                body_cpu[hint] + d_cpu <= eps_cpu[hint]
                and body_mem[hint] + d_mem <= eps_mem[hint]
                and body_net[hint] + d_net <= eps_net[hint]
                and body_dsk[hint] + d_dsk <= eps_dsk[hint]
                and (not check or rules.allows(row, hint, rules.assigned))
            ):
                target = hint
        if target < 0:
            min_cpu = sufmin_cpu[position]
            min_mem = sufmin_mem[position]
            for host in scan_hosts:
                if dead[host]:
                    continue
                if (
                    body_cpu[host] + d_cpu <= eps_cpu[host]
                    and body_mem[host] + d_mem <= eps_mem[host]
                    and body_net[host] + d_net <= eps_net[host]
                    and body_dsk[host] + d_dsk <= eps_dsk[host]
                ):
                    if not check or rules.allows(row, host, rules.assigned):
                        target = host
                        break
                elif (
                    min_cpu > cap_cpu[host] - body_cpu[host] + _SLACK
                    or min_mem > cap_mem[host] - body_mem[host] + _SLACK
                ):
                    dead[host] = True
            if target < 0:
                raise _no_fit_error(
                    table.demand(row, interval), utilization_bound
                )
        # plan.assign(row, target), inlined: the same appends and folds.
        rows_here = vm_rows_of_host[target]
        if not rows_here:
            appearance.append(target)
        rows_here.append(row)
        body_cpu[target] += d_cpu
        body_mem[target] += d_mem
        body_net[target] += d_net
        body_dsk[target] += d_dsk
        assignment_rows[row] = target
        if check:
            rules.place(row, target)
    if rules is not None:
        rules.constraints.validate(rules.assigned, rules.datacenter)
    return plan, order, appearance


def _vacate_intervals_hosts(
    algorithm: "DynamicConsolidation",
    context: PlanningContext,
    host_arrays: _HostArrays,
    plan: IncrementalPlan,
    appearance: List[int],
    rules: Optional[_Rules],
) -> None:
    """Empty lightly-loaded hosts into loaded ones when it pays off.

    Sweeps like the reference's ``_vacate_hosts``: sources emptiest
    first, at most ``max_vacate_sweeps`` passes, stop when a pass
    changes nothing.  Bodies change only when a vacate commits, so the
    fullest-first candidate order is computed once and recomputed only
    after a commit; each attempt skips its own source in it.

    With each candidate order comes its capacity rule
    (:meth:`IncrementalPlan.vacate_ruled_out`): a source whose CPU or
    memory load exceeds the other candidates' combined spare room is
    skipped without a search, exactly as if :func:`_try_vacate` had
    returned False.  The rule needs every candidate within its ``eps``:
    the pack checks each add and ``commit_vacate`` re-checks each move.
    Constraints only remove targets and the cost gate runs after the
    search, so neither can turn a ruled-out source into a commit.
    """
    body_cpu = plan.body_cpu
    vm_rows_of_host = plan.vm_rows_of_host
    interval_hours = context.config.interval_hours

    def emptiest(host: int) -> Tuple[int, float]:
        return len(vm_rows_of_host[host]), body_cpu[host]

    live = appearance
    candidates: Optional[List[int]] = None
    for _ in range(algorithm.max_vacate_sweeps):
        changed = False
        n_bins = len(live)
        # Stable sorts over the appearance-ordered live bins keep the
        # reference's tie-break for sources and candidates alike.
        for source in sorted(live, key=emptiest):
            if not vm_rows_of_host[source] or n_bins <= 1:
                continue
            if candidates is None:
                candidates = sorted(
                    (host for host in live if vm_rows_of_host[host]),
                    key=plan.residual,
                )
                ruled_out = plan.vacate_ruled_out(candidates)
            if ruled_out(source):
                continue
            if _try_vacate(
                algorithm, host_arrays, plan, source, candidates,
                interval_hours, rules,
            ):
                changed = True
                candidates = None
        live = [host for host in live if vm_rows_of_host[host]]
        if not changed:
            break


def _try_vacate(
    algorithm: "DynamicConsolidation",
    host_arrays: _HostArrays,
    plan: IncrementalPlan,
    source: int,
    candidates: List[int],
    interval_hours: float,
    rules: Optional[_Rules],
) -> bool:
    """Move all of ``source``'s VMs elsewhere if benefit > cost.

    Replays the reference's ``_try_vacate``: each VM, largest first,
    goes to the first of ``candidates`` (fullest first, the source
    skipped) that admits it with this attempt's pending moves counted —
    and, for a constrained VM, that the constraints allow given those
    moves (:meth:`IncrementalPlan.vacate_targets`).  Once every VM has
    a target the migration-cost gate decides; only then do the moves
    commit, with the reference's per-move re-check.
    """
    moves = plan.vacate_targets(
        source,
        sorted(
            plan.vm_rows_of_host[source], key=plan.cpu.__getitem__,
            reverse=True,
        ),
        candidates,
        rules.allows_after if rules is not None else None,
    )
    if moves is None:
        return False

    if algorithm.consider_migration_cost:
        cost_wh: float = 0
        for row, _ in moves:
            cost_wh = cost_wh + algorithm._cached_cost(plan.mem[row])
        if host_arrays.idle_watts[source] * interval_hours <= cost_wh:
            return False

    plan.commit_vacate(source, moves)
    if rules is not None:
        for row, target in moves:
            rules.place(row, target)
    return True
