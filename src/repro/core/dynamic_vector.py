"""Dynamic consolidation planner on columnar kernels.

:func:`plan_dynamic_array` is what
:meth:`repro.core.dynamic.DynamicConsolidation.plan` runs.  It makes
the per-VM reference planner's decisions *bit-identically*
(``tests/reference/dynamic.py``: per-interval prediction and sizing, a
from-scratch scalar FFD scan per interval and vacate sweeps, both on
the scalar ``Bin`` of ``tests/reference/packing.py``)
while replacing its per-VM object churn with columnar kernels:

* prediction + sizing happen **once per plan** — a full
  ``(n_vms, n_intervals)`` peak table
  (:func:`~repro.sizing.prediction.build_peak_table`) pushed through
  :meth:`~repro.sizing.estimator.SizeEstimator.estimate_matrix`
  (:func:`size_demand_rows`, which the sharded reconciler also builds
  its fleet table with, block by block), so the per-interval loop only
  reads columns;
* the sticky FFD pack (:func:`first_fit`, which
  :func:`~repro.placement.binpacking.pack` runs too, on a fresh plan)
  keeps its per-host running totals in an
  :class:`~repro.core.incremental.IncrementalPlan` carried across
  intervals (the delta-pack state, shared with the online controller in
  :mod:`repro.service`) instead of rebuilding per-host bins 360 times,
  folding each placed VM in inline;
* vacate sweeps run on the plan's Python-float lists: stable
  ``sorted`` calls over the appearance-ordered live hosts give the
  reference's source and candidate orders, tie-breaks included, and
  each attempt's targets come from the plan's shared search,
  :meth:`~repro.core.incremental.IncrementalPlan.vacate_targets`;
* deployment constraints are checked where the reference scan checks
  them: constrained VMs pack first, and a host is taken only if it fits
  *and* :meth:`~repro.constraints.manager.ConstraintSet.feasible`
  allows it against the interval's assignment so far (plus, in vacate,
  the attempt's pending moves).  That assignment holds only the
  constrained VMs — the only ones any constraint reads;
* each interval's pack and sweeps run in one call into the compiled
  loop (:mod:`repro.core.interval_kernel`), which makes the same
  decisions bit for bit and asks :class:`_Rules` back about constrained
  VMs only, wherever that kernel builds and passes its first-use
  self-check; :class:`PythonLoop` runs them where it is off, or where a
  host's capacity is infinite.

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

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningContext
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.power import LinearPowerModel
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.numerics import CAPACITY_SLACK
from repro.placement.binpacking import _no_fit_error
from repro.placement.plan import Placement
from repro.sizing.estimator import DemandTable, SizeEstimator
from repro.sizing.functions import MaxSizing
from repro.sizing.prediction import build_peak_table
from repro.workloads.store import TraceStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dynamic import DynamicConsolidation
    from repro.core.interval_kernel import KernelLoop

__all__ = [
    "PythonLoop", "ffd_order", "first_fit", "id_ranks", "plan_dynamic_array",
    "size_demand_rows",
]


class _HostArrays:
    """Host objects, capacity vectors, and idle power, fixed per plan."""

    def __init__(
        self, hosts: Sequence[PhysicalServer], utilization_bound: float
    ) -> None:
        hosts = list(hosts)
        self.caps = HostCapacities(hosts, utilization_bound)
        self.hosts = hosts
        self.host_ids = self.caps.host_ids
        self.idle_watts = [
            LinearPowerModel.for_host(host).idle_watts for host in hosts
        ]


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
        self.constrained_mask = np.array(self.constrained, dtype=bool)
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


def size_demand_rows(
    algorithm: "DynamicConsolidation",
    history: TraceStore,
    evaluation: TraceStore,
    workload_classes: Sequence[Optional[str]],
    context: PlanningContext,
) -> DemandTable:
    """Sized demands of a block of VM rows, one column per interval.

    Per metric, the rows' history and evaluation samples are stacked
    and reduced to the interval peak table in one kernel call
    (:func:`~repro.sizing.prediction.build_peak_table`; the stacked
    matrix is freed as soon as its table is built); the CPU table
    carries the burst premium, an elementwise scalar multiply; then
    :meth:`~repro.sizing.estimator.SizeEstimator.estimate_matrix` sizes
    both tables.  Every step works row by row, so a block's table is
    bit-identical to the same rows of a whole-fleet table.
    """
    points = context.points_per_interval
    starts = [
        history.n_points + i * points for i in range(context.n_intervals)
    ]
    cpu_table = algorithm.cpu_burst_factor * build_peak_table(
        algorithm.predictor,
        np.hstack([history.cpu_rpe2, evaluation.cpu_rpe2]),
        points,
        starts,
    )
    memory_table = build_peak_table(
        algorithm.predictor,
        np.hstack([history.memory_gb, evaluation.memory_gb]),
        points,
        starts,
    )
    estimator = SizeEstimator(
        sizing=MaxSizing(),
        overhead=context.config.overhead,
        network=context.config.network,
        disk=context.config.disk,
    )
    return estimator.estimate_matrix(
        evaluation.vm_ids, cpu_table, memory_table, list(workload_classes)
    )


class PythonLoop:
    """The interval loop in Python, on one plan carried across intervals.

    Each :meth:`interval` runs :func:`first_fit`, then the vacate sweeps,
    on an :class:`IncrementalPlan`, checking deployment constraints
    through ``rules``.  It runs where the compiled loop
    (:class:`~repro.core.interval_kernel.KernelLoop`, the same interface)
    is off or a host's capacity is infinite, and that kernel's
    self-check runs against it.
    """

    def __init__(
        self,
        algorithm: "DynamicConsolidation",
        host_arrays: _HostArrays,
        interval_hours: float,
        table: DemandTable,
        id_rank: np.ndarray,
        rules: Optional[_Rules] = None,
    ) -> None:
        zeros = [0.0] * table.n_vms
        self.algorithm = algorithm
        self.host_arrays = host_arrays
        self.interval_hours = interval_hours
        self.table = table
        self.id_rank = id_rank
        self.rules = rules
        self.plan = IncrementalPlan(
            host_arrays.caps, table.vm_ids, zeros, zeros
        )

    def interval(self, interval: int) -> Tuple[np.ndarray, np.ndarray]:
        """Plans column ``interval``: the FFD order and each row's host."""
        table = self.table
        plan = self.plan
        order, appearance = first_fit(
            plan,
            self.host_arrays.hosts,
            table.cpu_rpe2[:, interval],
            table.memory_gb[:, interval],
            table.network_mbps[:, interval],
            table.disk_mbps[:, interval],
            self.id_rank,
            self.rules,
        )
        _vacate_intervals_hosts(
            self.algorithm, self.host_arrays, plan, appearance,
            self.interval_hours, self.rules,
        )
        return order, np.array(plan.assignment_rows, dtype=np.intp)

    def seed(self, host_of_row: np.ndarray) -> None:
        """Every row's host: the next interval's sticky hints."""
        plan = self.plan
        plan.load(host_of_row, plan.cpu, plan.mem, plan.net, plan.dsk)


def plan_dynamic_array(
    algorithm: "DynamicConsolidation", context: PlanningContext
) -> PlacementSchedule:
    """Sticky pack, cost-aware vacate and the interval hook, per interval."""
    vm_ids = tuple(context.evaluation.vm_ids)
    n_vms = len(vm_ids)
    # Whole-plan tables: one peak-table kernel call per metric instead
    # of 2 × n_intervals per-interval predictions.
    table = size_demand_rows(
        algorithm,
        context.history.store,
        context.evaluation.store,
        [vm.workload_class for vm, _spec in context.evaluation.identities],
        context,
    )
    host_arrays = _HostArrays(
        context.datacenter.hosts, context.config.utilization_bound
    )
    rules = (
        _Rules(
            context.constraints, context.datacenter, vm_ids, host_arrays.hosts
        )
        if context.constraints
        else None
    )
    loop = _interval_loop(algorithm, context, host_arrays, table, rules)

    row_index = {vm_id: row for row, vm_id in enumerate(vm_ids)}
    memo: dict = {}
    placements: List[Placement] = []
    # Every interval's placement shares the two id tuples.
    for interval in range(context.n_intervals):
        order, host_of_row = loop.interval(interval)
        placement = Placement.from_indices(
            vm_ids, host_arrays.host_ids, order, host_of_row[order]
        )
        final = algorithm._finish_interval(
            placement, table, interval, context
        )
        placements.append(final)
        if final is not placement:
            # The hook moved VMs: the next sticky pack starts from them.
            rows, hosts = final.indices(
                row_index, host_arrays.caps.index_of, memo, PlacementError
            )
            if len(rows) != n_vms:
                raise PlacementError("the interval hook must place every VM")
            previous = np.empty(n_vms, dtype=np.intp)
            previous[rows] = hosts
            loop.seed(previous)
    return PlacementSchedule.periodic(
        placements, context.config.interval_hours
    )


def _interval_loop(
    algorithm: "DynamicConsolidation",
    context: PlanningContext,
    host_arrays: _HostArrays,
    table: DemandTable,
    rules: Optional[_Rules],
) -> Union[PythonLoop, "KernelLoop"]:
    """The compiled loop where it applies and is on, else the Python one.

    It applies to a plan, constrained or not, whose hosts all have
    finite CPU and memory capacities: an infinite one makes a residual
    NaN, which only Python's own sort orders as the Python loop does.
    Its module is imported here, so only a process that can use it pays
    for it (and the library's import time does not move).
    """
    id_rank = id_ranks(table.vm_ids)
    interval_hours = context.config.interval_hours
    caps = host_arrays.caps
    if (
        np.isfinite(caps.cap_cpu_np).all()
        and np.isfinite(caps.cap_mem_np).all()
    ):
        from repro.core import interval_kernel

        library = interval_kernel.load()
        if library is not None:
            return interval_kernel.KernelLoop(
                library, algorithm, host_arrays, interval_hours, table,
                id_rank, rules,
            )
    return PythonLoop(
        algorithm, host_arrays, interval_hours, table, id_rank, rules
    )


def id_ranks(vm_ids: Sequence[str]) -> np.ndarray:
    """Each VM's position in ascending id order: the FFD tie-break."""
    ranks = np.empty(len(vm_ids), dtype=np.intp)
    ranks[np.argsort(np.array(vm_ids))] = np.arange(len(vm_ids))
    return ranks


def ffd_order(
    cpu: np.ndarray,
    mem: np.ndarray,
    reference: PhysicalServer,
    id_rank: np.ndarray,
    rules: Optional[_Rules],
) -> Tuple[np.ndarray, int]:
    """FFD order of the rows, and how many constrained rows lead it.

    Rows sort by decreasing dominant share of ``reference``,
    ``max(cpu / its cpu, mem / its memory)``, ties by ``id_rank``
    (:func:`id_ranks`).  With ``rules`` the constrained rows come
    first, stable within each group.  The caller picks the columns:
    :func:`first_fit` scores bodies, the stochastic planner bodies plus
    tails.
    """
    scores = np.maximum(cpu / reference.cpu_rpe2, mem / reference.memory_gb)
    order = np.lexsort((id_rank, -scores))
    if rules is None:
        return order, 0
    constrained = rules.constrained_mask[order]
    return (
        np.concatenate((order[constrained], order[~constrained])),
        int(np.count_nonzero(constrained)),
    )


def first_fit(
    plan: IncrementalPlan,
    hosts: Sequence[PhysicalServer],
    cpu_col: np.ndarray,
    mem_col: np.ndarray,
    net_col: np.ndarray,
    dsk_col: np.ndarray,
    id_rank: np.ndarray,
    rules: Optional[_Rules],
) -> Tuple[np.ndarray, List[int]]:
    """Sticky FFD pack of one demand column per resource onto ``plan``.

    ``hosts`` are the plan's hosts (its capacities' order) and
    ``id_rank`` comes from :func:`id_ranks` over the plan's VMs.  The
    plan's current assignment is the sticky hint: per VM in FFD order
    (constrained VMs first), its previous host is tried first and a
    warm-first host scan runs only for displaced VMs; a constrained VM
    takes a host only if it fits and the constraints allow it.  On a
    plan that holds no row this is a cold FFD over ``hosts`` in order,
    which is :func:`~repro.placement.binpacking.pack`.  ``plan`` is
    reset to the columns with no row assigned, then packed.  Returns
    the FFD order (an array of rows) and the host appearance order (the
    vacate sweeps' bin order).
    """
    caps = plan.caps
    n_hosts = caps.n

    # The previous interval's placement, read before the reset (which
    # gives the plan a new assignment list): its rows are the sticky
    # hints, its non-empty hosts come first in the host scan.  No host
    # is warm before the first interval.  The FFD reference host is the
    # scan's head.
    prev_rows = plan.assignment_rows
    scan_hosts: List[int] = []
    cold: List[int] = []
    for host, held in enumerate(plan.vm_rows_of_host):
        (scan_hosts if held else cold).append(host)
    scan_hosts += cold
    # Constrained VMs claim their feasible hosts first.
    order, n_checked = ffd_order(
        cpu_col, mem_col, hosts[scan_hosts[0]], id_rank, rules
    )
    if rules is not None:
        rules.assigned = {}

    # Saturation skip (same optimization as the reference bin scan): the
    # smallest body demand still to come, per FFD position.
    sufmin_cpu = np.minimum.accumulate(cpu_col[order][::-1])[::-1].tolist()
    sufmin_mem = np.minimum.accumulate(mem_col[order][::-1])[::-1].tolist()

    plan.reset(cpu_col, mem_col, net_col, dsk_col)
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
    slack = CAPACITY_SLACK
    body_cpu = plan.body_cpu
    body_mem = plan.body_mem
    body_net = plan.body_net
    body_dsk = plan.body_dsk
    vm_rows_of_host = plan.vm_rows_of_host
    assignment_rows = plan.assignment_rows
    appearance: List[int] = []
    dead = [False] * n_hosts

    for position, row in enumerate(order.tolist()):
        d_cpu = cpu[row]
        d_mem = mem[row]
        d_net = net[row]
        d_dsk = dsk[row]
        check = position < n_checked
        target = -1
        hint = prev_rows[row]
        if (
            hint >= 0
            and body_cpu[hint] + d_cpu <= eps_cpu[hint]
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
                    min_cpu > cap_cpu[host] - body_cpu[host] + slack
                    or min_mem > cap_mem[host] - body_mem[host] + slack
                ):
                    dead[host] = True
            if target < 0:
                raise _no_fit_error(
                    VMDemand(
                        plan.vm_ids[row], d_cpu, d_mem,
                        network_mbps=d_net, disk_mbps=d_dsk,
                    ),
                    caps.utilization_bound,
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
    return order, appearance


def _vacate_intervals_hosts(
    algorithm: "DynamicConsolidation",
    host_arrays: _HostArrays,
    plan: IncrementalPlan,
    appearance: List[int],
    interval_hours: float,
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
