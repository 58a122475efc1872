"""The dynamic planner's interval loop, compiled to C.

:class:`KernelLoop` runs each interval of
:func:`~repro.core.dynamic_vector.plan_dynamic_array` in one call into
``_interval.c``: the FFD order against the warm-first scan's head host,
the sticky first fit with its dead-host skip, then up to
``max_vacate_sweeps`` vacate sweeps with the capacity rule, the
pending-fold search, the migration-cost gate and the re-checked commit.
It makes the decisions of
:class:`~repro.core.dynamic_vector.PythonLoop` bit for bit, error texts
included; the C file lists the float and ordering rules that requires.

Two things stay in Python and are called back through ctypes.  The cost
gate asks the algorithm's ``_cached_cost`` for the same rows in the same
order, so its cache and the traced cost calls match too.  Deployment
constraints stay in :class:`~repro.core.dynamic_vector._Rules`: the
kernel asks its ``allows`` / ``allows_after`` about constrained rows
only, exactly where the Python loop does, reports each constrained row
it places or commits to ``_Rules.place``, and has Python validate each
interval's first fit, so every question still goes through
:meth:`~repro.constraints.manager.ConstraintSet.feasible` with the same
arguments in the same order.  An exception a callback raises (a
:class:`~repro.exceptions.ConstraintViolation` from the validation
included) ends the call and is raised again here, unchanged.

The library is built and cached through :class:`repro.native.Kernel`
and loaded at first use, never at import.  Before a process uses it,
:func:`load` plans a fixed constrained instance (:func:`_check_instance`)
on both loops and compares every interval and every constraint call.  A
failed check, a missing compiler or a failed build leave it off
(``repro.native.why_off("interval")`` says why), and the planner runs
:class:`PythonLoop`.
"""

from __future__ import annotations

import ctypes
import os
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.constraints import (
    AntiColocate,
    Constraint,
    ConstraintSet,
    ExcludeHosts,
    PinToHost,
    PlacementContext,
)
from repro.core.dynamic_vector import PythonLoop, _HostArrays, _Rules, id_ranks
from repro.exceptions import PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.native import Kernel
from repro.placement.binpacking import _no_fit_error
from repro.sizing.estimator import DemandTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dynamic import DynamicConsolidation

__all__ = ["KernelLoop", "STATS", "load"]

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_interval.c")
_KERNEL = Kernel("interval", _SOURCE_PATH)

#: ``repro_cost_fn``: one VM's migration cost; non-zero when it failed.
_COST_FN = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.c_double, ctypes.POINTER(ctypes.c_double)
)

#: ``repro_rules_fn``: asks or tells the plan's rules; -1 when it failed.
_RULES_FN = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_int64, ctypes.POINTER(ctypes.c_int64),
    ctypes.POINTER(ctypes.c_int64),
)

#: ``repro_rules_fn`` operations, in ``_interval.c``'s order.
_ALLOWS, _ALLOWS_AFTER, _PLACE, _VALIDATE = 0, 1, 2, 3

#: ``repro_interval`` outcomes other than 0 (planned).
_NO_FIT, _COMMIT_MISFIT, _CALLBACK_FAILED = 1, 2, 3

#: The counters :attr:`KernelLoop.stats` sums over a plan, in order.
STATS = (
    "sticky", "displaced", "dead", "ruled_out", "commits", "cost_refused",
    "hint_refused", "host_refused", "target_refused", "validated",
)


class _Plan(ctypes.Structure):
    """Mirror of ``repro_interval_plan`` in ``_interval.c`` (same order)."""

    _fields_ = [
        ("n_vms", ctypes.c_int64),
        ("n_hosts", ctypes.c_int64),
        ("n_intervals", ctypes.c_int64),
        ("max_sweeps", ctypes.c_int64),
        ("consider_cost", ctypes.c_int64),
        ("cpu", ctypes.c_void_p),
        ("mem", ctypes.c_void_p),
        ("net", ctypes.c_void_p),
        ("dsk", ctypes.c_void_p),
        ("id_rank", ctypes.c_void_p),
        ("hosts", ctypes.c_void_p),
        ("host_of_row", ctypes.c_void_p),
        ("order", ctypes.c_void_p),
        ("work_f", ctypes.c_void_p),
        ("work_i", ctypes.c_void_p),
        ("stats", ctypes.c_void_p),
        ("cost", _COST_FN),
        ("constrained", ctypes.c_void_p),
        ("rules", _RULES_FN),
        ("error_row", ctypes.c_int64),
        ("error_host", ctypes.c_int64),
    ]


def _bind(library: ctypes.CDLL) -> None:
    library.repro_interval.restype = ctypes.c_int64
    library.repro_interval.argtypes = [ctypes.POINTER(_Plan), ctypes.c_int64]
    library.repro_interval_workspace.restype = None
    library.repro_interval_workspace.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
    ]


def load() -> Optional[ctypes.CDLL]:
    """The verified kernel library, or ``None`` where it is off."""
    return _KERNEL.load(_bind, _self_check)


class KernelLoop:
    """:class:`~repro.core.dynamic_vector.PythonLoop`'s interface, in C.

    Every buffer is allocated once per plan, and the kernel reads the
    demand table in place, gathering each interval's four columns into
    its workspace, so the table is never copied.  Holds the cost and
    rules callbacks for the plan's life; nothing of them reaches a
    result.
    """

    def __init__(
        self,
        library: ctypes.CDLL,
        algorithm: "DynamicConsolidation",
        host_arrays: _HostArrays,
        interval_hours: float,
        table: DemandTable,
        id_rank: np.ndarray,
        rules: Optional[_Rules] = None,
    ) -> None:
        caps = host_arrays.caps
        n_vms = table.n_vms
        self._library = library
        self._rules = rules
        self._table = table
        self._vm_ids = table.vm_ids
        self._host_ids = host_arrays.host_ids
        self._bound = caps.utilization_bound
        self._demands = [
            np.ascontiguousarray(matrix, dtype=np.float64)
            for matrix in (
                table.cpu_rpe2, table.memory_gb,
                table.network_mbps, table.disk_mbps,
            )
        ]
        self._id_rank = np.ascontiguousarray(id_rank, dtype=np.int64)
        hosts = host_arrays.hosts
        self._hosts = np.array(
            [
                [host.cpu_rpe2 for host in hosts],
                [host.memory_gb for host in hosts],
                caps.cap_cpu,
                caps.cap_mem,
                caps.eps_cpu,
                caps.eps_mem,
                caps.eps_net,
                caps.eps_dsk,
                [watts * interval_hours for watts in host_arrays.idle_watts],
            ],
            dtype=np.float64,
        )
        self._host_of_row = np.full(n_vms, -1, dtype=np.int64)
        self._order = np.empty(n_vms, dtype=np.int64)
        sizes = np.zeros(2, dtype=np.int64)
        library.repro_interval_workspace(n_vms, caps.n, sizes.ctypes.data)
        self._work_f = np.zeros(int(sizes[0]))
        self._work_i = np.zeros(int(sizes[1]), dtype=np.int64)
        #: Counters named by :data:`STATS`, summed over the intervals.
        self.stats = np.zeros(len(STATS), dtype=np.int64)
        self._failures: List[BaseException] = []
        self._cost = _COST_FN(self._cost_callback(algorithm._cached_cost))
        self._plan = _Plan(
            n_vms=n_vms,
            n_hosts=caps.n,
            n_intervals=table.n_columns,
            max_sweeps=algorithm.max_vacate_sweeps,
            consider_cost=bool(algorithm.consider_migration_cost),
            cpu=self._demands[0].ctypes.data,
            mem=self._demands[1].ctypes.data,
            net=self._demands[2].ctypes.data,
            dsk=self._demands[3].ctypes.data,
            id_rank=self._id_rank.ctypes.data,
            hosts=self._hosts.ctypes.data,
            host_of_row=self._host_of_row.ctypes.data,
            order=self._order.ctypes.data,
            work_f=self._work_f.ctypes.data,
            work_i=self._work_i.ctypes.data,
            stats=self.stats.ctypes.data,
            cost=self._cost,
        )
        if rules is not None:
            self._constrained = np.array(rules.constrained, dtype=np.int64)
            self._ask = _RULES_FN(self._rules_callback(rules))
            self._plan.constrained = self._constrained.ctypes.data
            self._plan.rules = self._ask

    def _cost_callback(
        self, cached_cost: Callable[[float], float]
    ) -> Callable[[float, Any], int]:
        failures = self._failures

        def cost(memory_gb: float, out: Any) -> int:
            # ctypes prints and drops whatever escapes a callback, so
            # even an interrupt is kept here and raised by interval().
            try:
                out[0] = cached_cost(memory_gb)
            except BaseException as error:  # repro-lint: disable=REPRO103
                failures.append(error)
                return 1
            return 0

        return cost

    def _rules_callback(
        self, rules: _Rules
    ) -> Callable[[int, int, int, int, Any, Any], int]:
        failures = self._failures

        def ask(
            op: int, row: int, host: int, n_moves: int,
            move_rows: Any, move_hosts: Any,
        ) -> int:
            # Kept and raised by interval(), as the cost callback's are.
            try:
                if op == _ALLOWS:
                    return int(rules.allows(row, host, rules.assigned))
                if op == _ALLOWS_AFTER:
                    moves = [
                        (move_rows[i], move_hosts[i]) for i in range(n_moves)
                    ]
                    return int(rules.allows_after(row, host, moves))
                if op == _PLACE:
                    rules.place(row, host)
                else:
                    rules.constraints.validate(
                        rules.assigned, rules.datacenter
                    )
            except BaseException as error:  # repro-lint: disable=REPRO103
                failures.append(error)
                return -1
            return 0

        return ask

    def interval(self, interval: int) -> Tuple[np.ndarray, np.ndarray]:
        """Plans column ``interval``: the FFD order and each row's host."""
        if not 0 <= interval < self._plan.n_intervals:
            raise IndexError(f"interval {interval} outside the demand table")
        if self._rules is not None:
            self._rules.assigned = {}
        outcome = self._library.repro_interval(
            ctypes.byref(self._plan), interval
        )
        if outcome == _CALLBACK_FAILED:
            raise self._failures.pop()
        if outcome == _NO_FIT:
            raise _no_fit_error(
                self._table.demand(self._plan.error_row, interval),
                self._bound,
            )
        if outcome == _COMMIT_MISFIT:
            raise PlacementError(
                f"{self._vm_ids[self._plan.error_row]} does not fit on "
                f"{self._host_ids[self._plan.error_host]}"
            )
        return self._order.copy(), self._host_of_row.copy()

    def seed(self, host_of_row: np.ndarray) -> None:
        """Every row's host: the next interval's sticky hints."""
        hosts = np.asarray(host_of_row, dtype=np.int64)
        if hosts.shape != self._host_of_row.shape or (
            hosts.size
            and not -1 <= hosts.min() <= hosts.max() < len(self._host_ids)
        ):
            raise PlacementError(
                "interval hints need one host index in [-1, n_hosts) per VM"
            )
        self._host_of_row[:] = hosts


# ----------------------------------------------------------------------
# First-use self-check.


class _CheckCosts:
    """What the loops read of an algorithm, recording each cost asked."""

    max_vacate_sweeps = 3
    consider_migration_cost = True

    def __init__(self) -> None:
        self.asked: List[float] = []

    def _cached_cost(self, memory_gb: float) -> float:
        self.asked.append(memory_gb)
        return 12.0 * memory_gb


class _CheckRules(ConstraintSet):
    """The check's constraints, recording each question and validation.

    It answers from the constraints themselves, not through
    :meth:`ConstraintSet.feasible`, and only records each validation
    (the placements are compared anyway), so a traced process does not
    count the check's calls among its own.
    """

    def __init__(self, constraints: Sequence[Constraint]) -> None:
        super().__init__(constraints)
        self.asked: List[Tuple[Any, ...]] = []

    def feasible(
        self,
        vm_id: str,
        host: PhysicalServer,
        assignment: Mapping[str, str],
        datacenter: Datacenter,
    ) -> bool:
        self.asked.append((vm_id, host.host_id, dict(assignment)))
        context = PlacementContext(assignment, datacenter)
        return all(
            constraint.allows(vm_id, host, context)
            for constraint in self.constraints_for(vm_id)
        )

    def validate(
        self, assignment: Mapping[str, str], datacenter: Datacenter
    ) -> None:
        self.asked.append(("validate", dict(assignment)))


def _check_instance() -> Tuple[
    List[PhysicalServer], DemandTable, Dict[int, np.ndarray],
    List[Constraint],
]:
    """A fixed plan whose intervals take every branch of the loop.

    Sticky hints kept and displaced VMs, a dead host skipped, sources
    ruled out by the capacity rule, vacates committed and vacates the
    cost gate refuses; and, for the constrained VMs, a sticky hint, a
    scanned host and a vacate target a rule refuses, and a validation
    per interval (``tests/core/test_interval_kernel.py`` counts each).
    Returns the hosts, the demands, the hints to seed after an
    interval, as a power budget's hook would, and the constraints.
    """
    shapes = (
        (100.0, 64.0), (80.0, 48.0), (120.0, 96.0),
        (60.0, 32.0), (90.0, 64.0), (70.0, 40.0),
    )
    hosts = [
        PhysicalServer(f"h{index}", ServerSpec(cpu, memory))
        for index, (cpu, memory) in enumerate(shapes)
    ]
    n_vms, n_intervals = 24, 6
    rows = np.arange(n_vms)[:, None]
    columns = np.arange(n_intervals)[None, :]
    cpu = 4.0 + (rows * 7 + columns * 5) % 13
    # Every other VM shrinks each interval, so light hosts appear to empty.
    cpu = np.where((rows + columns) % 2 == 0, 0.25 * cpu, cpu)
    table = DemandTable(
        vm_ids=tuple(f"vm{row:02d}" for row in range(n_vms)),
        cpu_rpe2=cpu,
        memory_gb=1.5 + ((rows * 5 + columns * 3) % 11) * 0.6,
        network_mbps=40.0 + ((rows * 3 + columns) % 7) * 10.0,
        disk_mbps=np.zeros((n_vms, n_intervals)),
    )
    # The seeds put vm00 and vm06 together, and vm01 on h1.
    seeds = {2: np.arange(n_vms) % len(hosts)}
    constraints: List[Constraint] = [
        AntiColocate("vm00", "vm06"),
        ExcludeHosts("vm01", ["h1"]),
        PinToHost("vm02", "h2"),
        ExcludeHosts("vm03", ["h2", "h4"]),
    ]
    return hosts, table, seeds, constraints


def _self_check(library: ctypes.CDLL) -> bool:
    """Plan :func:`_check_instance` on both loops; True if they agree."""
    hosts, table, seeds, constraints = _check_instance()
    host_arrays = _HostArrays(hosts, 0.8)
    datacenter = Datacenter("self-check", hosts)
    id_rank = id_ranks(table.vm_ids)
    runs = []
    for kernel in (False, True):
        costs = _CheckCosts()
        checked = _CheckRules(constraints)
        rules = _Rules(checked, datacenter, table.vm_ids, hosts)
        loop = (
            KernelLoop(library, costs, host_arrays, 2, table, id_rank, rules)
            if kernel
            else PythonLoop(costs, host_arrays, 2, table, id_rank, rules)
        )
        planned = []
        for interval in range(table.n_columns):
            order, host_of_row = loop.interval(interval)
            planned.append((order.tolist(), host_of_row.tolist()))
            if interval in seeds:
                loop.seed(seeds[interval])
        runs.append((planned, costs.asked, checked.asked))
    return runs[0] == runs[1]
