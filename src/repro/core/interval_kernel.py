"""The dynamic planner's interval loop, compiled to C.

For a plan without deployment constraints, :class:`KernelLoop` runs each
interval of :func:`~repro.core.dynamic_vector.plan_dynamic_array` in one
call into ``_interval.c``: the FFD order against the warm-first scan's
head host, the sticky first fit with its dead-host skip, then up to
``max_vacate_sweeps`` vacate sweeps with the capacity rule, the
pending-fold search, the migration-cost gate and the re-checked commit.
It makes the decisions of
:class:`~repro.core.dynamic_vector.PythonLoop` bit for bit, error texts
included; the C file lists the float and ordering rules that requires.
The cost gate calls the algorithm's ``_cached_cost`` back for the same
rows in the same order, so its cache and the traced cost calls match
too, and an exception it raises ends the call and is raised again here.

The library is built and cached through :class:`repro.native.Kernel`
and loaded at first use, never at import.  Before a process uses it,
:func:`load` plans a fixed instance (:func:`_check_instance`) on both
loops and compares every interval.  A failed check, a missing compiler
or a failed build leave it off (``repro.native.why_off("interval")``
says why), and the planner runs :class:`PythonLoop`, which is also the
loop for every constrained plan.
"""

from __future__ import annotations

import ctypes
import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.dynamic_vector import PythonLoop, _HostArrays, id_ranks
from repro.exceptions import PlacementError
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

#: ``repro_interval`` outcomes other than 0 (planned).
_NO_FIT, _COMMIT_MISFIT, _COST_FAILED = 1, 2, 3

#: The counters :attr:`KernelLoop.stats` sums over a plan, in order.
STATS = (
    "sticky", "displaced", "dead", "ruled_out", "commits", "cost_refused",
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
    its workspace, so the table is never copied.  Holds the cost
    callback for the plan's life; nothing of it reaches a result.
    """

    def __init__(
        self,
        library: ctypes.CDLL,
        algorithm: "DynamicConsolidation",
        host_arrays: _HostArrays,
        interval_hours: float,
        table: DemandTable,
        id_rank: np.ndarray,
    ) -> None:
        caps = host_arrays.caps
        n_vms = table.n_vms
        self._library = library
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

    def interval(self, interval: int) -> Tuple[np.ndarray, np.ndarray]:
        """Plans column ``interval``: the FFD order and each row's host."""
        if not 0 <= interval < self._plan.n_intervals:
            raise IndexError(f"interval {interval} outside the demand table")
        outcome = self._library.repro_interval(
            ctypes.byref(self._plan), interval
        )
        if outcome == _COST_FAILED:
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


def _check_instance() -> Tuple[
    List[PhysicalServer], DemandTable, Dict[int, np.ndarray]
]:
    """A fixed plan whose intervals take every branch of the loop.

    Sticky hints kept and displaced VMs, a dead host skipped, sources
    ruled out by the capacity rule, vacates committed and vacates the
    cost gate refuses (``tests/core/test_interval_kernel.py`` counts
    each).  Returns the hosts, the demands, and the hints to seed after
    an interval, as a power budget's hook would.
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
    seeds = {2: np.arange(n_vms) % len(hosts)}
    return hosts, table, seeds


def _self_check(library: ctypes.CDLL) -> bool:
    """Plan :func:`_check_instance` on both loops; True if they agree."""
    hosts, table, seeds = _check_instance()
    host_arrays = _HostArrays(hosts, 0.8)
    id_rank = id_ranks(table.vm_ids)
    runs = []
    for kernel in (False, True):
        costs = _CheckCosts()
        loop = (
            KernelLoop(library, costs, host_arrays, 2, table, id_rank)
            if kernel
            else PythonLoop(costs, host_arrays, 2, table, id_rank)
        )
        planned = []
        for interval in range(table.n_columns):
            order, host_of_row = loop.interval(interval)
            planned.append((order.tolist(), host_of_row.tolist()))
            if interval in seeds:
                loop.seed(seeds[interval])
        runs.append((planned, costs.asked))
    return runs[0] == runs[1]
