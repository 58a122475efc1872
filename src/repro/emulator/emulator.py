"""The consolidation emulator (paper §5.2), vectorized.

"The emulator uses as input a set of resource usage traces for each
physical server and returns consolidation statistics for the server ...
The emulator captures the impact of virtualization overhead as well as
memory savings due to deduplication in a configurable fashion."

:class:`ConsolidationEmulator` replays an evaluation-window trace set
against a :class:`~repro.emulator.schedule.PlacementSchedule`:

1. for every schedule segment, each host's actual CPU/memory demand per
   hour is the sum of its assigned VMs' traces, adjusted by the
   configured virtualization overhead and dedup model,
2. a host is *active* in an hour iff it has at least one VM,
3. active hosts draw power per their linear power model; inactive hosts
   are powered off (the dynamic-consolidation lever),
4. demand is deliberately not capped at capacity — the overshoot is the
   contention the paper measures in Figs. 8/9.

The hot path is columnar: adjusted demand lives in two read-mostly
``(n_vms, n_hours)`` matrices derived from the trace set's
:class:`~repro.workloads.store.TraceStore`, each segment's placement is
read as integer (VM row → host row) index arrays (a schedule's shared id
tuples are looked up once), and demand lands on host rows via a
scatter-add over those indices.  The scatter
accumulates contributions per host row in exactly the left-to-right
assignment order of a per-VM loop, so results are bit-identical to the
loop-based reference kept in ``tests/reference/emulator.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.emulator.results import EmulationResult
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import EmulationError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.power import LinearPowerModel
from repro.infrastructure.server import PhysicalServer
from repro.numerics import approx_ne
from repro.sizing.estimator import VirtualizationOverhead
from repro.workloads.trace import TraceSet

__all__ = ["ConsolidationEmulator"]

#: Segment width (hours) below which the bincount scatter beats per-VM
#: row adds.  Narrow segments (dynamic consolidation's intervals) are
#: dominated by per-call overhead, wide ones by per-element throughput;
#: the crossover sits around a few hundred columns on current NumPy.
_SCATTER_MAX_WIDTH = 256


def _scatter_add_rows(
    out: np.ndarray,
    host_rows: np.ndarray,
    values: np.ndarray,
    start: int,
    end: int,
) -> None:
    """``out[host_rows[k], start:end] += values[k]`` for every k, in order.

    Accumulation per destination row is a strict left fold in ``k``
    order — the same float-addition sequence as the scalar reference —
    for both strategies below:

    * narrow segments: one ``np.bincount`` over linearized indices
      (bincount walks its input sequentially, so duplicate destinations
      accumulate in appearance order),
    * wide segments: per-row in-place adds, which amortize their call
      overhead over many columns.
    """
    width = end - start
    if host_rows.size == 0:
        return
    if width <= _SCATTER_MAX_WIDTH:
        n_rows = out.shape[0]
        linear = (
            host_rows[:, np.newaxis] * width + np.arange(width)[np.newaxis, :]
        )
        summed = np.bincount(
            linear.ravel(), weights=values.ravel(), minlength=n_rows * width
        )
        out[:, start:end] += summed.reshape(n_rows, width)
    else:
        for k, row in enumerate(host_rows):
            out[row, start:end] += values[k]


@dataclass
class ConsolidationEmulator:
    """Replays traces against placement schedules for one datacenter.

    Parameters
    ----------
    trace_set:
        The *evaluation-window* traces (hour 0 of the traces is hour 0
        of every schedule passed to :meth:`evaluate`).
    datacenter:
        The target host pool placements refer to.
    overhead:
        Virtualization overhead / dedup applied to actual demand — the
        emulator's configurable overhead model.
    """

    trace_set: TraceSet
    datacenter: Datacenter
    overhead: VirtualizationOverhead = field(
        default_factory=VirtualizationOverhead
    )

    def __post_init__(self) -> None:
        store = self.trace_set.store
        # Adjusted columnar demand: the overhead model applied to the
        # whole matrices (elementwise, so each cell equals its sample's).
        self._cpu_matrix = self.overhead.adjust_cpu(store.cpu_rpe2)
        self._memory_matrix = self.overhead.adjust_memory(store.memory_gb)
        self._vm_row = {vm_id: i for i, vm_id in enumerate(store.vm_ids)}
        self._n_hours = self.trace_set.n_points
        if approx_ne(self.trace_set.interval_hours, 1.0):
            raise EmulationError(
                "emulator expects hourly traces, got "
                f"{self.trace_set.interval_hours}h samples"
            )

    def evaluate(
        self, schedule: PlacementSchedule, *, scheme: str = "unnamed"
    ) -> EmulationResult:
        """Replay the trace set against one schedule."""
        if schedule.start_hour != 0:
            raise EmulationError(
                f"schedule must start at hour 0, got {schedule.start_hour}"
            )
        if schedule.end_hour > self._n_hours:
            raise EmulationError(
                f"schedule ends at hour {schedule.end_hour} but traces cover "
                f"only {self._n_hours} hours"
            )

        host_index = {h.host_id: k for k, h in enumerate(self.datacenter)}
        memo: dict = {}
        indices = [
            s.placement.indices(self._vm_row, host_index, memo, EmulationError)
            for s in schedule
        ]
        used = np.zeros(len(host_index), dtype=bool)
        for _vm_rows, host_rows in indices:
            used[host_rows] = True
        # An empty schedule is legal: zero hosts, zero cost, zero
        # contention (the metamorphic baseline the tests pin down).
        used_hosts = [h for h, use in zip(self.datacenter, used) if use]
        used_row = np.cumsum(used) - 1  # datacenter position -> used row
        n_hosts = len(used_hosts)
        n_hours = int(schedule.end_hour)

        cpu_demand = np.zeros((n_hosts, n_hours))
        memory_demand = np.zeros((n_hosts, n_hours))
        active = np.zeros((n_hosts, n_hours), dtype=bool)

        for segment, (vm_rows, host_rows) in zip(schedule, indices):
            start = int(segment.start_hour)
            end = int(segment.end_hour)
            if vm_rows.size == 0:
                continue
            host_rows = used_row[host_rows]
            cpu_values = self._cpu_matrix[vm_rows, start:end]
            memory_values = self._memory_matrix[vm_rows, start:end]
            _scatter_add_rows(cpu_demand, host_rows, cpu_values, start, end)
            _scatter_add_rows(
                memory_demand, host_rows, memory_values, start, end
            )
            active[host_rows, start:end] = True

        cpu_capacity = np.array([h.cpu_rpe2 for h in used_hosts])
        memory_capacity = np.array([h.memory_gb for h in used_hosts])
        power = self._power_matrix(used_hosts, cpu_demand, cpu_capacity, active)

        return EmulationResult(
            scheme=scheme,
            workload=self.trace_set.name,
            host_ids=tuple(h.host_id for h in used_hosts),
            cpu_capacity=cpu_capacity,
            memory_capacity=memory_capacity,
            cpu_demand=cpu_demand,
            memory_demand=memory_demand,
            active=active,
            power_watts=power,
            schedule=schedule,
        )

    @staticmethod
    def _power_matrix(
        hosts: List[PhysicalServer],
        cpu_demand: np.ndarray,
        cpu_capacity: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Power per host-hour: one broadcast per distinct power curve.

        Hosts sharing a :class:`LinearPowerModel` are grouped so a pool
        of N hosts with a handful of catalog models costs a handful of
        :meth:`~LinearPowerModel.power_watts_array` calls instead of one
        per host.
        """
        utilization = cpu_demand / cpu_capacity[:, None]
        power = np.zeros_like(cpu_demand)
        groups: Dict[LinearPowerModel, List[int]] = {}
        for row, host in enumerate(hosts):
            groups.setdefault(LinearPowerModel.for_host(host), []).append(row)
        for model, rows in groups.items():
            power[rows] = model.power_watts_array(utilization[rows])
        return np.where(active, power, 0.0)
