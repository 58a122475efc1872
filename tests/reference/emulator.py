"""Loop-based reference for :class:`~repro.emulator.ConsolidationEmulator`.

This is the scalar implementation the emulator used before the
columnar rewrite: per-VM dictionaries of adjusted demand, a
Python loop over every (segment, VM) assignment adding 1-D trace slices
onto host rows, and one power-model call per host.  It is deliberately
unoptimized — its job is to pin down the exact semantics (including the
left-to-right floating-point accumulation order per host row) that the
vectorized emulator must reproduce bit for bit.

Property tests assert ``ConsolidationEmulator.evaluate`` returns arrays
exactly equal to this implementation's; ``benchmarks/bench_kernels.py``
measures the speedup against it.  Do not "fix" performance here.
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

__all__ = ["ReferenceConsolidationEmulator"]

#: Fallback power curve for hosts without a catalog model attached.
_DEFAULT_POWER = LinearPowerModel(idle_watts=160.0, peak_watts=400.0)


@dataclass
class ReferenceConsolidationEmulator:
    """Scalar trace replay: one Python iteration per (segment, VM)."""

    trace_set: TraceSet
    datacenter: Datacenter
    overhead: VirtualizationOverhead = field(
        default_factory=VirtualizationOverhead
    )

    def __post_init__(self) -> None:
        self._cpu = {
            trace.vm_id: trace.cpu_rpe2 * (1.0 + self.overhead.cpu_overhead_frac)
            for trace in self.trace_set
        }
        self._memory = {
            trace.vm_id: trace.memory_gb.values
            * (1.0 - self.overhead.dedup_savings_frac)
            + self.overhead.memory_overhead_gb
            for trace in self.trace_set
        }
        self._n_hours = self.trace_set.n_points
        if approx_ne(self.trace_set.interval_hours, 1.0):
            raise EmulationError(
                "emulator expects hourly traces, got "
                f"{self.trace_set.interval_hours}h samples"
            )

    def evaluate(
        self, schedule: PlacementSchedule, *, scheme: str = "unnamed"
    ) -> EmulationResult:
        """Replay the trace set against one schedule, scalar-style."""
        if schedule.start_hour != 0:
            raise EmulationError(
                f"schedule must start at hour 0, got {schedule.start_hour}"
            )
        if schedule.end_hour > self._n_hours:
            raise EmulationError(
                f"schedule ends at hour {schedule.end_hour} but traces cover "
                f"only {self._n_hours} hours"
            )

        used_hosts = self._used_hosts(schedule)
        host_index = {h.host_id: i for i, h in enumerate(used_hosts)}
        n_hosts = len(used_hosts)
        n_hours = int(schedule.end_hour)

        cpu_demand = np.zeros((n_hosts, n_hours))
        memory_demand = np.zeros((n_hosts, n_hours))
        active = np.zeros((n_hosts, n_hours), dtype=bool)

        for segment in schedule:
            start = int(segment.start_hour)
            end = int(segment.end_hour)
            for vm_id, host_id in segment.placement.assignment.items():
                row = host_index[host_id]
                cpu_trace = self._cpu.get(vm_id)
                if cpu_trace is None:
                    raise EmulationError(
                        f"placement refers to unknown VM {vm_id!r}"
                    )
                cpu_demand[row, start:end] += cpu_trace[start:end]
                memory_demand[row, start:end] += self._memory[vm_id][start:end]
                active[row, start:end] = True

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

    def _used_hosts(
        self, schedule: PlacementSchedule
    ) -> List[PhysicalServer]:
        """All hosts any segment uses, in datacenter order."""
        used: Dict[str, None] = {}
        for segment in schedule:
            for host_id in segment.placement.hosts_used:
                if host_id not in self.datacenter:
                    raise EmulationError(
                        f"placement refers to unknown host {host_id!r}"
                    )
                used.setdefault(host_id, None)
        return [h for h in self.datacenter if h.host_id in used]

    @staticmethod
    def _power_matrix(
        hosts: List[PhysicalServer],
        cpu_demand: np.ndarray,
        cpu_capacity: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        utilization = np.clip(cpu_demand / cpu_capacity[:, None], 0.0, 1.0)
        power = np.zeros_like(cpu_demand)
        for row, host in enumerate(hosts):
            model = (
                LinearPowerModel.from_model(host.model)
                if host.model is not None
                else _DEFAULT_POWER
            )
            power[row] = model.power_watts_array(utilization[row])
        return np.where(active, power, 0.0)
