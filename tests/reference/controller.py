"""Reference per-sample / per-VM paths of :class:`ConsolidationController`.

The library controller re-sizes a cycle's flagged rows in one
``set_demands`` call (each flagged host re-folded once), converts and
checks a sample's values with plain floats, and scans only the active
hosts when it vacates one.  This subclass keeps the straightforward
versions of those three paths: each VM's demand written and its host
re-folded one VM at a time, NumPy finiteness checks plus a watermark
sync on every sample, and a vacate that walks the whole fleet skipping
empty hosts.  Fed the same stream, both must make the same decisions
and end with bitwise-equal plans and counters.

:class:`RebuildController` is the batch twin: it rebuilds its plan from
scratch (canonical folds) at the top of every cycle instead of carrying
delta-mutated state.  Because a delta-mutated plan is bitwise identical
to its rebuild, it must move the same VMs and end on the same
assignment as the library controller over any stream.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.incremental import IncrementalPlan
from repro.exceptions import PlacementError, ServiceError
from repro.service.controller import (
    ConsolidationController,
    CycleReport,
    MonitoringSample,
)

__all__ = ["RebuildController", "ReferenceController"]


class RebuildController(ConsolidationController):
    """The controller with its plan rebuilt at the top of every cycle."""

    def replan_cycle(self) -> CycleReport:
        plan = self.plan
        self.plan = IncrementalPlan.from_assignment(
            self.caps,
            plan.vm_ids,
            plan.cpu,
            plan.mem,
            plan.assignment(),
            plan.net,
            plan.dsk,
        )
        return super().replan_cycle()


class ReferenceController(ConsolidationController):
    """The controller with its per-sample and per-VM reference paths."""

    def ingest(self, sample: MonitoringSample) -> bool:
        if not np.isfinite(sample.cpu_util) or not np.isfinite(
            sample.memory_gb
        ):
            raise ServiceError(
                f"sample for {sample.vm_id!r} has non-finite values"
            )
        if sample.cpu_util < 0 or sample.memory_gb < 0:
            raise ServiceError(
                f"sample for {sample.vm_id!r} has negative demand"
            )
        try:
            row = self.store.row_of(sample.vm_id)
        except Exception:
            raise ServiceError(
                f"sample for unknown vm_id {sample.vm_id!r}"
            ) from None
        self._sync_watermark()
        if sample.tick < self._watermark:
            self.stats.late_dropped += 1
            return False
        bucket = self._pending.setdefault(sample.tick, {})
        if row in bucket:
            self.stats.duplicates_ignored += 1
            return False
        bucket[row] = (float(sample.cpu_util), float(sample.memory_gb))
        self.stats.samples_ingested += 1
        if len(bucket) == self.store.n_servers:
            self._flush_through(sample.tick)
        return True

    def _refresh_demands(self, rows: Sequence[int]) -> None:
        if not self.store.n_points:
            return
        rows = list(rows)
        if not rows:
            return
        peak_cpu_rpe2, peak_memory_gb = self.store.peak_window(
            self.config.sizing_window_points
        )
        plan = self.plan
        for row in rows:
            plan.cpu[row] = float(peak_cpu_rpe2[row])
            plan.mem[row] = float(peak_memory_gb[row])
            host = plan.assignment_rows[row]
            if host >= 0:
                plan._refold_host(host)

    def _vacate_underload(
        self, source: int, touched: set
    ) -> List[Tuple[str, str, str]]:
        plan = self.plan
        caps = self.caps
        host_ids = caps.host_ids
        rows = list(plan.vm_rows_of_host[source])
        if not rows:
            return []
        extra_cpu = [0.0] * caps.n
        extra_mem = [0.0] * caps.n
        extra_net = [0.0] * caps.n
        extra_dsk = [0.0] * caps.n
        targets: List[int] = []
        for row in rows:
            chosen = -1
            for host in range(caps.n):
                if host == source or not plan.vm_rows_of_host[host]:
                    continue
                if (
                    plan.body_cpu[host] + extra_cpu[host] + plan.cpu[row]
                    <= caps.eps_cpu[host]
                    and plan.body_mem[host] + extra_mem[host] + plan.mem[row]
                    <= caps.eps_mem[host]
                    and plan.body_net[host] + extra_net[host] + plan.net[row]
                    <= caps.eps_net[host]
                    and plan.body_dsk[host] + extra_dsk[host] + plan.dsk[row]
                    <= caps.eps_dsk[host]
                ):
                    chosen = host
                    break
            if chosen < 0:
                self.stats.vacate_failures += 1
                return []
            extra_cpu[chosen] += plan.cpu[row]
            extra_mem[chosen] += plan.mem[row]
            extra_net[chosen] += plan.net[row]
            extra_dsk[chosen] += plan.dsk[row]
            targets.append(chosen)
        vm_ids = [plan.vm_ids[row] for row in rows]
        try:
            touched.update(
                plan.apply_delta(vm_ids, [host_ids[t] for t in targets])
            )
        except PlacementError:
            self.stats.vacate_failures += 1
            return []
        return [
            (vm_id, host_ids[source], host_ids[target])
            for vm_id, target in zip(vm_ids, targets)
        ]
