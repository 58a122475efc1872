"""Online consolidation controller: streaming ingest + delta replan.

:class:`ConsolidationController` is the event loop at the heart of
``repro-serve``.  It wires together the pieces the batch planner keeps
implicit:

1. **Ingest** — :meth:`ingest` buffers out-of-order monitoring samples
   per tick behind a *watermark*: a tick's column is appended to the
   :class:`~repro.workloads.rolling.RollingTraceStore` once every VM
   reported (or when a later tick completes first, in which case the
   missing cells are gap-filled from last-known values and counted).
   Duplicates are ignored, late samples (behind the watermark) are
   dropped; both are counted, never raised.
2. **Detect** — each :meth:`replan_cycle` measures per-host utilization
   from the latest flushed column and runs the per-host underload /
   overload detectors over a bounded history window.  A detector that
   raises mid-sweep is counted (``detector_errors``) and its host is
   skipped for the cycle — one broken policy never takes the loop down.
3. **Select + delta-repack** — flagged hosts get their VMs re-sized
   from the rolling peak window, then overloaded hosts evict VMs in
   selector order and underloaded hosts are vacated all-or-nothing.
   Every move goes through
   :meth:`~repro.core.incremental.IncrementalPlan.apply_delta`, which
   is atomic — a misfit mid-cycle can fail a *move*, never corrupt the
   plan — and only the affected hosts' accumulators are touched, which
   is what keeps per-cycle work bounded by the flagged set rather than
   the fleet (the soak test pins p99 replan scope ≪ fleet size).

Because :class:`~repro.core.incremental.IncrementalPlan`'s
canonical-fold discipline makes a delta-mutated plan bitwise identical
to one rebuilt from scratch, a controller that rebuilds its plan at the
top of every cycle must produce identical schedules over any stream —
the equivalence ``tests/service/test_controller.py`` pins against the
rebuild twin in ``tests/reference/controller.py``.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.exceptions import ConfigurationError, PlacementError, ServiceError
from repro.infrastructure.server import PhysicalServer
from repro.service.clock import Clock, MonotonicClock
from repro.service.detectors import (
    MHODOverloadDetector,
    ThresholdUnderloadDetector,
)
from repro.service.selection import MinimumMigrationTimeSelector, VMSelector
from repro.workloads.rolling import RollingTraceStore

__all__ = [
    "ConsolidationController",
    "ControllerConfig",
    "ControllerStats",
    "CycleReport",
    "MonitoringSample",
]


@dataclass(frozen=True)
class MonitoringSample:
    """One VM's demand report for one monitoring tick.

    ``tick`` is the stream position (column index in the rolling
    store's lifetime numbering); ``cpu_util`` is the utilization
    fraction of the VM's source-server capacity.
    """

    tick: int
    vm_id: str
    cpu_util: float
    memory_gb: float


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables for the online controller.

    Parameters
    ----------
    utilization_bound:
        Packing headroom, same convention as the batch planners.
    sizing_window_points:
        Trailing columns whose per-VM peak becomes the sized demand
        when a flagged host's VMs are refreshed.
    history_points:
        Per-host utilization history retained for the detectors.
    deadline_seconds:
        Per-cycle time budget.  When exceeded mid-cycle the remaining
        flagged hosts are deferred to the next cycle (counted in
        ``deadline_aborts``); the plan is always left consistent.
    stats_window:
        Bounded sample count for latency / replan-scope percentiles.
    """

    utilization_bound: float = 0.9
    sizing_window_points: int = 12
    history_points: int = 32
    deadline_seconds: float = float("inf")
    stats_window: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization_bound <= 1.0:
            raise ConfigurationError(
                "utilization_bound must be in (0, 1], got "
                f"{self.utilization_bound}"
            )
        if self.sizing_window_points <= 0:
            raise ConfigurationError(
                "sizing_window_points must be > 0, got "
                f"{self.sizing_window_points}"
            )
        if self.history_points <= 0:
            raise ConfigurationError(
                f"history_points must be > 0, got {self.history_points}"
            )
        if self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.stats_window <= 0:
            raise ConfigurationError(
                f"stats_window must be > 0, got {self.stats_window}"
            )


@dataclass(frozen=True)
class CycleReport:
    """What one :meth:`ConsolidationController.replan_cycle` did."""

    cycle: int
    migrations: Tuple[Tuple[str, str, str], ...]
    overloaded_hosts: Tuple[str, ...]
    underloaded_hosts: Tuple[str, ...]
    touched_hosts: Tuple[str, ...]
    latency_seconds: float
    deadline_hit: bool
    detector_errors: int


def _as_float(vm_id: Any, value: Any) -> float:
    """A sample value as a Python float.

    Raises :class:`~repro.exceptions.ServiceError` for a value that is
    not a real number (a string, ``None``) or is too large for a float.
    """
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ServiceError(
        f"sample for {vm_id!r} has a value that is not a float: "
        f"{type(value).__name__}"
    )


def _percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return float(ordered[index])


@dataclass
class ControllerStats:
    """Monotonic counters + bounded windows behind the ``/stats`` op."""

    cycles: int = 0
    samples_ingested: int = 0
    duplicates_ignored: int = 0
    late_dropped: int = 0
    gaps_filled: int = 0
    ticks_flushed: int = 0
    detector_errors: int = 0
    placement_failures: int = 0
    vacate_failures: int = 0
    deadline_aborts: int = 0
    migrations_total: int = 0
    latency_seconds_window: Deque[float] = field(default_factory=deque)
    replan_scope_window: Deque[int] = field(default_factory=deque)

    def record_cycle(
        self, latency_seconds: float, scope: int, window: int
    ) -> None:
        self.cycles += 1
        self.latency_seconds_window.append(latency_seconds)
        self.replan_scope_window.append(scope)
        while len(self.latency_seconds_window) > window:
            self.latency_seconds_window.popleft()
        while len(self.replan_scope_window) > window:
            self.replan_scope_window.popleft()

    def snapshot(self) -> Dict[str, float]:
        """Flat JSON-ready view (the ``/stats`` response payload)."""
        latencies = list(self.latency_seconds_window)
        scopes = [float(s) for s in self.replan_scope_window]
        return {
            "cycles": self.cycles,
            "samples_ingested": self.samples_ingested,
            "duplicates_ignored": self.duplicates_ignored,
            "late_dropped": self.late_dropped,
            "gaps_filled": self.gaps_filled,
            "ticks_flushed": self.ticks_flushed,
            "detector_errors": self.detector_errors,
            "placement_failures": self.placement_failures,
            "vacate_failures": self.vacate_failures,
            "deadline_aborts": self.deadline_aborts,
            "migrations_total": self.migrations_total,
            "latency_seconds_p50": _percentile(latencies, 0.50),
            "latency_seconds_p99": _percentile(latencies, 0.99),
            "replan_scope_p50": _percentile(scopes, 0.50),
            "replan_scope_p99": _percentile(scopes, 0.99),
            "replan_scope_max": max(scopes) if scopes else 0.0,
        }


class ConsolidationController:
    """Event loop: ingest → detect → select → delta-repack.

    Parameters
    ----------
    hosts:
        The physical fleet (fixed for the controller's life).
    store:
        Rolling demand store; ticks appended via :meth:`ingest` (or
        pre-seeded via
        :meth:`~repro.workloads.rolling.RollingTraceStore.from_traces`).
    config:
        Tunables; defaults are sensible for tests and demos.
    overload_detector / underload_detector / selector:
        Policy objects; default to MHOD overload, static threshold
        underload, and minimum-migration-time selection.
    clock:
        Time source for latency and deadline accounting; virtual in
        tests, monotonic in serving.
    """

    def __init__(
        self,
        hosts: Sequence[PhysicalServer],
        store: RollingTraceStore,
        *,
        config: Optional[ControllerConfig] = None,
        overload_detector: Optional[MHODOverloadDetector] = None,
        underload_detector: Optional[ThresholdUnderloadDetector] = None,
        selector: Optional[VMSelector] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config if config is not None else ControllerConfig()
        self.store = store
        self.caps = HostCapacities(hosts, self.config.utilization_bound)
        self.plan = IncrementalPlan(
            self.caps,
            store.vm_ids,
            [0.0] * store.n_servers,
            [0.0] * store.n_servers,
        )
        self.overload_detector = (
            overload_detector
            if overload_detector is not None
            else MHODOverloadDetector()
        )
        self.underload_detector = (
            underload_detector
            if underload_detector is not None
            else ThresholdUnderloadDetector()
        )
        self.selector: VMSelector = (
            selector if selector is not None else MinimumMigrationTimeSelector()
        )
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.stats = ControllerStats()
        self._host_cpu_rpe2 = np.array([h.cpu_rpe2 for h in hosts])
        self._history: List[Deque[float]] = [
            deque(maxlen=self.config.history_points) for _ in hosts
        ]
        # Ingest state: ticks < watermark are flushed (or dropped late).
        # The store's VM set is fixed, so its row map and size are too.
        n = store.n_servers
        self._n_vms = n
        self._row_of: Dict[str, int] = {
            vm_id: row for row, vm_id in enumerate(store.vm_ids)
        }
        self._cpu_util_limit = list(store.cpu_util_limit)
        self._watermark = store.total_points
        self._pending: Dict[int, Dict[int, Tuple[float, float]]] = {}
        if store.n_points:
            self._last_cpu_util = np.array(store.last_cpu_util())
            self._last_memory_gb = np.array(store.last_memory_gb())
        else:
            self._last_cpu_util = np.zeros(n)
            self._last_memory_gb = np.zeros(n)

    # -- ingest ----------------------------------------------------------

    def ingest(self, sample: MonitoringSample) -> bool:
        """Buffer one monitoring sample; True if accepted.

        Duplicate (tick, vm) pairs and samples behind the watermark are
        counted and discarded without raising — a noisy feed degrades
        telemetry, not the control loop.  Malformed samples (unknown
        VM, non-numeric, non-finite or negative values, or a
        ``cpu_util`` above the store's ``cpu_util_limit``, where
        ``cpu_util × capacity`` would overflow) raise
        :class:`~repro.exceptions.ServiceError` and change nothing.
        """
        vm_id = sample.vm_id
        cpu_util = sample.cpu_util
        if type(cpu_util) is not float:
            cpu_util = _as_float(vm_id, cpu_util)
        if not math.isfinite(cpu_util):
            raise ServiceError(f"sample for {vm_id!r} has non-finite values")
        memory_gb = sample.memory_gb
        if type(memory_gb) is not float:
            memory_gb = _as_float(vm_id, memory_gb)
        if not math.isfinite(memory_gb):
            raise ServiceError(f"sample for {vm_id!r} has non-finite values")
        if cpu_util < 0 or memory_gb < 0:
            raise ServiceError(f"sample for {vm_id!r} has negative demand")
        try:
            row = self._row_of[vm_id]
        except (KeyError, TypeError):
            raise ServiceError(
                f"sample for unknown vm_id {vm_id!r}"
            ) from None
        # Every row's limit is at least 1.0 (capacities are finite),
        # so ordinary utilizations skip the lookup.
        if cpu_util > 1.0 and cpu_util > self._cpu_util_limit[row]:
            raise ServiceError(
                f"sample for {vm_id!r} has cpu_util {cpu_util!r} above "
                f"{self._cpu_util_limit[row]!r}: cpu_util * capacity "
                f"would overflow"
            )
        if self.store.total_points > self._watermark:
            self._sync_watermark()
        tick = sample.tick
        if tick < self._watermark:
            self.stats.late_dropped += 1
            return False
        bucket = self._pending.get(tick)
        if bucket is None:
            bucket = self._pending[tick] = {}
        elif row in bucket:
            self.stats.duplicates_ignored += 1
            return False
        bucket[row] = (cpu_util, memory_gb)
        self.stats.samples_ingested += 1
        if len(bucket) == self._n_vms:
            self._flush_through(tick)
        return True

    def flush_pending(self) -> int:
        """Force-flush every buffered tick; returns the ticks flushed."""
        self._sync_watermark()
        if not self._pending:
            return 0
        return self._flush_through(max(self._pending))

    def _sync_watermark(self) -> None:
        """Catch up after columns were appended to the store directly.

        Seeding warmup data into the rolling store between controller
        construction and the first ingest is a supported bootstrap
        pattern; the stream position moves with the store, and any
        buffered ticks the external append overtook become late.
        """
        if self.store.total_points <= self._watermark:
            return
        self._watermark = self.store.total_points
        self._last_cpu_util = np.array(self.store.last_cpu_util())
        self._last_memory_gb = np.array(self.store.last_memory_gb())
        for tick in [t for t in self._pending if t < self._watermark]:
            self.stats.late_dropped += len(self._pending.pop(tick))

    def _flush_through(self, tick: int) -> int:
        """Flush every tick up to ``tick`` inclusive; returns the count.

        Ticks with no (or partial) data are gap-filled from last-known
        values, so the store's column numbering stays aligned with the
        stream's tick numbering.  Only the last ``retention_points``
        ticks are appended: older ones would age out of the store
        unread, so they are folded into the last-known values and the
        stream position skips past them in one step.
        """
        flushed = 0
        skipped = tick + 1 - self._watermark - self.store.retention_points
        if skipped > 0:
            self._skip_through(self._watermark + skipped - 1)
            flushed = skipped
        for t in range(self._watermark, tick + 1):
            bucket = self._pending.pop(t, {})
            cpu_util = self._last_cpu_util.copy()
            memory_gb = self._last_memory_gb.copy()
            for row, (util, mem) in bucket.items():
                cpu_util[row] = util
                memory_gb[row] = mem
            self.stats.gaps_filled += self.store.n_servers - len(bucket)
            self.store.append_samples(cpu_util, memory_gb)
            self._last_cpu_util = cpu_util
            self._last_memory_gb = memory_gb
            self.stats.ticks_flushed += 1
            flushed += 1
        self._watermark = tick + 1
        return flushed

    def _skip_through(self, tick: int) -> None:
        """Flush ticks up to ``tick`` without appending their columns."""
        n_ticks = tick + 1 - self._watermark
        cpu_util = self._last_cpu_util.copy()
        memory_gb = self._last_memory_gb.copy()
        reported = 0
        for t in sorted(t for t in self._pending if t <= tick):
            bucket = self._pending.pop(t)
            for row, (util, mem) in bucket.items():
                cpu_util[row] = util
                memory_gb[row] = mem
            reported += len(bucket)
        self.stats.gaps_filled += self.store.n_servers * n_ticks - reported
        self.stats.ticks_flushed += n_ticks
        self.store.skip_points(n_ticks)
        self._last_cpu_util = cpu_util
        self._last_memory_gb = memory_gb
        self._watermark = tick + 1

    # -- placement queries ----------------------------------------------

    def host_of(self, vm_id: str) -> Optional[str]:
        """Current placement of a VM (None while unassigned)."""
        try:
            return self.plan.host_of(vm_id)
        except PlacementError as exc:
            raise ServiceError(str(exc)) from None

    def bootstrap(self) -> Dict[str, str]:
        """Size every VM from the store and first-fit place the fleet.

        Called once after seeding the store (or after the first flushed
        ticks).  Raises :class:`~repro.exceptions.PlacementError` if the
        fleet cannot fit — a bootstrap that does not fit is a capacity
        planning error, not a runtime fault.
        """
        if not self.store.n_points:
            raise ServiceError("cannot bootstrap from an empty store")
        self._refresh_demands(range(self.plan.n_vms))
        for row, vm_id in enumerate(self.plan.vm_ids):
            if self.plan.assignment_rows[row] >= 0:
                continue
            target = self._first_fit(row, exclude=-1, active_only=False)
            if target < 0:
                raise PlacementError(
                    f"bootstrap: {vm_id} does not fit on any host"
                )
            self.plan.apply_delta([vm_id], [self.caps.host_ids[target]])
        return self.plan.assignment()

    # -- replan cycle ----------------------------------------------------

    def replan_cycle(self) -> CycleReport:
        """Run one detect → select → delta-repack cycle."""
        start_seconds = self.clock.now()
        detector_errors = 0
        migrations: List[Tuple[str, str, str]] = []
        touched: set = set()
        deadline_hit = False

        utilization = self._measure_host_utilization()
        for history, value in zip(self._history, utilization.tolist()):
            history.append(value)

        overloaded: List[int] = []
        underloaded: List[int] = []
        for host in self.plan.active_hosts():
            history = list(self._history[host])
            try:
                if self.overload_detector.detect(history):
                    overloaded.append(host)
                elif self.underload_detector.detect(history):
                    underloaded.append(host)
            except Exception:
                # A raising detector is a per-host fault: count it,
                # skip the host, keep the cycle alive.
                detector_errors += 1
        self.stats.detector_errors += detector_errors

        flagged_rows = [
            row
            for host in overloaded + underloaded
            for row in self.plan.vm_rows_of_host[host]
        ]
        self._refresh_demands(flagged_rows)

        for host in overloaded:
            if self._deadline_exceeded(start_seconds):
                deadline_hit = True
                break
            migrations.extend(self._relieve_overload(host, touched))
        if not deadline_hit:
            for host in underloaded:
                if self._deadline_exceeded(start_seconds):
                    deadline_hit = True
                    break
                migrations.extend(self._vacate_underload(host, touched))
        if deadline_hit:
            self.stats.deadline_aborts += 1

        latency_seconds = self.clock.now() - start_seconds
        self.stats.migrations_total += len(migrations)
        self.stats.record_cycle(
            latency_seconds, len(touched), self.config.stats_window
        )
        host_ids = self.caps.host_ids
        return CycleReport(
            cycle=self.stats.cycles,
            migrations=tuple(migrations),
            overloaded_hosts=tuple(host_ids[h] for h in overloaded),
            underloaded_hosts=tuple(host_ids[h] for h in underloaded),
            touched_hosts=tuple(host_ids[h] for h in sorted(touched)),
            latency_seconds=latency_seconds,
            deadline_hit=deadline_hit,
            detector_errors=detector_errors,
        )

    # -- internals -------------------------------------------------------

    def _measure_host_utilization(self) -> np.ndarray:
        """Per-host CPU utilization from the latest flushed column."""
        if not self.store.n_points:
            return np.zeros(self.caps.n)
        assignment = np.asarray(self.plan.assignment_rows, dtype=np.intp)
        assigned = assignment >= 0
        demand_rpe2 = np.zeros(self.caps.n)
        np.add.at(
            demand_rpe2,
            assignment[assigned],
            self.store.last_cpu_rpe2()[assigned],
        )
        return demand_rpe2 / self._host_cpu_rpe2

    def _refresh_demands(self, rows: Sequence[int]) -> None:
        """Re-size the given VM rows from the rolling peak window."""
        if not self.store.n_points:
            return
        rows = list(rows)
        if not rows:
            return
        peak_cpu_rpe2, peak_memory_gb = self.store.peak_window(
            self.config.sizing_window_points
        )
        self.plan.set_demands(
            rows,
            peak_cpu_rpe2[rows].tolist(),
            peak_memory_gb[rows].tolist(),
        )

    def _host_fits(self, host: int) -> bool:
        caps = self.caps
        plan = self.plan
        return (
            plan.body_cpu[host] <= caps.eps_cpu[host]
            and plan.body_mem[host] <= caps.eps_mem[host]
            and plan.body_net[host] <= caps.eps_net[host]
            and plan.body_dsk[host] <= caps.eps_dsk[host]
        )

    def _first_fit(
        self, row: int, exclude: int, active_only: bool
    ) -> int:
        """First host (active first, then empty) that fits the row."""
        plan = self.plan
        for host in range(self.caps.n):
            if host != exclude and plan.vm_rows_of_host[host]:
                if plan.fits(row, host):
                    return host
        if not active_only:
            for host in range(self.caps.n):
                if host != exclude and not plan.vm_rows_of_host[host]:
                    if plan.fits(row, host):
                        return host
        return -1

    def _relieve_overload(
        self, source: int, touched: set
    ) -> List[Tuple[str, str, str]]:
        """Evict VMs in selector order until the host fits its bound.

        Each move is an atomic single-VM delta: a misfit counts as a
        placement failure and the loop moves to the next candidate —
        the plan is never left inconsistent.
        """
        plan = self.plan
        host_ids = self.caps.host_ids
        moves: List[Tuple[str, str, str]] = []
        order = self.selector.eviction_order(plan, source)
        for row in order:
            if self._host_fits(source):
                break
            target = self._first_fit(row, exclude=source, active_only=False)
            if target < 0:
                self.stats.placement_failures += 1
                continue
            vm_id = plan.vm_ids[row]
            try:
                touched.update(
                    plan.apply_delta([vm_id], [host_ids[target]])
                )
            except PlacementError:
                self.stats.placement_failures += 1
                continue
            moves.append((vm_id, host_ids[source], host_ids[target]))
        return moves

    def _vacate_underload(
        self, source: int, touched: set
    ) -> List[Tuple[str, str, str]]:
        """All-or-nothing vacate of an underloaded host.

        Each VM, in ascending row order, takes the first *other active*
        host that admits it with earlier picks of the same vacate
        counted (:meth:`~repro.core.incremental.IncrementalPlan.vacate_targets`);
        if any VM has no target the host is left alone (counted as a
        vacate failure).  The batch goes through one atomic
        ``apply_delta``, so the active set cannot change while targets
        are chosen: it is listed once.
        """
        plan = self.plan
        host_ids = self.caps.host_ids
        rows = plan.vm_rows_of_host[source]
        if not rows:
            return []
        moves = plan.vacate_targets(source, rows, plan.active_hosts())
        if moves is None:
            self.stats.vacate_failures += 1
            return []
        vm_ids = [plan.vm_ids[row] for row, _ in moves]
        targets = [host_ids[target] for _, target in moves]
        try:
            touched.update(plan.apply_delta(vm_ids, targets))
        except PlacementError:
            self.stats.vacate_failures += 1
            return []
        return [
            (vm_id, host_ids[source], target)
            for vm_id, target in zip(vm_ids, targets)
        ]

    def _deadline_exceeded(self, start_seconds: float) -> bool:
        return (
            self.clock.now() - start_seconds > self.config.deadline_seconds
        )
