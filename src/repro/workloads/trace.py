"""Resource trace data structures.

The unit of monitoring data in the paper is an hourly average per server,
for the most recent 30 days, of CPU and memory usage (Section 3.1).  We
model that as:

* :class:`ResourceTrace` — one metric over time (a numpy vector plus its
  sampling interval and unit),
* :class:`ServerTrace` — one consolidation candidate: its VM identity,
  the source server's hardware spec, and its CPU + memory traces,
* :class:`TraceSet` — all candidates of one datacenter: one columnar
  :class:`~repro.workloads.store.TraceStore` plus one identity per
  store row, supporting time-window slicing (history vs evaluation)
  and aggregate demand queries.  Its :class:`ServerTrace` objects are
  read-only views of store rows, built only when something iterates.

CPU is stored as a utilization fraction of the *source* server and is
converted to absolute RPE2 demand through the source spec; memory is
stored directly in GB (the paper reports memory demand in absolute units).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import TraceError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.workloads.store import TraceStore

__all__ = ["ResourceTrace", "ServerTrace", "TraceSet", "HOURS_PER_DAY"]

HOURS_PER_DAY = 24


def _memoized(fn: Callable[[], Iterable[object]]) -> Callable[[], tuple]:
    """Wrap a zero-arg builder so it runs at most once (shared tuple).

    A store-first set hands the same deferred identity builder to every
    ``window`` child; memoizing here keeps the builder from re-running
    once any of them resolves it.
    """
    cache: List[tuple] = []

    def call() -> tuple:
        if not cache:
            cache.append(tuple(fn()))
        return cache[0]

    return call


def _as_trace_array(values: Sequence[float], what: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise TraceError(f"{what}: trace must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise TraceError(f"{what}: trace must be non-empty")
    if not np.all(np.isfinite(array)):
        raise TraceError(f"{what}: trace contains NaN or Inf")
    if np.any(array < 0):
        raise TraceError(f"{what}: trace contains negative values")
    return array


@dataclass(frozen=True)
class ResourceTrace:
    """A single metric sampled at a fixed interval.

    Attributes
    ----------
    values:
        Sampled values, one per interval.  Immutable by convention: the
        array's writeable flag is cleared on construction.
    interval_hours:
        Sampling interval (1.0 for the paper's hourly aggregates).
    unit:
        Unit label for reports ("fraction", "GB", "rpe2", ...).
    """

    values: np.ndarray
    interval_hours: float = 1.0
    unit: str = ""

    def __post_init__(self) -> None:
        array = _as_trace_array(self.values, f"ResourceTrace[{self.unit}]")
        if self.interval_hours <= 0:
            raise TraceError(
                f"interval_hours must be > 0, got {self.interval_hours}"
            )
        # Defensive copy only when the caller could still mutate the
        # array through an alias: a writable input that asarray passed
        # through unchanged.  Read-only inputs (e.g. rows of a frozen
        # store — every materialized TraceSet row) and arrays freshly
        # converted from sequences are safe to adopt as views.
        if array is self.values and array.flags.writeable:
            array = array.copy()
        if array.flags.writeable:
            array.flags.writeable = False
        object.__setattr__(self, "values", array)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def duration_hours(self) -> float:
        return len(self) * self.interval_hours

    def mean(self) -> float:
        return float(self.values.mean())

    def peak(self) -> float:
        return float(self.values.max())

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 100:
            raise TraceError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.values, q))


@dataclass(frozen=True)
class ServerTrace:
    """One consolidation candidate: identity, source hardware, demand.

    Attributes
    ----------
    vm:
        The virtual machine this source server becomes.
    source_spec:
        Hardware of the source physical server.  CPU utilization fractions
        are relative to this spec.
    cpu_util:
        CPU utilization fraction trace (0..1 on the source box).
    memory_gb:
        Memory demand trace in GB.
    """

    vm: VirtualMachine
    source_spec: ServerSpec
    cpu_util: ResourceTrace
    memory_gb: ResourceTrace

    def __post_init__(self) -> None:
        if len(self.cpu_util) != len(self.memory_gb):
            raise TraceError(
                f"{self.vm.vm_id}: CPU trace has {len(self.cpu_util)} points "
                f"but memory trace has {len(self.memory_gb)}"
            )
        if self.cpu_util.interval_hours != self.memory_gb.interval_hours:
            raise TraceError(
                f"{self.vm.vm_id}: CPU and memory traces have different "
                "sampling intervals"
            )

    @property
    def vm_id(self) -> str:
        return self.vm.vm_id

    @property
    def interval_hours(self) -> float:
        return self.cpu_util.interval_hours

    def __len__(self) -> int:
        return len(self.cpu_util)

    @property
    def cpu_rpe2(self) -> np.ndarray:
        """Absolute CPU demand in RPE2 units (util × source capacity)."""
        return self.cpu_util.values * self.source_spec.cpu_rpe2


#: One consolidation candidate's identity: the VM and its source server.
Identity = Tuple[VirtualMachine, ServerSpec]
#: A set's identities, or a shared zero-argument builder resolving them.
_Identities = Union[Tuple[Identity, ...], Callable[[], Tuple[Identity, ...]]]


class TraceSet:
    """All consolidation candidates of one datacenter.

    A set is one columnar :class:`TraceStore` (``None`` for an empty
    set) plus one ``(VirtualMachine, ServerSpec)`` identity per store
    row.  Matrix and aggregate queries, :meth:`window` and
    :meth:`subset` are answered from the store; the identities are
    resolved at most once, when something first needs them; and
    :class:`ServerTrace` objects are read-only views of store rows,
    built the first time something iterates the set or looks up one
    trace.

    Build a set from one list of traces (``TraceSet(name, traces)``,
    which rejects duplicate ids and mixed lengths or intervals) or from
    a store (:meth:`from_store`).  A set never changes once built.
    """

    def __init__(self, name: str, traces: Iterable[ServerTrace] = ()) -> None:
        traces = list(traces)
        seen = set()
        for trace in traces:
            if trace.vm_id in seen:
                raise TraceError(f"duplicate vm_id {trace.vm_id!r} in {name!r}")
            seen.add(trace.vm_id)
            if len(trace) != len(traces[0]):
                raise TraceError(
                    f"{trace.vm_id}: length {len(trace)} != set length "
                    f"{len(traces[0])}"
                )
            if trace.interval_hours != traces[0].interval_hours:
                raise TraceError(
                    f"{trace.vm_id}: interval {trace.interval_hours}h != set "
                    f"interval {traces[0].interval_hours}h"
                )
        self.name = name
        self._store = TraceStore.from_traces(traces) if traces else None
        self._identities: _Identities = tuple(
            (trace.vm, trace.source_spec) for trace in traces
        )
        self._traces: Optional[Tuple[ServerTrace, ...]] = None

    @classmethod
    def from_store(
        cls, name: str, store: TraceStore, vm_specs: object
    ) -> "TraceSet":
        """Build a set over a columnar store.

        ``vm_specs`` is a sequence of ``(VirtualMachine, ServerSpec)``
        pairs aligned with the store rows, or a zero-argument callable
        returning one (resolved at most once, on first need, and shared
        with every ``window`` of the set).
        """
        trace_set = cls(name)
        trace_set._store = store
        trace_set._identities = (
            _memoized(vm_specs) if callable(vm_specs) else tuple(vm_specs)  # type: ignore[call-overload]
        )
        return trace_set

    def _resolved(self) -> Tuple[Identity, ...]:
        pairs = self._identities
        if callable(pairs):
            pairs = self._identities = pairs()
        if len(pairs) != len(self):
            raise TraceError(
                f"{self.name!r}: {len(pairs)} VM specs for "
                f"{len(self)} store rows"
            )
        return pairs

    def __getstate__(self) -> Dict[str, object]:
        # Identity builders close over generator or manifest state and
        # do not pickle, and the materialized traces are views of store
        # rows: pickling them would write the demand a second time.
        return {
            "name": self.name,
            "_store": self._store,
            "_identities": self._resolved(),
            "_traces": None,
        }

    def __repr__(self) -> str:
        return f"TraceSet(name={self.name!r}, n_servers={len(self)})"

    @property
    def store(self) -> TraceStore:
        """The columnar store holding every row's demand."""
        if self._store is None:
            raise TraceError(f"trace set {self.name!r} is empty")
        return self._store

    @property
    def identities(self) -> Tuple[Identity, ...]:
        """One ``(VirtualMachine, ServerSpec)`` pair per row, in row order.

        Reading them builds no trace objects: planners take workload
        classes from here, writers take identity records.
        """
        return self._resolved()

    @property
    def traces(self) -> Tuple[ServerTrace, ...]:
        if self._traces is None:
            store = self._store
            # Store rows are read-only views, so ResourceTrace adopts
            # them without copying the demand data.
            self._traces = tuple(
                ServerTrace(
                    vm=vm,
                    source_spec=spec,
                    cpu_util=ResourceTrace(
                        values=store.cpu_util[row],
                        interval_hours=store.interval_hours,
                        unit="fraction",
                    ),
                    memory_gb=ResourceTrace(
                        values=store.memory_gb[row],
                        interval_hours=store.interval_hours,
                        unit="GB",
                    ),
                )
                for row, (vm, spec) in enumerate(self._resolved())
            )
        return self._traces

    def _row(self, vm_id: str) -> int:
        try:
            return self.store.row_of(vm_id)
        except TraceError:
            raise TraceError(
                f"unknown vm_id {vm_id!r} in {self.name!r}"
            ) from None

    def trace(self, vm_id: str) -> ServerTrace:
        return self.traces[self._row(vm_id)]

    def __len__(self) -> int:
        return 0 if self._store is None else self._store.n_servers

    def __iter__(self) -> Iterator[ServerTrace]:
        return iter(self.traces)

    def __contains__(self, vm_id: object) -> bool:
        try:
            self._row(vm_id)  # type: ignore[arg-type]
        except TraceError:
            return False
        return True

    @property
    def vm_ids(self) -> Tuple[str, ...]:
        return () if self._store is None else self._store.vm_ids

    @property
    def n_points(self) -> int:
        return self.store.n_points

    @property
    def interval_hours(self) -> float:
        return self.store.interval_hours

    @property
    def duration_hours(self) -> float:
        return self.n_points * self.interval_hours

    def window(self, start_hour: float, end_hour: float) -> "TraceSet":
        """Slice every row to ``[start_hour, end_hour)``.

        Bounds must align to sample boundaries; misaligned or
        out-of-range windows are a caller bug and raise
        :class:`TraceError`.  The child's store is a zero-copy column
        slice, and it shares this set's identities.
        """
        store = self.store
        interval = store.interval_hours
        start_index = start_hour / interval
        end_index = end_hour / interval
        if start_index != int(start_index) or end_index != int(end_index):
            raise TraceError(
                f"window [{start_hour}, {end_hour}) does not align to "
                f"{interval}h samples"
            )
        i, j = int(start_index), int(end_index)
        if not (0 <= i < j <= store.n_points):
            raise TraceError(
                f"window [{start_hour}, {end_hour})h out of range for a "
                f"{store.n_points * interval}h trace"
            )
        return TraceSet.from_store(
            self.name, store.window(i, j), self._identities
        )

    def subset(self, vm_ids: Iterable[str]) -> "TraceSet":
        """Restrict to the given VMs (order follows ``vm_ids``)."""
        selected = list(vm_ids)
        rows = [self._row(vm_id) for vm_id in selected]
        if not selected:
            return TraceSet(self.name)
        pairs = self._resolved()
        return TraceSet.from_store(
            self.name,
            self.store.take(selected),
            [pairs[row] for row in rows],
        )

    def cpu_util_matrix(self) -> np.ndarray:
        """(n_servers, n_points) read-only matrix of CPU utilization."""
        return self.store.cpu_util

    def cpu_rpe2_matrix(self) -> np.ndarray:
        """(n_servers, n_points) read-only matrix of CPU demand in RPE2."""
        return self.store.cpu_rpe2

    def memory_gb_matrix(self) -> np.ndarray:
        """(n_servers, n_points) read-only matrix of memory demand in GB."""
        return self.store.memory_gb

    def aggregate_cpu_rpe2(self) -> np.ndarray:
        """Total CPU demand across all servers, per timestep (RPE2)."""
        return self.store.cpu_rpe2.sum(axis=0)

    def aggregate_memory_gb(self) -> np.ndarray:
        """Total memory demand across all servers, per timestep (GB)."""
        return self.store.memory_gb.sum(axis=0)

    def mean_cpu_utilization(self) -> float:
        """Mean CPU utilization fraction across servers and time (Table 2)."""
        return float(np.mean(self.store.cpu_util.mean(axis=1)))

    def per_vm_mean_cpu_util(self) -> np.ndarray:
        """Per-VM mean CPU utilization fraction, in trace order."""
        return self.store.cpu_util.mean(axis=1)

    def per_vm_peak_cpu_rpe2(self) -> np.ndarray:
        """Per-VM peak absolute CPU demand (RPE2), in trace order."""
        return self.store.cpu_rpe2.max(axis=1)

    def per_vm_mean_memory_gb(self) -> np.ndarray:
        """Per-VM mean memory demand (GB), in trace order."""
        return self.store.memory_gb.mean(axis=1)
