"""Appendable columnar store for streaming monitoring samples.

:class:`RollingTraceStore` is the online twin of the immutable
:class:`~repro.workloads.store.TraceStore`: the same row-major
``(n_servers, n_points)`` layout, but grown one (or a few) columns at a
time as monitoring ticks stream in, with a bounded retention window so a
long-running controller never holds more than ``retention_points``
columns per metric.

Design points, each pinned by ``tests/workloads/test_rolling_store.py``:

* **Trailing-column invalidation.**  The derived absolute-CPU matrix
  (``cpu_rpe2 = cpu_util × source capacity``) is filled in-place for the
  appended columns only; previously derived columns are never
  recomputed, so an append is O(n_servers × new_columns) regardless of
  history length.
* **Zero-copy views.**  :meth:`rolling_view` / :meth:`view` hand out
  read-only :class:`TraceStore` snapshots whose matrices are NumPy views
  into the live buffers.  Appends write strictly *past* the snapshot's
  columns and compactions copy into a fresh buffer, so a snapshot's
  contents never change after it is taken.
* **Bounded memory.**  Buffers grow geometrically up to
  ``2 × retention_points`` columns; once full, the newest
  ``retention_points`` columns are compacted to the front and the
  buffer is reused.  Peak buffer width is therefore a constant
  multiple of the retention window, however many samples stream in.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import TraceError
from repro.workloads.store import TraceStore
from repro.workloads.trace import ServerTrace

__all__ = ["RollingTraceStore"]

#: Buffers hold up to this multiple of the retention window before a
#: compaction copies the retained tail back to column zero.
_CAPACITY_FACTOR = 2


class RollingTraceStore:
    """Append-only rolling window of per-VM demand columns.

    Parameters
    ----------
    vm_ids:
        Row labels, fixed for the lifetime of the store.
    cpu_capacity_rpe2:
        Per-VM source-server CPU capacity used to derive absolute CPU
        demand from utilization fractions (same convention as
        :meth:`TraceStore.from_traces`).
    interval_hours:
        Sampling interval of appended columns.
    retention_points:
        Maximum number of trailing columns retained; older columns are
        discarded by compaction.  Rolling views must fit inside it.
    """

    def __init__(
        self,
        vm_ids: Sequence[str],
        cpu_capacity_rpe2: Sequence[float],
        *,
        interval_hours: float = 1.0,
        retention_points: int = 720,
    ) -> None:
        if not vm_ids:
            raise TraceError("RollingTraceStore needs at least one VM")
        if len(set(vm_ids)) != len(vm_ids):
            raise TraceError("duplicate vm_ids in RollingTraceStore")
        if len(cpu_capacity_rpe2) != len(vm_ids):
            raise TraceError(
                "cpu_capacity_rpe2 must have one entry per vm_id"
            )
        if interval_hours <= 0:
            raise TraceError(
                f"interval_hours must be > 0, got {interval_hours}"
            )
        if retention_points <= 0:
            raise TraceError(
                f"retention_points must be > 0, got {retention_points}"
            )
        capacity = np.asarray(cpu_capacity_rpe2, dtype=float)
        if np.any(capacity <= 0) or not np.all(np.isfinite(capacity)):
            raise TraceError("cpu_capacity_rpe2 must be finite and > 0")
        self.vm_ids: Tuple[str, ...] = tuple(vm_ids)
        self.interval_hours = float(interval_hours)
        self.retention_points = int(retention_points)
        self._capacity_col = capacity[:, None]
        # float max / capacity can round up far enough for the product
        # to overflow; one float step down then cannot.
        with np.errstate(over="ignore"):
            limit = sys.float_info.max / capacity
            overflows = ~np.isfinite(limit * capacity)
        limit[overflows] = np.nextafter(limit[overflows], 0.0)
        #: Per-row ceiling on ``cpu_util``: at or below it the derived
        #: ``cpu_rpe2 = cpu_util × capacity`` stays finite.
        self.cpu_util_limit: Tuple[float, ...] = tuple(limit.tolist())
        self._cpu_util_limit_col = limit[:, None]
        n = len(self.vm_ids)
        width = min(self.retention_points, 64)
        self._cpu_util = np.empty((n, width), dtype=float)
        self._cpu_rpe2 = np.empty((n, width), dtype=float)
        self._memory_gb = np.empty((n, width), dtype=float)
        #: Buffer column one past the newest sample.
        self._length = 0
        #: Buffer column of the oldest *retained* sample; columns before
        #: it are dead prefix awaiting the next compaction.
        self._start = 0
        #: Total columns ever appended (monotonic stream position).
        self._appended = 0
        self._compactions = 0
        self._row_of = {vm_id: i for i, vm_id in enumerate(self.vm_ids)}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_traces(
        cls,
        traces: Sequence[ServerTrace],
        *,
        retention_points: int = 720,
    ) -> "RollingTraceStore":
        """Seed a rolling store from batch traces (controller bootstrap).

        The traces' columns become the initial window; subsequent
        streaming appends continue where the batch data ends.
        """
        if not traces:
            raise TraceError("cannot seed a RollingTraceStore from zero traces")
        store = cls(
            [t.vm_id for t in traces],
            [t.source_spec.cpu_rpe2 for t in traces],
            interval_hours=traces[0].interval_hours,
            retention_points=retention_points,
        )
        n_points = len(traces[0])
        cpu_util = np.empty((len(traces), n_points), dtype=float)
        memory_gb = np.empty((len(traces), n_points), dtype=float)
        for row, trace in enumerate(traces):
            cpu_util[row, :] = trace.cpu_util.values
            memory_gb[row, :] = trace.memory_gb.values
        store.append_samples(cpu_util, memory_gb)
        return store

    # -- properties -----------------------------------------------------

    @property
    def n_servers(self) -> int:
        return len(self.vm_ids)

    @property
    def n_points(self) -> int:
        """Columns currently retained (≤ ``retention_points``)."""
        return self._length - self._start

    @property
    def total_points(self) -> int:
        """Columns ever appended, including ones compaction dropped."""
        return self._appended

    @property
    def n_compactions(self) -> int:
        """Times the retained tail was copied back to column zero."""
        return self._compactions

    @property
    def buffer_points(self) -> int:
        """Current buffer width — bounded by ``2 × retention_points``."""
        return int(self._cpu_util.shape[1])

    # -- ingest ---------------------------------------------------------

    def append_samples(
        self, cpu_util: np.ndarray, memory_gb: np.ndarray
    ) -> None:
        """Append one or more demand columns.

        ``cpu_util`` / ``memory_gb`` are ``(n_servers,)`` vectors or
        ``(n_servers, k)`` matrices of utilization fractions and GB.
        Only the appended columns are written: the derived absolute-CPU
        matrix for existing columns is left untouched.  Non-finite or
        negative samples, and a ``cpu_util`` above its row's
        :attr:`cpu_util_limit` (whose derived absolute CPU would
        overflow to Inf), raise :class:`TraceError` before anything is
        written.
        """
        cpu = np.asarray(cpu_util, dtype=float)
        mem = np.asarray(memory_gb, dtype=float)
        if cpu.ndim == 1:
            cpu = cpu[:, None]
        if mem.ndim == 1:
            mem = mem[:, None]
        n = self.n_servers
        if cpu.shape[0] != n or mem.shape[0] != n:
            raise TraceError(
                f"append_samples: expected {n} rows, got "
                f"{cpu.shape[0]}/{mem.shape[0]}"
            )
        if cpu.shape[1] != mem.shape[1]:
            raise TraceError("append_samples: column count mismatch")
        if not (np.all(np.isfinite(cpu)) and np.all(np.isfinite(mem))):
            raise TraceError("append_samples: NaN or Inf in samples")
        if np.any(cpu < 0) or np.any(mem < 0):
            raise TraceError("append_samples: negative demand sample")
        if np.any(cpu > self._cpu_util_limit_col):
            raise TraceError(
                "append_samples: cpu_util above cpu_util_limit "
                "(cpu_util * capacity would overflow to Inf)"
            )
        k = cpu.shape[1]
        if k == 0:
            return
        if k > self.retention_points:
            # Columns beyond the retention window would be compacted
            # away immediately; only the trailing window is written.
            dropped = k - self.retention_points
            cpu = cpu[:, dropped:]
            mem = mem[:, dropped:]
            self._appended += dropped
            k = self.retention_points
        self._ensure_room(k)
        start = self._length
        end = start + k
        self._cpu_util[:, start:end] = cpu
        self._memory_gb[:, start:end] = mem
        # Trailing-column derivation: the same multiply TraceStore does
        # for the whole matrix, restricted to the new columns.
        self._cpu_rpe2[:, start:end] = (
            self._cpu_util[:, start:end] * self._capacity_col
        )
        self._length = end
        self._appended += k
        # Advance the retention window past columns that aged out; the
        # dead prefix is physically dropped at the next compaction.
        if self._length - self._start > self.retention_points:
            self._start = self._length - self.retention_points

    def skip_points(self, k: int) -> None:
        """Advance the stream by ``k`` columns that are never stored.

        For a caller about to append a full retention window, whose
        earlier columns would age out unread.  :attr:`total_points`
        counts the skipped columns, as it counts the columns an
        oversized append trims; the retained window restarts empty,
        since the columns it held no longer adjoin the next append.
        """
        if k < 0:
            raise TraceError(f"skip_points: k must be >= 0, got {k}")
        self._appended += k
        if k:
            self._start = self._length

    def _ensure_room(self, k: int) -> None:
        """Grow or compact so ``k`` more columns fit."""
        max_width = _CAPACITY_FACTOR * self.retention_points
        if self._length + k <= self.buffer_points:
            return
        # ``keep ≤ retention_points`` (the append trim above) and
        # ``k ≤ retention_points`` (oversized appends are pre-trimmed),
        # so the retained tail plus the append always fits the cap.
        keep = self.n_points
        width = min(max(2 * self.buffer_points, keep + k), max_width)
        if self._length > keep:
            self._compactions += 1
        self._reallocate(width, keep=keep)

    def _reallocate(self, width: int, keep: int) -> None:
        """Copy the last ``keep`` columns into fresh ``width`` buffers.

        Always a fresh allocation — previously handed-out views keep
        aliasing the old buffers, which are never written again.
        """
        n = self.n_servers
        new_cpu = np.empty((n, width), dtype=float)
        new_rpe2 = np.empty((n, width), dtype=float)
        new_mem = np.empty((n, width), dtype=float)
        if keep:
            tail = slice(self._length - keep, self._length)
            new_cpu[:, :keep] = self._cpu_util[:, tail]
            new_rpe2[:, :keep] = self._cpu_rpe2[:, tail]
            new_mem[:, :keep] = self._memory_gb[:, tail]
        self._cpu_util = new_cpu
        self._cpu_rpe2 = new_rpe2
        self._memory_gb = new_mem
        self._length = keep
        self._start = 0

    # -- views ----------------------------------------------------------

    def view(self) -> TraceStore:
        """Read-only snapshot of every retained column (zero-copy)."""
        return self._snapshot(self._start, self._length)

    def rolling_view(self, window_hours: float) -> TraceStore:
        """Read-only snapshot of the trailing ``window_hours`` columns.

        The window must align to sample boundaries and fit inside the
        retained columns.
        """
        points = window_hours / self.interval_hours
        if points != int(points):
            raise TraceError(
                f"window {window_hours}h does not align to "
                f"{self.interval_hours}h samples"
            )
        k = int(points)
        if not 0 < k <= self.n_points:
            raise TraceError(
                f"rolling window of {k} points out of range; "
                f"{self.n_points} columns retained"
            )
        return self._snapshot(self._length - k, self._length)

    def _snapshot(self, start: int, end: int) -> TraceStore:
        if end <= start:
            raise TraceError("empty RollingTraceStore snapshot")
        cpu_util = self._cpu_util[:, start:end].view()
        cpu_rpe2 = self._cpu_rpe2[:, start:end].view()
        memory_gb = self._memory_gb[:, start:end].view()
        for matrix in (cpu_util, cpu_rpe2, memory_gb):
            matrix.flags.writeable = False
        return TraceStore(
            vm_ids=self.vm_ids,
            cpu_util=cpu_util,
            cpu_rpe2=cpu_rpe2,
            memory_gb=memory_gb,
            interval_hours=self.interval_hours,
        )

    # -- queries --------------------------------------------------------

    def last_cpu_rpe2(self) -> np.ndarray:
        """Most recent absolute-CPU column (read-only view)."""
        if not self.n_points:
            raise TraceError("RollingTraceStore is empty")
        column = self._cpu_rpe2[:, self._length - 1].view()
        column.flags.writeable = False
        return column

    def last_cpu_util(self) -> np.ndarray:
        """Most recent utilization column (read-only view)."""
        if not self.n_points:
            raise TraceError("RollingTraceStore is empty")
        column = self._cpu_util[:, self._length - 1].view()
        column.flags.writeable = False
        return column

    def last_memory_gb(self) -> np.ndarray:
        """Most recent memory column (read-only view)."""
        if not self.n_points:
            raise TraceError("RollingTraceStore is empty")
        column = self._memory_gb[:, self._length - 1].view()
        column.flags.writeable = False
        return column

    def peak_window(self, window_points: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-VM (cpu_rpe2, memory_gb) peaks over the trailing window."""
        if window_points <= 0:
            raise TraceError(
                f"window_points must be > 0, got {window_points}"
            )
        k = min(window_points, self.n_points)
        if k == 0:
            raise TraceError("RollingTraceStore is empty")
        tail = slice(self._length - k, self._length)
        return (
            self._cpu_rpe2[:, tail].max(axis=1),
            self._memory_gb[:, tail].max(axis=1),
        )

    def row_of(self, vm_id: str) -> int:
        try:
            return self._row_of[vm_id]
        except KeyError:
            raise TraceError(
                f"unknown vm_id {vm_id!r} in RollingTraceStore"
            ) from None
