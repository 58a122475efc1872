"""Columnar (structure-of-arrays) backing store for trace sets.

:class:`TraceStore` holds one datacenter's demand as immutable
``(n_servers, n_points)`` matrices — CPU utilization fractions, absolute
CPU demand in RPE2, and memory demand in GB.  It is the demand half of
every :class:`~repro.workloads.trace.TraceSet` — written once by the
generator, opened from a chunked directory or an archive, or packed
from a list of :class:`~repro.workloads.trace.ServerTrace` objects — and
shared by every consumer that needs bulk per-timestep math (the
emulator's scatter-add replay, aggregate demand queries, trace
analysis).  :func:`check_demand_rows` is the one value check for demand
read from outside the library.

The row-major ``float64`` layout is the contract: row ``i`` is VM
``vm_ids[i]``, and every matrix is marked read-only so views handed out
by :meth:`window` are safe to share without copies.  Column windows are
zero-copy NumPy views; row subsets (:meth:`take`) are single bulk fancy
-index gathers.  All derived matrices are computed with the same
elementwise operations as the per-trace scalar path, so results are
bit-identical to iterating traces one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.exceptions import TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.trace import ServerTrace

__all__ = ["TraceStore", "check_demand_rows"]

#: Rows per block of :func:`check_demand_rows`: small enough that a
#: block stays in cache between its min and max passes.
_CHECK_BLOCK_ROWS = 256


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def check_demand_rows(
    matrix: np.ndarray, vm_ids: Sequence[str], source: str
) -> None:
    """Reject demand read from outside the library.

    Every row must be non-empty, finite and non-negative; otherwise
    :class:`TraceError` names ``source`` (the file the matrix came from)
    and the first bad row's VM.  The check reduces one row block at
    a time to per-row minima and maxima, so a memory-mapped fleet is
    read once, block by block, and the only temporaries are per row.
    """
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise TraceError(f"{source}: demand rows are empty")
    for start in range(0, matrix.shape[0], _CHECK_BLOCK_ROWS):
        block = matrix[start:start + _CHECK_BLOCK_ROWS]
        # NaN fails ``>= 0`` (min propagates it); +Inf shows in the max.
        bad = ~(block.min(axis=1) >= 0.0) | np.isinf(block.max(axis=1))
        if bad.any():
            vm_id = vm_ids[start + int(np.argmax(bad))]
            raise TraceError(
                f"{source}: VM {vm_id!r} has NaN, Inf or negative values"
            )


@dataclass(frozen=True)
class TraceStore:
    """Immutable columnar view of one trace set.

    Attributes
    ----------
    vm_ids:
        Row labels: ``vm_ids[i]`` owns row ``i`` of every matrix.
    cpu_util:
        ``(n, T)`` CPU utilization fractions of the source servers.
    cpu_rpe2:
        ``(n, T)`` absolute CPU demand (utilization × source capacity).
    memory_gb:
        ``(n, T)`` memory demand in GB.
    interval_hours:
        Sampling interval shared by every row.
    """

    vm_ids: Tuple[str, ...]
    cpu_util: np.ndarray
    cpu_rpe2: np.ndarray
    memory_gb: np.ndarray
    interval_hours: float
    _row_of: Mapping[str, int] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = len(self.vm_ids)
        for name in ("cpu_util", "cpu_rpe2", "memory_gb"):
            matrix = getattr(self, name)
            if matrix.ndim != 2 or matrix.shape[0] != n:
                raise TraceError(
                    f"TraceStore.{name}: expected ({n}, T) matrix, got "
                    f"shape {matrix.shape}"
                )
            if matrix.shape[1] != self.cpu_util.shape[1]:
                raise TraceError(f"TraceStore.{name}: column count mismatch")
        row_of = {vm_id: i for i, vm_id in enumerate(self.vm_ids)}
        if len(row_of) != n:
            dup = next(v for i, v in enumerate(self.vm_ids) if row_of[v] != i)
            raise TraceError(f"duplicate vm_id {dup!r} in TraceStore")
        object.__setattr__(self, "_row_of", row_of)

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Unpickled arrays come back writable: freeze them again, so the
        # rows a TraceSet materializes stay zero-copy views.
        for name in ("cpu_util", "cpu_rpe2", "memory_gb"):
            _frozen(state[name])  # type: ignore[arg-type]
        self.__dict__.update(state)

    @classmethod
    def from_demand(
        cls,
        vm_ids: Sequence[str],
        cpu_util: np.ndarray,
        memory_gb: np.ndarray,
        capacity: Sequence[float],
        interval_hours: float,
    ) -> "TraceStore":
        """Adopt (and freeze) utilization and memory matrices.

        ``capacity`` holds each row's source-server RPE2.  The
        absolute-CPU matrix is one broadcast multiply by it, exactly the
        float multiplications of ``ServerTrace.cpu_rpe2`` row by row, so
        every producer derives it the same way.
        """
        cpu_util = np.asarray(cpu_util, dtype=float)
        cpu_rpe2 = np.multiply(
            cpu_util, np.asarray(capacity, dtype=float).reshape(-1, 1)
        )
        return cls(
            vm_ids=tuple(vm_ids),
            cpu_util=_frozen(cpu_util),
            cpu_rpe2=_frozen(cpu_rpe2),
            memory_gb=_frozen(np.asarray(memory_gb, dtype=float)),
            interval_hours=interval_hours,
        )

    @classmethod
    def from_traces(cls, traces: Sequence["ServerTrace"]) -> "TraceStore":
        """Build the columnar matrices from row-per-trace objects.

        One C-level gather per metric (``np.stack`` writes straight into
        the preallocated matrix), then :meth:`from_demand`'s broadcast
        multiply — no per-trace temporaries anywhere.
        """
        if not traces:
            raise TraceError("cannot build a TraceStore from zero traces")
        shape = (len(traces), len(traces[0]))
        cpu_util = np.empty(shape, dtype=float)
        memory_gb = np.empty(shape, dtype=float)
        np.stack([t.cpu_util.values for t in traces], out=cpu_util)
        np.stack([t.memory_gb.values for t in traces], out=memory_gb)
        return cls.from_demand(
            [t.vm_id for t in traces],
            cpu_util,
            memory_gb,
            [t.source_spec.cpu_rpe2 for t in traces],
            traces[0].interval_hours,
        )

    @property
    def n_servers(self) -> int:
        return len(self.vm_ids)

    @property
    def n_points(self) -> int:
        return int(self.cpu_util.shape[1])

    def row_of(self, vm_id: str) -> int:
        """Matrix row of one VM; raises :class:`TraceError` if unknown."""
        try:
            return self._row_of[vm_id]
        except KeyError:
            raise TraceError(f"unknown vm_id {vm_id!r} in TraceStore") from None

    def window(self, start_index: int, end_index: int) -> "TraceStore":
        """Zero-copy column slice covering ``[start_index, end_index)``.

        The returned store shares memory with this one: slices of
        read-only matrices are read-only views, so no demand data is
        duplicated however many history/evaluation windows are cut.
        """
        if not 0 <= start_index < end_index <= self.n_points:
            raise TraceError(
                f"window [{start_index}, {end_index}) out of range for "
                f"{self.n_points} points"
            )
        return TraceStore(
            vm_ids=self.vm_ids,
            cpu_util=self.cpu_util[:, start_index:end_index],
            cpu_rpe2=self.cpu_rpe2[:, start_index:end_index],
            memory_gb=self.memory_gb[:, start_index:end_index],
            interval_hours=self.interval_hours,
        )

    def rows(self, start: int, stop: int) -> "TraceStore":
        """Zero-copy contiguous row slice covering ``[start, stop)``.

        Unlike :meth:`take` (a bulk fancy-index gather that materializes
        the subset), a contiguous basic slice shares memory with this
        store — including memory-mapped backing files, where the sliced
        rows stay on disk until touched.  This is how shard workers view
        only their rows of a fleet-wide store.
        """
        if not 0 <= start < stop <= self.n_servers:
            raise TraceError(
                f"rows [{start}, {stop}) out of range for "
                f"{self.n_servers} servers"
            )
        return TraceStore(
            vm_ids=self.vm_ids[start:stop],
            cpu_util=self.cpu_util[start:stop],
            cpu_rpe2=self.cpu_rpe2[start:stop],
            memory_gb=self.memory_gb[start:stop],
            interval_hours=self.interval_hours,
        )

    def take(self, vm_ids: Sequence[str]) -> "TraceStore":
        """Row subset in the given order (one bulk gather per matrix)."""
        rows = np.array([self.row_of(v) for v in vm_ids], dtype=np.intp)
        return TraceStore(
            vm_ids=tuple(vm_ids),
            cpu_util=_frozen(self.cpu_util[rows]),
            cpu_rpe2=_frozen(self.cpu_rpe2[rows]),
            memory_gb=_frozen(self.memory_gb[rows]),
            interval_hours=self.interval_hours,
        )
