"""Chunked, memory-mapped trace storage for scale-out fleets.

A 100k-server fleet over 30 days of hourly samples is three
``(100_000, 720)`` float64 matrices — about 1.7 GB that no single
planning shard ever needs all of.  This module stores those matrices as
``.npy`` files on disk and serves them through ``np.memmap``, so a
:class:`~repro.workloads.store.TraceStore` opened from a chunk directory
keeps demand data *on disk* until a consumer touches it.  Contiguous row
slices (:meth:`TraceStore.rows`) and column windows (:meth:`TraceStore
.window`) stay zero-copy memmap views, which is exactly the access
pattern of sharded planning: each worker faults in only its shard's rows.

Layout of a store directory::

    <dir>/manifest.json   identity + per-VM metadata (JSON)
    <dir>/cpu_util.npy    (n_servers, n_points) float64
    <dir>/cpu_rpe2.npy    (n_servers, n_points) float64
    <dir>/memory_gb.npy   (n_servers, n_points) float64

The absolute-CPU matrix is derived block-by-block at *write* time with
the same broadcast multiply as :meth:`TraceStore.from_demand`, so an
opened store is bit-identical to the in-memory store built from the same
traces.

:class:`ChunkedTraceWriter` streams row blocks into the files without
ever holding the full fleet in memory; :func:`write_trace_set` spills an
existing :class:`~repro.workloads.trace.TraceSet` store block by block;
:func:`open_chunked_store` / :func:`open_chunked_trace_set` map a
directory back into planner-consumable objects.  :func:`vm_record` and
:func:`decode_vm_record` are the one per-row identity codec, shared
with the ``.npz`` archives of :mod:`repro.workloads.io`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import TraceError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.workloads.store import TraceStore, check_demand_rows
from repro.workloads.trace import Identity, TraceSet

__all__ = [
    "ChunkedManifest",
    "ChunkedTraceWriter",
    "decode_vm_record",
    "generate_chunked_store",
    "vm_record",
    "write_trace_set",
    "open_chunked_store",
    "open_chunked_trace_set",
]

MANIFEST_NAME = "manifest.json"
_MATRIX_FILES = ("cpu_util", "cpu_rpe2", "memory_gb")
_FORMAT_VERSION = 1


def vm_record(
    vm: VirtualMachine, source_spec: ServerSpec
) -> dict:
    """JSON-able per-row metadata: everything the matrices don't carry."""
    return {
        "vm_id": vm.vm_id,
        "memory_config_gb": vm.memory_config_gb,
        "workload_class": vm.workload_class,
        "labels": dict(vm.labels),
        "source_spec": {
            "cpu_rpe2": source_spec.cpu_rpe2,
            "memory_gb": source_spec.memory_gb,
            "network_mbps": source_spec.network_mbps,
            "disk_mbps": source_spec.disk_mbps,
            "model_name": source_spec.model_name,
        },
    }


def decode_vm_record(record: Mapping[str, object]) -> Identity:
    """Rebuild one row's ``(VirtualMachine, ServerSpec)`` from its record.

    The inverse of :func:`vm_record`.  Source-spec fields a record does
    not carry (``.npz`` archives written before the network and disk
    throughputs were recorded) take the :class:`ServerSpec` defaults.
    """
    return (
        VirtualMachine(
            vm_id=record["vm_id"],  # type: ignore[arg-type]
            memory_config_gb=record["memory_config_gb"],  # type: ignore[arg-type]
            workload_class=record["workload_class"],  # type: ignore[arg-type]
            labels=dict(record.get("labels", {})),  # type: ignore[call-overload]
        ),
        ServerSpec(**record["source_spec"]),  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class ChunkedManifest:
    """Identity and per-VM metadata of one chunked store directory.

    The matrices carry only demand numbers; each row's identity — VM
    id, configured memory, workload class and labels, and the source
    server's full hardware spec — lives here as one JSON record per row
    (see :func:`vm_record`), along with the matrix geometry every file
    must have.
    """

    name: str
    interval_hours: float
    n_points: int
    vms: Tuple[dict, ...]

    def __post_init__(self) -> None:
        if self.interval_hours <= 0:
            raise TraceError(
                f"interval_hours must be > 0, got {self.interval_hours}"
            )
        if self.n_points <= 0:
            raise TraceError(f"n_points must be > 0, got {self.n_points}")

    @property
    def n_servers(self) -> int:
        return len(self.vms)

    @property
    def vm_ids(self) -> Tuple[str, ...]:
        return tuple(record["vm_id"] for record in self.vms)


class ChunkedTraceWriter:
    """Stream row blocks of one fleet into a chunked store directory.

    The writer preallocates the on-disk matrices (sparse files on
    filesystems that support them) and fills them block by block, so
    peak memory is one block — not one fleet.  Rows must arrive in
    order; :meth:`close` refuses to finalize a partially written store.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        name: str,
        n_servers: int,
        n_points: int,
        interval_hours: float = 1.0,
    ) -> None:
        if n_servers <= 0 or n_points <= 0:
            raise TraceError(
                f"chunked store needs positive dimensions, got "
                f"({n_servers}, {n_points})"
            )
        if interval_hours <= 0:
            raise TraceError(
                f"interval_hours must be > 0, got {interval_hours}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._name = name
        self._n_servers = n_servers
        self._n_points = n_points
        self._interval_hours = interval_hours
        self._cursor = 0
        self._closed = False
        self._vms: list = []
        self._matrices = {
            metric: np.lib.format.open_memmap(
                self._directory / f"{metric}.npy",
                mode="w+",
                dtype=np.float64,
                shape=(n_servers, n_points),
            )
            for metric in _MATRIX_FILES
        }

    @property
    def rows_written(self) -> int:
        return self._cursor

    def append_block(
        self,
        vm_records: Sequence[dict],
        cpu_util: np.ndarray,
        memory_gb: np.ndarray,
    ) -> None:
        """Write one block of rows at the current cursor.

        ``cpu_util``/``memory_gb`` are ``(k, n_points)`` blocks and
        ``vm_records`` the matching per-row metadata (see
        :func:`vm_record`).  The absolute-CPU block is derived here with
        the same broadcast multiply as ``TraceStore.from_demand`` so the
        on-disk matrix is bit-identical to the in-memory build.
        """
        if self._closed:
            raise TraceError("chunked writer is closed")
        block = np.asarray(cpu_util, dtype=float)
        memory = np.asarray(memory_gb, dtype=float)
        k = len(vm_records)
        if block.shape != (k, self._n_points) or memory.shape != block.shape:
            raise TraceError(
                f"block shape mismatch: {k} records, cpu {block.shape}, "
                f"memory {memory.shape}, expected ({k}, {self._n_points})"
            )
        stop = self._cursor + k
        if stop > self._n_servers:
            raise TraceError(
                f"block of {k} rows overflows store of {self._n_servers} "
                f"(cursor at {self._cursor})"
            )
        capacity = np.array(
            [record["source_spec"]["cpu_rpe2"] for record in vm_records],
            dtype=float,
        )[:, None]
        self._matrices["cpu_util"][self._cursor:stop] = block
        self._matrices["memory_gb"][self._cursor:stop] = memory
        np.multiply(
            block, capacity, out=self._matrices["cpu_rpe2"][self._cursor:stop]
        )
        self._vms.extend(vm_records)
        self._cursor = stop

    def close(self) -> Path:
        """Flush matrices, write the manifest, return the directory."""
        if self._closed:
            return self._directory
        if self._cursor != self._n_servers:
            raise TraceError(
                f"chunked store incomplete: {self._cursor} of "
                f"{self._n_servers} rows written"
            )
        for matrix in self._matrices.values():
            matrix.flush()
        # Drop the writable maps before publishing the manifest: readers
        # treat a manifest's presence as "store is complete".
        self._matrices = {}
        manifest = {
            "format": _FORMAT_VERSION,
            "name": self._name,
            "interval_hours": self._interval_hours,
            "n_servers": self._n_servers,
            "n_points": self._n_points,
            "vms": self._vms,
        }
        path = self._directory / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest))
        tmp.replace(path)
        self._closed = True
        return self._directory


def write_trace_set(
    trace_set: TraceSet,
    directory: Union[str, Path],
    *,
    block_rows: int = 1024,
) -> Path:
    """Spill a trace set into a chunked store directory.

    Writes the set's store in row blocks of ``block_rows``, each with
    its identity records; no trace objects are built.
    """
    store = trace_set.store
    identities = trace_set.identities
    records = [vm_record(vm, spec) for vm, spec in identities]
    writer = ChunkedTraceWriter(
        directory,
        name=trace_set.name,
        n_servers=store.n_servers,
        n_points=store.n_points,
        interval_hours=store.interval_hours,
    )
    for start in range(0, store.n_servers, block_rows):
        stop = start + block_rows
        writer.append_block(
            records[start:stop],
            store.cpu_util[start:stop],
            store.memory_gb[start:stop],
        )
    return writer.close()


def generate_chunked_store(
    directory: Union[str, Path],
    name: str,
    specs: Sequence[tuple],
    n_hours: int,
    seed: int,
    *,
    mean_util_spread_sigma: float = 0.7,
    mean_util_bounds: Tuple[float, float] = (0.002, 0.6),
    correlation=None,
    block_rows: int = 2048,
) -> Path:
    """Generate a fleet straight to disk, one row block at a time.

    This is the array engine's streaming face wired to the chunked
    writer: each :class:`~repro.workloads.generator.TraceBlock` is
    written (and its absolute-CPU rows derived) the moment it is
    generated, so peak memory is ``O(block_rows * n_hours)`` however
    large the fleet — a 100k-server month never exists in RAM.  The
    on-disk store is bit-identical to ``generate_trace_set(...).store``
    for the same arguments.
    """
    from repro.workloads.generator import generate_trace_blocks

    if block_rows <= 0:
        raise TraceError(f"block_rows must be > 0, got {block_rows}")
    total = sum(int(count) for *_group, count in specs)
    writer = ChunkedTraceWriter(
        directory,
        name=name,
        n_servers=total,
        n_points=n_hours,
        interval_hours=1.0,
    )
    blocks = generate_trace_blocks(
        name,
        specs,
        n_hours,
        seed,
        mean_util_spread_sigma=mean_util_spread_sigma,
        mean_util_bounds=mean_util_bounds,
        correlation=correlation,
        block_rows=block_rows,
    )
    for block in blocks:
        spec = block.source_spec
        writer.append_block(
            [vm_record(vm, spec) for vm in block.virtual_machines()],
            block.cpu_util,
            block.memory_gb,
        )
    return writer.close()


def load_manifest(directory: Union[str, Path]) -> ChunkedManifest:
    """Read and validate the manifest of a chunked store directory."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise TraceError(f"no chunked store manifest at {path}")
    raw = json.loads(path.read_text())
    if raw.get("format") != _FORMAT_VERSION:
        raise TraceError(
            f"unsupported chunked store format {raw.get('format')!r} "
            f"at {path}"
        )
    vms = tuple(raw["vms"])
    if raw.get("n_servers") != len(vms) or "n_points" not in raw:
        raise TraceError(
            f"manifest {path} lists {len(vms)} VM records, but its "
            f"geometry is n_servers={raw.get('n_servers')!r}, "
            f"n_points={raw.get('n_points')!r}"
        )
    return ChunkedManifest(
        name=raw["name"],
        interval_hours=float(raw["interval_hours"]),
        n_points=int(raw["n_points"]),
        vms=vms,
    )


def open_chunked_store(
    directory: Union[str, Path],
    *,
    manifest: Optional[ChunkedManifest] = None,
) -> TraceStore:
    """Open a chunked directory as a memory-mapped :class:`TraceStore`.

    The returned store's matrices are read-only ``np.memmap`` views:
    nothing is resident until touched, and ``window()``/``rows()``
    slices of it remain memmap views.  Query results are bit-identical
    to the in-memory store built from the same traces.  Every matrix
    file must hold float64 in the manifest's ``(n_servers, n_points)``
    shape, or :class:`TraceError` names the file — a truncated file
    never opens as a shorter store.  Pass an
    already-loaded ``manifest`` to skip re-parsing it — at 100k rows
    the manifest is tens of MB of JSON, a real cost per shard task.
    """
    base = Path(directory)
    if manifest is None:
        manifest = load_manifest(base)
    expected = (manifest.n_servers, manifest.n_points)
    matrices = {}
    for metric in _MATRIX_FILES:
        path = base / f"{metric}.npy"
        if not path.is_file():
            raise TraceError(f"chunked store missing matrix file {path}")
        matrix = np.load(path, mmap_mode="r")
        if matrix.dtype != np.float64:
            raise TraceError(
                f"chunked store matrix file {path} has dtype "
                f"{matrix.dtype}, expected float64"
            )
        if matrix.shape != expected:
            raise TraceError(
                f"chunked store matrix file {path} has shape "
                f"{matrix.shape}, but the manifest says {expected}"
            )
        matrices[metric] = matrix
    return TraceStore(
        vm_ids=manifest.vm_ids,
        cpu_util=matrices["cpu_util"],
        cpu_rpe2=matrices["cpu_rpe2"],
        memory_gb=matrices["memory_gb"],
        interval_hours=manifest.interval_hours,
    )


def open_chunked_trace_set(
    directory: Union[str, Path],
    *,
    start: int = 0,
    stop: Optional[int] = None,
) -> TraceSet:
    """Open rows ``[start, stop)`` as a planner-consumable set.

    The set's store is the matching zero-copy row slice of the on-disk
    store, so a shard worker that opens its own row range touches only
    those rows' pages, never the whole fleet.  Every opened row of every
    matrix file is checked once (:func:`check_demand_rows`: non-empty,
    finite, non-negative); the VM identities are decoded from the
    manifest only when something first needs them.
    """
    base = Path(directory)
    manifest = load_manifest(base)
    store = open_chunked_store(base, manifest=manifest)
    if stop is None:
        stop = store.n_servers
    rows = store.rows(start, stop)
    for metric in _MATRIX_FILES:
        check_demand_rows(
            getattr(rows, metric), rows.vm_ids, str(base / f"{metric}.npy")
        )
    records = manifest.vms[start:stop]
    return TraceSet.from_store(
        manifest.name,
        rows,
        lambda: [decode_vm_record(record) for record in records],
    )
