"""Trace set (de)serialization.

Real deployments of the consolidation tool pull monitoring data from a
central warehouse (Section 3.1); this module is the equivalent exchange
format for the library.  A :class:`~repro.workloads.trace.TraceSet` is
stored as a single ``.npz`` archive:

* ``cpu_util`` — (n_servers, n_points) float matrix of the stored
  utilization fractions,
* ``memory_gb`` — (n_servers, n_points) float matrix,
* ``meta`` — a JSON document with the set name, sampling interval, and
  one identity record per server
  (:func:`~repro.workloads.chunked.vm_record`: vm id, configured
  memory, workload class, labels, full source spec).

A round trip is bit for bit: both matrices are written as stored, and
loading derives the absolute-CPU matrix with the same multiply that
built it.  The format is self-contained and versioned so archives
survive library upgrades; archives whose source specs predate the
network and disk throughputs load with the :class:`ServerSpec`
defaults.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.exceptions import TraceError
from repro.workloads.chunked import decode_vm_record, vm_record
from repro.workloads.store import TraceStore, check_demand_rows
from repro.workloads.trace import TraceSet

__all__ = ["save_trace_set", "load_trace_set"]

FORMAT_VERSION = 1


def save_trace_set(trace_set: TraceSet, path: Union[str, Path]) -> Path:
    """Write a trace set to a ``.npz`` archive; returns the path written."""
    path = Path(path)
    if len(trace_set) == 0:
        raise TraceError(f"refusing to save empty trace set {trace_set.name!r}")
    meta = {
        "format_version": FORMAT_VERSION,
        "name": trace_set.name,
        "interval_hours": trace_set.interval_hours,
        "servers": [vm_record(vm, spec) for vm, spec in trace_set.identities],
    }
    np.savez_compressed(
        path,
        cpu_util=trace_set.cpu_util_matrix(),
        memory_gb=trace_set.memory_gb_matrix(),
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )
    # np.savez appends .npz when missing; report the real path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_trace_set(path: Union[str, Path]) -> TraceSet:
    """Load a trace set previously written by :func:`save_trace_set`.

    Every row of both matrices must be finite and non-negative, or
    :class:`TraceError` names the archive member and the VM.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace archive not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        try:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            cpu_util = archive["cpu_util"]
            memory_gb = archive["memory_gb"]
        except KeyError as exc:
            raise TraceError(f"{path}: missing archive member {exc}") from None
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    servers = meta["servers"]
    if (
        cpu_util.ndim != 2
        or cpu_util.shape[0] != len(servers)
        or memory_gb.shape != cpu_util.shape
    ):
        raise TraceError(
            f"{path}: matrix shapes {cpu_util.shape}/{memory_gb.shape} do "
            f"not match {len(servers)} server records"
        )
    identities = [decode_vm_record(record) for record in servers]
    vm_ids = [vm.vm_id for vm, _spec in identities]
    check_demand_rows(cpu_util, vm_ids, f"{path}[cpu_util]")
    check_demand_rows(memory_gb, vm_ids, f"{path}[memory_gb]")
    store = TraceStore.from_demand(
        vm_ids,
        cpu_util,
        memory_gb,
        [spec.cpu_rpe2 for _vm, spec in identities],
        float(meta["interval_hours"]),
    )
    return TraceSet.from_store(meta["name"], store, identities)
