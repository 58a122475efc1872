"""Columnar :class:`TraceStore` semantics: one store per set, views, immutability.

The store is the backing matrix behind every vectorized kernel, so
these tests pin its contract precisely: one per :class:`TraceSet`,
handed to ``window`` / ``subset`` children as zero-copy views or one
bulk gather (``np.shares_memory``), always read-only, and bitwise equal
to the per-trace arrays it was packed from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.workloads import TraceStore
from repro.workloads.trace import ResourceTrace, ServerTrace, TraceSet

N_HOURS = 48


def _trace(vm_id: str, seed: int, n_hours: int = N_HOURS) -> ServerTrace:
    rng = np.random.default_rng(seed)
    return ServerTrace(
        vm=VirtualMachine(vm_id=vm_id, memory_config_gb=16.0),
        source_spec=ServerSpec(cpu_rpe2=2000.0, memory_gb=16.0),
        cpu_util=ResourceTrace(
            values=rng.uniform(0.0, 1.0, size=n_hours), unit="fraction"
        ),
        memory_gb=ResourceTrace(
            values=rng.uniform(0.5, 16.0, size=n_hours), unit="GB"
        ),
    )


def _trace_set(n_vms: int = 5) -> TraceSet:
    return TraceSet(
        "store-test", [_trace(f"vm{i:02d}", seed=i) for i in range(n_vms)]
    )


class TestCaching:
    def test_store_is_cached(self) -> None:
        traces = _trace_set()
        assert traces.store is traces.store

    def test_empty_set_raises(self) -> None:
        with pytest.raises(TraceError):
            TraceSet(name="empty").store

    def test_matrix_queries_share_the_cached_store(self) -> None:
        traces = _trace_set()
        assert traces.cpu_rpe2_matrix() is traces.store.cpu_rpe2
        assert traces.cpu_util_matrix() is traces.store.cpu_util
        assert traces.memory_gb_matrix() is traces.store.memory_gb


class TestContents:
    def test_matrices_match_per_trace_arrays_bitwise(self) -> None:
        traces = _trace_set()
        store = traces.store
        for row, trace in enumerate(traces):
            assert np.array_equal(
                store.cpu_util[row], trace.cpu_util.values
            )
            assert np.array_equal(
                store.memory_gb[row], trace.memory_gb.values
            )
            assert np.array_equal(
                store.cpu_rpe2[row],
                trace.cpu_util.values * trace.source_spec.cpu_rpe2,
            )

    def test_row_of_maps_ids_to_rows(self) -> None:
        store = _trace_set().store
        for row, vm_id in enumerate(store.vm_ids):
            assert store.row_of(vm_id) == row
        with pytest.raises(TraceError):
            store.row_of("nope")

    def test_matrices_are_read_only(self) -> None:
        store = _trace_set().store
        for matrix in (store.cpu_util, store.cpu_rpe2, store.memory_gb):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_aggregates_come_from_the_store(self) -> None:
        traces = _trace_set()
        store = traces.store
        assert np.array_equal(
            traces.aggregate_cpu_rpe2(), store.cpu_rpe2.sum(axis=0)
        )
        assert np.array_equal(
            traces.per_vm_peak_cpu_rpe2(), store.cpu_rpe2.max(axis=1)
        )
        assert traces.mean_cpu_utilization() == pytest.approx(
            float(np.mean([t.cpu_util.values.mean() for t in traces]))
        )


class TestZeroCopyWindows:
    def test_store_window_is_a_view(self) -> None:
        store = _trace_set().store
        sliced = store.window(8, 32)
        assert sliced.n_points == 24
        assert np.shares_memory(sliced.cpu_rpe2, store.cpu_rpe2)
        assert np.shares_memory(sliced.memory_gb, store.memory_gb)
        assert not sliced.cpu_rpe2.flags.writeable
        assert np.array_equal(sliced.cpu_util, store.cpu_util[:, 8:32])

    def test_traceset_window_propagates_built_store(self) -> None:
        traces = _trace_set()
        parent_store = traces.store
        child = traces.window(8.0, 32.0)
        assert np.shares_memory(
            child.store.cpu_rpe2, parent_store.cpu_rpe2
        )

    def test_traceset_window_without_built_store_builds_lazily(self) -> None:
        traces = _trace_set()
        child = traces.window(0.0, 24.0)
        assert child.store.n_points == 24

    def test_resource_trace_window_is_a_view(self) -> None:
        """Read-only store rows are adopted without copying, so a
        window's materialized traces never duplicate demand data."""
        traces = _trace_set()
        (view, *_rest) = traces.window(6.0, 18.0)
        assert np.shares_memory(view.cpu_util.values, traces.store.cpu_util)
        assert not view.cpu_util.values.flags.writeable

    def test_writable_input_is_still_copied(self) -> None:
        """A caller-held writable array must not alias the trace."""
        raw = np.ones(12)
        trace = ResourceTrace(values=raw, unit="fraction")
        raw[0] = 7.0
        assert trace.values[0] == 1.0

    def test_read_only_input_is_adopted(self) -> None:
        raw = np.ones(12)
        raw.flags.writeable = False
        trace = ResourceTrace(values=raw, unit="fraction")
        assert trace.values is raw


class TestSubset:
    def test_take_preserves_requested_order(self) -> None:
        store = _trace_set().store
        picked = store.take(["vm03", "vm00"])
        assert picked.vm_ids == ("vm03", "vm00")
        assert np.array_equal(picked.cpu_rpe2[0], store.cpu_rpe2[3])
        assert np.array_equal(picked.cpu_rpe2[1], store.cpu_rpe2[0])

    def test_take_unknown_vm_raises(self) -> None:
        with pytest.raises(TraceError):
            _trace_set().store.take(["vm00", "ghost"])

    def test_traceset_subset_propagates_built_store(self) -> None:
        traces = _trace_set()
        traces.store
        child = traces.subset(["vm02", "vm04"])
        assert child.store.vm_ids == ("vm02", "vm04")
        assert np.array_equal(
            child.store.memory_gb[0], traces.store.memory_gb[2]
        )

    def test_from_traces_rejects_empty(self) -> None:
        with pytest.raises(TraceError):
            TraceStore.from_traces([])
