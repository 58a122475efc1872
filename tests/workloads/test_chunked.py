"""Chunked, memory-mapped trace storage semantics.

The contract under test: a store written block by block and opened via
``np.memmap`` is *bit-identical* to the in-memory store built from the
same traces — across whole-matrix reads, column windows, row slices,
and subsets — while staying file-backed (nothing resident up front) and
read-only.  Plus the writer's safety rails: ordered complete writes or
no manifest at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.workloads.chunked import (
    ChunkedManifest,
    ChunkedTraceWriter,
    load_manifest,
    open_chunked_store,
    open_chunked_trace_set,
    vm_record,
    write_trace_set,
)
from repro.workloads.trace import ResourceTrace, ServerTrace, TraceSet

N_HOURS = 72


def _trace(vm_id: str, seed: int) -> ServerTrace:
    rng = np.random.default_rng(seed)
    return ServerTrace(
        vm=VirtualMachine(
            vm_id=vm_id,
            memory_config_gb=24.0,
            workload_class="web",
            labels={"tier": "gold"},
        ),
        source_spec=ServerSpec(cpu_rpe2=2400.0, memory_gb=32.0),
        cpu_util=ResourceTrace(
            values=rng.uniform(0.0, 1.0, size=N_HOURS), unit="fraction"
        ),
        memory_gb=ResourceTrace(
            values=rng.uniform(1.0, 24.0, size=N_HOURS), unit="GB"
        ),
    )


@pytest.fixture(scope="module")
def traces() -> TraceSet:
    trace_set = TraceSet(name="chunk-test")
    for index in range(13):
        trace_set.add(_trace(f"vm{index:02d}", seed=index))
    return trace_set


@pytest.fixture(scope="module")
def store_dir(traces, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunk-store")
    # Odd block size so writes straddle block boundaries.
    write_trace_set(traces, directory, block_rows=5)
    return directory


class TestRoundTrip:
    def test_matrices_bit_identical(self, traces, store_dir) -> None:
        opened = open_chunked_store(store_dir)
        expected = traces.store
        assert opened.vm_ids == expected.vm_ids
        np.testing.assert_array_equal(opened.cpu_util, expected.cpu_util)
        np.testing.assert_array_equal(opened.cpu_rpe2, expected.cpu_rpe2)
        np.testing.assert_array_equal(opened.memory_gb, expected.memory_gb)

    def test_matrices_are_readonly_memmaps(self, store_dir) -> None:
        opened = open_chunked_store(store_dir)
        assert isinstance(opened.cpu_rpe2, np.memmap)
        assert not opened.cpu_rpe2.flags.writeable
        with pytest.raises(ValueError):
            opened.cpu_util[0, 0] = 1.0

    def test_window_equals_in_memory_window(self, traces, store_dir) -> None:
        opened = open_chunked_store(store_dir)
        expected = traces.store.window(24, 60)
        got = opened.window(24, 60)
        np.testing.assert_array_equal(got.cpu_rpe2, expected.cpu_rpe2)
        np.testing.assert_array_equal(got.memory_gb, expected.memory_gb)
        # Still a view of the file-backed buffer, not a copy.
        assert np.shares_memory(got.cpu_rpe2, opened.cpu_rpe2)

    def test_take_equals_in_memory_take(self, traces, store_dir) -> None:
        opened = open_chunked_store(store_dir)
        chosen = traces.vm_ids[3:9]
        expected = traces.store.take(chosen)
        got = opened.take(chosen)
        assert got.vm_ids == expected.vm_ids
        np.testing.assert_array_equal(got.cpu_rpe2, expected.cpu_rpe2)
        np.testing.assert_array_equal(got.cpu_util, expected.cpu_util)

    def test_rows_equals_in_memory_rows(self, traces, store_dir) -> None:
        opened = open_chunked_store(store_dir)
        expected = traces.store.rows(4, 11)
        got = opened.rows(4, 11)
        assert got.vm_ids == expected.vm_ids
        np.testing.assert_array_equal(got.memory_gb, expected.memory_gb)
        assert np.shares_memory(got.memory_gb, opened.memory_gb)


class TestTraceSetReconstruction:
    def test_full_set_matches_original(self, traces, store_dir) -> None:
        opened = open_chunked_trace_set(store_dir)
        assert opened.vm_ids == traces.vm_ids
        np.testing.assert_array_equal(
            opened.store.cpu_rpe2, traces.store.cpu_rpe2
        )
        for got, original in zip(opened, traces):
            assert got.vm == original.vm
            assert got.source_spec == original.source_spec

    def test_row_range_matches_subset(self, traces, store_dir) -> None:
        opened = open_chunked_trace_set(store_dir, start=2, stop=8)
        expected = traces.subset(traces.vm_ids[2:8])
        assert opened.vm_ids == expected.vm_ids
        np.testing.assert_array_equal(
            opened.store.cpu_rpe2, expected.store.cpu_rpe2
        )

    def test_vm_metadata_survives(self, store_dir) -> None:
        manifest = load_manifest(store_dir)
        assert isinstance(manifest, ChunkedManifest)
        assert manifest.n_servers == 13
        assert manifest.virtual_machine(0).workload_class == "web"
        assert manifest.source_spec(0).memory_gb == 32.0
        opened = open_chunked_trace_set(store_dir, start=0, stop=1)
        (trace,) = list(opened)
        assert trace.vm.workload_class == "web"
        assert trace.vm.labels == {"tier": "gold"}
        assert trace.source_spec.cpu_rpe2 == 2400.0

    def test_derived_cpu_rpe2_matches_write_time_product(
        self, store_dir
    ) -> None:
        opened = open_chunked_trace_set(store_dir)
        np.testing.assert_array_equal(
            opened.store.cpu_rpe2,
            np.asarray(opened.store.cpu_util) * 2400.0,
        )


class TestWriterSafety:
    def _writer(self, directory, n_servers=3, n_points=8):
        return ChunkedTraceWriter(
            directory, name="w", n_servers=n_servers, n_points=n_points
        )

    def _block(self, k, n_points=8):
        records = [
            vm_record(
                VirtualMachine(vm_id=f"b{i}", memory_config_gb=8.0),
                ServerSpec(cpu_rpe2=1000.0, memory_gb=16.0),
            )
            for i in range(k)
        ]
        return records, np.ones((k, n_points)), np.ones((k, n_points))

    def test_incomplete_store_refuses_to_close(self, tmp_path) -> None:
        writer = self._writer(tmp_path)
        writer.append_block(*self._block(2))
        with pytest.raises(TraceError, match="incomplete"):
            writer.close()

    def test_no_manifest_until_closed(self, tmp_path) -> None:
        writer = self._writer(tmp_path)
        with pytest.raises(TraceError, match="no chunked store"):
            load_manifest(tmp_path)
        writer.append_block(*self._block(3))
        writer.close()
        assert load_manifest(tmp_path).n_servers == 3

    def test_rejects_shape_mismatch(self, tmp_path) -> None:
        writer = self._writer(tmp_path)
        records, cpu, memory = self._block(2, n_points=5)
        with pytest.raises(TraceError, match="shape mismatch"):
            writer.append_block(records, cpu, memory)

    def test_rejects_overflow(self, tmp_path) -> None:
        writer = self._writer(tmp_path, n_servers=2)
        with pytest.raises(TraceError, match="overflows"):
            writer.append_block(*self._block(3))

    def test_rejects_append_after_close(self, tmp_path) -> None:
        writer = self._writer(tmp_path, n_servers=1)
        writer.append_block(*self._block(1))
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.append_block(*self._block(1))

    def test_rejects_bad_geometry(self, tmp_path) -> None:
        with pytest.raises(TraceError, match="positive dimensions"):
            self._writer(tmp_path, n_servers=0)
        with pytest.raises(TraceError, match="interval_hours"):
            ChunkedTraceWriter(
                tmp_path, name="w", n_servers=1, n_points=1, interval_hours=0.0
            )


class TestOpenValidation:
    def test_missing_matrix_file_detected(self, traces, tmp_path) -> None:
        write_trace_set(traces, tmp_path)
        (tmp_path / "memory_gb.npy").unlink()
        with pytest.raises(TraceError, match="missing matrix file"):
            open_chunked_store(tmp_path)

    @pytest.mark.parametrize("dtype", ["float32", "int64"])
    @pytest.mark.parametrize("metric", ["cpu_util", "cpu_rpe2", "memory_gb"])
    def test_wrong_matrix_dtype_detected(
        self, traces, tmp_path, metric, dtype
    ) -> None:
        # A valid manifest in front of a rewritten payload: float32
        # would open and silently lose precision.
        write_trace_set(traces, tmp_path)
        path = tmp_path / f"{metric}.npy"
        np.save(path, np.load(path).astype(dtype))
        with pytest.raises(TraceError, match=rf"{metric}\.npy.*float64"):
            open_chunked_store(tmp_path)

    def test_unsupported_format_version(self, traces, tmp_path) -> None:
        write_trace_set(traces, tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"format": 1', '"format": 99'))
        with pytest.raises(TraceError, match="format"):
            load_manifest(tmp_path)


class TestGeneratedChunkedStore:
    """Streaming generation straight to disk (array engine blocks)."""

    def test_preset_streamed_store_matches_in_memory(self, tmp_path) -> None:
        from repro.workloads.datacenters import (
            generate_datacenter,
            generate_datacenter_chunked,
        )

        directory = generate_datacenter_chunked(
            "banking", tmp_path / "dc", scale=0.04, days=2, block_rows=6
        )
        disk = open_chunked_store(directory)
        memory = generate_datacenter("banking", scale=0.04, days=2).store
        assert disk.vm_ids == memory.vm_ids
        np.testing.assert_array_equal(
            np.asarray(disk.cpu_util), memory.cpu_util
        )
        np.testing.assert_array_equal(
            np.asarray(disk.cpu_rpe2), memory.cpu_rpe2
        )
        np.testing.assert_array_equal(
            np.asarray(disk.memory_gb), memory.memory_gb
        )

    def test_opened_rows_rebuild_vms(self, tmp_path) -> None:
        from repro.workloads.datacenters import generate_datacenter_chunked

        directory = generate_datacenter_chunked(
            "banking", tmp_path / "dc", scale=0.04, days=2
        )
        shard = open_chunked_trace_set(directory, start=3, stop=9)
        assert len(shard.traces) == 6
        for trace in shard.traces:
            assert trace.vm.memory_config_gb > 0
            assert trace.source_spec.cpu_rpe2 > 0
