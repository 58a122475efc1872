"""Tests for trace archive (de)serialization."""

import json

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.io import load_trace_set, save_trace_set
from repro.workloads.trace import ResourceTrace, ServerTrace, TraceSet
from tests.conftest import make_server_trace


@pytest.fixture
def trace_set():
    return TraceSet(
        "archive-test",
        [
            make_server_trace("a", [0.1, 0.5, 0.2], [1.0, 1.5, 1.2]),
            make_server_trace("b", [0.3, 0.1, 0.4], [2.0, 2.5, 2.2]),
        ],
    )


def _io_spec_set():
    """One server whose source spec has non-default network and disk."""
    return TraceSet(
        "io-spec",
        [
            ServerTrace(
                vm=VirtualMachine(
                    vm_id="io", memory_config_gb=4.0, labels={"tier": "db"}
                ),
                source_spec=ServerSpec(
                    cpu_rpe2=1800.0,
                    memory_gb=8.0,
                    network_mbps=1_000.0,
                    disk_mbps=200.0,
                    model_name="legacy",
                ),
                cpu_util=ResourceTrace(np.array([0.3, 0.7, 0.1]), unit="fraction"),
                memory_gb=ResourceTrace(np.array([2.0, 3.5, 2.5]), unit="GB"),
            )
        ],
    )


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, trace_set, tmp_path):
        generated = generate_datacenter("banking", scale=0.25, days=30, seed=1)
        for original in (trace_set, generated, _io_spec_set()):
            path = save_trace_set(original, tmp_path / f"{original.name}.npz")
            loaded = load_trace_set(path)
            assert loaded.name == original.name
            assert loaded.vm_ids == original.vm_ids
            assert loaded.interval_hours == original.interval_hours
            # Bit for bit, not approximately: the archive is an exchange
            # format for reproducible pipelines.
            for matrix in ("cpu_util_matrix", "cpu_rpe2_matrix", "memory_gb_matrix"):
                assert np.array_equal(
                    getattr(loaded, matrix)(), getattr(original, matrix)()
                ), (original.name, matrix)
            assert loaded.identities == original.identities

    def test_extension_appended(self, trace_set, tmp_path):
        path = save_trace_set(trace_set, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_empty_set_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="empty"):
            save_trace_set(TraceSet(name="empty"), tmp_path / "x.npz")


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace_set(tmp_path / "nope.npz")

    def test_wrong_version_rejected(self, trace_set, tmp_path):
        import json

        path = save_trace_set(trace_set, tmp_path / "traces.npz")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            cpu, mem = archive["cpu_util"], archive["memory_gb"]
        meta["format_version"] = 999
        np.savez(
            path,
            cpu_util=cpu,
            memory_gb=mem,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(TraceError, match="version"):
            load_trace_set(path)

    def test_truncated_archive_rejected(self, trace_set, tmp_path):
        import json

        path = save_trace_set(trace_set, tmp_path / "traces.npz")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            cpu = archive["cpu_util"]
        # Drop a matrix row but keep both server records.
        np.savez(
            path,
            cpu_util=cpu[:1],
            memory_gb=cpu[:1],
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(TraceError, match="do not match"):
            load_trace_set(path)


def _rewrite(path, **members):
    """Rewrite an archive with some members replaced."""
    with np.load(path) as archive:
        contents = {name: archive[name] for name in archive.files}
    contents.update(members)
    np.savez(path, **contents)


class TestDemandValues:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("member", ["cpu_util", "memory_gb"])
    def test_bad_cell_rejected(self, trace_set, tmp_path, member, value):
        path = save_trace_set(trace_set, tmp_path / "traces.npz")
        with np.load(path) as archive:
            matrix = archive[member].copy()
        matrix[1, 2] = value
        _rewrite(path, **{member: matrix})
        with pytest.raises(TraceError):
            load_trace_set(path)

    @pytest.mark.parametrize("member", ["cpu_util", "memory_gb"])
    def test_error_names_member_and_vm(self, trace_set, tmp_path, member):
        path = save_trace_set(trace_set, tmp_path / "traces.npz")
        with np.load(path) as archive:
            matrix = archive[member].copy()
        matrix[1, 0] = np.nan
        _rewrite(path, **{member: matrix})
        with pytest.raises(TraceError, match=rf"\[{member}\].*'b'"):
            load_trace_set(path)


class TestOlderArchives:
    def test_archive_without_io_spec_fields_loads(self, tmp_path):
        """Archives whose source specs carry no network or disk
        throughput still load, with the ServerSpec defaults."""
        meta = {
            "format_version": 1,
            "name": "older",
            "interval_hours": 1.0,
            "servers": [
                {
                    "vm_id": "a",
                    "memory_config_gb": 8.0,
                    "workload_class": "web",
                    "labels": {"app": "x"},
                    "source_spec": {
                        "cpu_rpe2": 3000.0,
                        "memory_gb": 8.0,
                        "model_name": "test",
                    },
                }
            ],
        }
        path = tmp_path / "older.npz"
        np.savez_compressed(
            path,
            cpu_util=np.array([[0.25, 0.5]]),
            memory_gb=np.array([[1.0, 2.0]]),
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        loaded = load_trace_set(path)
        ((vm, spec),) = loaded.identities
        assert spec == ServerSpec(cpu_rpe2=3000.0, memory_gb=8.0, model_name="test")
        assert vm.labels == {"app": "x"}
        assert list(loaded.cpu_rpe2_matrix()[0]) == [750.0, 1500.0]
