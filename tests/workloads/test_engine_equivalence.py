"""The generator's contract: bit-identical to the per-VM reference.

The batched store-first generator replays the exact per-VM draw
choreography of the scalar pipeline kept in
``tests/reference/generation.py`` on ``(n_vms, n_hours)`` matrices,
optionally through a compiled kernel that links numpy's own
distribution code.  Every test here compares *bits*, not tolerances:
the two must agree on every float across profiles, correlation models,
flash events, row subsets, column windows, chunked round-trips, and the
python fallback with the kernel disabled.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.metrics.catalog import get_model
from repro.workloads import generator
from repro.workloads.chunked import (
    generate_chunked_store,
    open_chunked_store,
)
from repro.workloads.datacenters import (
    datacenter_specs,
    generate_datacenter,
)
from repro.workloads.generator import (
    IDLE,
    SCHEDULED_BATCH,
    STEADY_BATCH,
    WEB_BURSTY,
    WEB_MODERATE,
    CorrelationModel,
    generate_trace_blocks,
    generate_trace_set,
)
from tests.reference.generation import (
    generate_trace_set_reference,
    pareto_spike_matrix,
)

ALL_PROFILES = (WEB_BURSTY, WEB_MODERATE, STEADY_BATCH, SCHEDULED_BATCH, IDLE)

#: Aggressive event pressure so flash hits, severity draws, and the
#: spike overflow/retry protocol all actually exercise.
BUSY_CORRELATION = CorrelationModel(
    event_rate_per_day=4.0,
    event_participation=0.6,
)

_HOURS = 72
_SEED = 97


def _hardware():
    return get_model("rack-1u-medium")


def _mixed_fleet():
    """Six VMs of each of the five profiles on one hardware model."""
    return [(profile, _hardware(), 6) for profile in ALL_PROFILES]


def _stores(specs, *, correlation=None, seed=_SEED, n_hours=_HOURS):
    array = generate_trace_set(
        "eq", specs, n_hours, seed, correlation=correlation
    ).store
    scalar = generate_trace_set_reference(
        "eq", specs, n_hours, seed, correlation=correlation
    ).store
    return array, scalar


def _assert_stores_equal(array, scalar):
    assert array.vm_ids == scalar.vm_ids
    np.testing.assert_array_equal(array.cpu_util, scalar.cpu_util)
    np.testing.assert_array_equal(array.cpu_rpe2, scalar.cpu_rpe2)
    np.testing.assert_array_equal(array.memory_gb, scalar.memory_gb)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize(
        "profile", ALL_PROFILES, ids=lambda p: p.name
    )
    def test_each_profile_plain(self, profile):
        array, scalar = _stores([(profile, _hardware(), 9)])
        _assert_stores_equal(array, scalar)

    @pytest.mark.parametrize(
        "profile", ALL_PROFILES, ids=lambda p: p.name
    )
    def test_each_profile_with_correlation_and_events(self, profile):
        array, scalar = _stores(
            [(profile, _hardware(), 9)], correlation=BUSY_CORRELATION
        )
        _assert_stores_equal(array, scalar)

    def test_mixed_fleet_multiple_hardware(self):
        specs = [
            (WEB_BURSTY, get_model("rack-1u-medium"), 7),
            (SCHEDULED_BATCH, get_model("rack-2u-large"), 5),
            (IDLE, get_model("rack-1u-medium"), 4),
        ]
        array, scalar = _stores(specs, correlation=BUSY_CORRELATION)
        _assert_stores_equal(array, scalar)

    def test_python_fallback_matches_kernel(self, monkeypatch):
        """With the compiled kernel disabled the engine must not move,
        on any profile."""
        specs = _mixed_fleet()
        with_kernel, _ = _stores(specs, correlation=BUSY_CORRELATION)
        monkeypatch.setattr(generator, "_checked_drawer", lambda fast: None)
        without_kernel, scalar = _stores(
            specs, correlation=BUSY_CORRELATION
        )
        _assert_stores_equal(without_kernel, scalar)
        np.testing.assert_array_equal(
            with_kernel.cpu_util, without_kernel.cpu_util
        )
        np.testing.assert_array_equal(
            with_kernel.memory_gb, without_kernel.memory_gb
        )


#: Generates ``_mixed_fleet()`` in a fresh interpreter and saves its
#: store; argv: out_dir hours seed event_rate participation.
_FALLBACK_CHILD = """
import json
import sys

import numpy as np

from repro.metrics.catalog import get_model
from repro.workloads.fastdraw import make_fast_drawer
from repro.workloads.fastseed import make_fast_seeder
from repro.workloads.generator import (
    IDLE, SCHEDULED_BATCH, STEADY_BATCH, WEB_BURSTY, WEB_MODERATE,
    CorrelationModel, generate_trace_set,
)

out, hours, seed, rate, participation = sys.argv[1:]
profiles = (WEB_BURSTY, WEB_MODERATE, STEADY_BATCH, SCHEDULED_BATCH, IDLE)
store = generate_trace_set(
    "eq",
    [(profile, get_model("rack-1u-medium"), 6) for profile in profiles],
    int(hours),
    int(seed),
    correlation=CorrelationModel(
        event_rate_per_day=float(rate),
        event_participation=float(participation),
    ),
).store
for name in ("cpu_util", "cpu_rpe2", "memory_gb"):
    np.save(f"{out}/{name}.npy", getattr(store, name))
print(json.dumps({
    "kernel": make_fast_drawer(make_fast_seeder()) is not None,
    "scipy": "scipy" in sys.modules,
}))
"""


class TestFreshProcessFallback:
    """Where the kernel cannot be built, a fresh process generates on
    the Python draw loop, bit-identical to the kernel, and imports no
    SciPy on the way."""

    @pytest.mark.parametrize("case", ["no-compiler", "uncreatable-cache"])
    def test_fallback_matches_kernel_in_a_fresh_process(self, tmp_path, case):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        if case == "no-compiler":
            (tmp_path / "bin").mkdir()
            env["PATH"] = str(tmp_path / "bin")  # no gcc, no cc
            env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
        else:
            # makedirs fails below a regular file, even as root.
            (tmp_path / "file").write_text("")
            env["XDG_CACHE_HOME"] = str(tmp_path / "file" / "cache")
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                _FALLBACK_CHILD,
                str(tmp_path),
                str(_HOURS),
                str(_SEED),
                str(BUSY_CORRELATION.event_rate_per_day),
                str(BUSY_CORRELATION.event_participation),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"kernel": False, "scipy": False}
        in_process = generate_trace_set(
            "eq", _mixed_fleet(), _HOURS, _SEED, correlation=BUSY_CORRELATION
        ).store
        for name in ("cpu_util", "cpu_rpe2", "memory_gb"):
            np.testing.assert_array_equal(
                np.load(tmp_path / f"{name}.npy"), getattr(in_process, name)
            )


class TestDeterminismProperties:
    def test_same_seed_is_bitwise_stable(self):
        specs = [(WEB_MODERATE, _hardware(), 8)]
        first, _ = _stores(specs, correlation=BUSY_CORRELATION)
        second, _ = _stores(specs, correlation=BUSY_CORRELATION)
        _assert_stores_equal(first, second)

    @pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
    def test_seeds_are_honored(self, seed):
        specs = [(STEADY_BATCH, _hardware(), 5)]
        array, scalar = _stores(specs, seed=seed)
        _assert_stores_equal(array, scalar)

    def test_different_seeds_differ(self):
        specs = [(WEB_BURSTY, _hardware(), 5)]
        a, _ = _stores(specs, seed=1)
        b, _ = _stores(specs, seed=2)
        assert not np.array_equal(a.cpu_util, b.cpu_util)

    def test_block_rows_do_not_change_bits(self):
        specs = [(SCHEDULED_BATCH, _hardware(), 11)]
        whole = np.concatenate(
            [
                b.cpu_util
                for b in generate_trace_blocks(
                    "eq", specs, _HOURS, _SEED, correlation=BUSY_CORRELATION
                )
            ]
        )
        chunked = np.concatenate(
            [
                b.cpu_util
                for b in generate_trace_blocks(
                    "eq",
                    specs,
                    _HOURS,
                    _SEED,
                    correlation=BUSY_CORRELATION,
                    block_rows=3,
                )
            ]
        )
        np.testing.assert_array_equal(whole, chunked)

    def test_store_window_is_column_slice(self):
        array, _ = _stores([(WEB_BURSTY, _hardware(), 6)])
        window = array.window(10, 40)
        np.testing.assert_array_equal(
            window.cpu_util, array.cpu_util[:, 10:40]
        )


class TestOptions:
    def test_unknown_engine_rejected(self):
        """There is one generator: no ``engine`` option is accepted."""
        specs = [(IDLE, _hardware(), 2)]
        with pytest.raises(TypeError):
            generate_trace_set("eq", specs, _HOURS, _SEED, engine="array")
        with pytest.raises(TypeError):
            generate_datacenter("banking", scale=0.01, days=1, engine="array")

    @pytest.mark.parametrize(
        "specs",
        [[], [(IDLE, get_model("rack-1u-medium"), 0)]],
        ids=["no-groups", "empty-group"],
    )
    def test_empty_fleet_yields_no_rows(self, specs):
        assert len(generate_trace_set("eq", specs, _HOURS, _SEED)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError, match="count must be >= 0"):
            generate_trace_set("eq", [(IDLE, _hardware(), -1)], _HOURS, _SEED)


class TestLazyTraceSet:
    def test_array_engine_traces_view_store_rows(self):
        specs = [(WEB_BURSTY, _hardware(), 5)]
        trace_set = generate_trace_set("eq", specs, _HOURS, _SEED)
        store = trace_set.store
        for row, trace in enumerate(trace_set.traces):
            assert trace.vm_id == store.vm_ids[row]
            np.testing.assert_array_equal(
                trace.cpu_util.values, store.cpu_util[row]
            )
            np.testing.assert_array_equal(
                trace.memory_gb.values, store.memory_gb[row]
            )

    def test_array_engine_vm_metadata_matches_scalar(self):
        specs = [(SCHEDULED_BATCH, get_model("rack-2u-large"), 4)]
        array_set = generate_trace_set("eq", specs, _HOURS, _SEED)
        scalar_set = generate_trace_set_reference(
            "eq", specs, _HOURS, _SEED
        )
        for a, s in zip(array_set.traces, scalar_set.traces):
            assert a.vm.vm_id == s.vm.vm_id
            assert a.vm.workload_class == s.vm.workload_class
            assert a.vm.memory_config_gb == s.vm.memory_config_gb
            assert a.source_spec == s.source_spec


class TestChunkedRoundTrip:
    def test_streamed_store_is_bit_identical(self, tmp_path):
        specs = datacenter_specs("banking", scale=0.04)
        correlation = None
        generate_chunked_store(
            tmp_path / "fleet",
            "banking",
            specs,
            48,
            11,
            correlation=correlation,
            block_rows=5,
        )
        disk = open_chunked_store(tmp_path / "fleet")
        memory = generate_trace_set(
            "banking", specs, 48, 11, correlation=correlation
        ).store
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


class TestModelReferences:
    """The fused spike overlay stays pinned to its numpy scatter."""

    def test_pareto_spike_matrix_reference(self):
        rng = np.random.default_rng(5)
        rows = np.repeat(np.arange(4), 3)
        starts = rng.integers(0, 60, rows.size)
        magnitudes = rng.pareto(1.8, rows.size) + 1.0
        durations = rng.integers(1, 3, rows.size)
        overlay = pareto_spike_matrix(
            4,
            64,
            rows=rows,
            starts=starts,
            magnitudes=magnitudes,
            durations=durations,
        )
        util = np.zeros((4, 64))
        generator._add_spikes_inplace(
            util,
            rows=rows,
            starts=starts,
            magnitudes=magnitudes,
            durations=durations,
            n_hours=64,
        )
        np.testing.assert_array_equal(util, overlay)
