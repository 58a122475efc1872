"""Unit proofs for the array engine's fast seeding and draw kernels.

The engine trusts nothing at runtime — both fast paths verify
themselves against the numpy reference constructors before the first
use and fall back to bit-identical python otherwise.  These tests pin
the pieces of that contract that the end-to-end equivalence suite
exercises only indirectly: the batched SeedSequence/PCG64 hashes, the
state-install round trip, the compiled kernel's availability probe,
and the build shared by both C kernels (``repro.native``: the draw
kernel and the dynamic planner's interval kernel) — its on-disk cache
(failed builds, unloadable cached objects) and the reason it keeps
when a kernel is off.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import numpy as np
import pytest

from repro.core import interval_kernel
from repro.native import why_off
from repro.workloads import fastdraw
from repro.workloads.fastdraw import make_fast_drawer
from repro.workloads.fastseed import (
    FastSeeder,
    batched_pcg64_state_words,
    make_fast_seeder,
    seedseq_state_words,
)


@pytest.mark.parametrize("seed", [0, 1, 11, 2**63 + 12345])
def test_seedseq_state_words_match_reference(seed):
    indices = np.array([0, 1, 2, 7, 40001], dtype=np.uint64)
    words = seedseq_state_words(seed, indices)
    assert words is not None
    assert words.shape == (indices.size, 8)
    for row, index in enumerate(indices):
        reference = np.random.SeedSequence(
            seed, spawn_key=(int(index),)
        ).generate_state(8, np.uint32)
        np.testing.assert_array_equal(words[row], reference)


@pytest.mark.parametrize("seed", [3, 999])
def test_batched_pcg64_states_match_reference(seed):
    arrays = batched_pcg64_state_words(seed, np.arange(6, dtype=np.uint64))
    assert arrays is not None
    state_lo, state_hi, inc_lo, inc_hi = arrays
    for i in range(6):
        reference = np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(i,))
        ).state["state"]
        expected_state = reference["state"]
        expected_inc = reference["inc"]
        got_state = (int(state_hi[i]) << 64) | int(state_lo[i])
        got_inc = (int(inc_hi[i]) << 64) | int(inc_lo[i])
        assert got_state == expected_state
        assert got_inc == expected_inc


def test_fast_seeder_install_replays_reference_draws():
    seeder = make_fast_seeder()
    assert seeder is not None, "fast seeder must verify on this platform"
    arrays = seeder.seeded_state_arrays(21, 5, 8)
    assert arrays is not None
    for offset, index in enumerate(range(5, 8)):
        seeder.install(
            int(arrays[0][offset]),
            int(arrays[1][offset]),
            int(arrays[2][offset]),
            int(arrays[3][offset]),
        )
        reference = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(21, spawn_key=(index,)))
        )
        np.testing.assert_array_equal(
            seeder.generator.standard_normal(5), reference.standard_normal(5)
        )
        assert int(seeder.generator.integers(0, 10**9)) == int(
            reference.integers(0, 10**9)
        )


def test_fast_seeder_save_restore_round_trip():
    seeder = make_fast_seeder()
    assert seeder is not None
    snapshot = seeder.save()
    before = seeder.generator.standard_normal(4)
    seeder.restore(snapshot)
    np.testing.assert_array_equal(
        before, seeder.generator.standard_normal(4)
    )


def test_fast_drawer_requires_seeder():
    assert make_fast_drawer(None) is None


def test_fast_drawer_filters_match_numpy():
    """When the compiled kernel is available its fused passes must match
    the numpy pass sequences bitwise (skipped where no toolchain)."""
    seeder = make_fast_seeder()
    drawer = make_fast_drawer(seeder)
    if drawer is None:
        pytest.skip("compiled draw kernel unavailable on this platform")
    rng = np.random.default_rng(7)
    util = rng.random((5, 48)) * 1.4
    rpe2 = np.empty_like(util)
    committed = np.empty_like(util)
    expected_util = np.clip(util, 0.002, 1.0)
    expected_rpe2 = expected_util * 52.0
    peaks = np.maximum(expected_util.max(axis=1), 1e-9)
    expected_committed = expected_util / peaks[:, None]
    candidate = util.copy()
    drawer.clip_scale_div(
        candidate,
        rpe2,
        committed,
        clip_low=0.002,
        clip_high=1.0,
        scale=52.0,
        peak_floor=1e-9,
    )
    np.testing.assert_array_equal(candidate, expected_util)
    np.testing.assert_array_equal(rpe2, expected_rpe2)
    np.testing.assert_array_equal(committed, expected_committed)


def test_fast_seeder_exposes_state_addresses():
    seeder = FastSeeder()
    words_address, flags_address = seeder.raw_addresses()
    assert words_address != 0
    assert flags_address != 0


needs_compiler = pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler on PATH",
)

#: Each compiled kernel, and the call that builds, loads and checks it.
KERNELS = {
    "fastdraw": (
        fastdraw._KERNEL, lambda: make_fast_drawer(make_fast_seeder())
    ),
    "interval": (interval_kernel._KERNEL, interval_kernel.load),
}


@pytest.fixture
def fresh_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache and a process that has not probed it yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for kernel, _use in KERNELS.values():
        monkeypatch.setattr(kernel, "library", None)
        monkeypatch.setattr(kernel, "reason", None)
    return tmp_path / "repro-kernels"


def _timed_out_build(*args, **kwargs):
    raise subprocess.TimeoutExpired(args[0], kwargs.get("timeout"))


def _failed_rename(*args, **kwargs):
    raise OSError("rename refused")


@pytest.mark.parametrize(
    "module, name, failure",
    [(subprocess, "run", _timed_out_build), (os, "replace", _failed_rename)],
    ids=["timeout", "rename"],
)
def test_failed_build_leaves_no_file_behind(
    fresh_kernel_cache, monkeypatch, module, name, failure
):
    # No compiler runs: the build succeeds up to the step that fails.
    monkeypatch.setattr(shutil, "which", lambda command: "/bin/true")
    monkeypatch.setattr(fastdraw, "_npyrandom_library", lambda: "/dev/null")
    monkeypatch.setattr(
        subprocess,
        "run",
        lambda *args, **kwargs: subprocess.CompletedProcess(args, 0),
    )
    monkeypatch.setattr(module, name, failure)
    for label, (kernel, use) in KERNELS.items():
        assert use() is None, label
        assert why_off(label) == kernel.reason
        assert ("ran past" if name == "run" else "rename refused") in (
            kernel.reason
        )
    assert os.listdir(fresh_kernel_cache) == []


@needs_compiler
def test_unloadable_cached_object_is_rebuilt(fresh_kernel_cache):
    for label, (kernel, use) in KERNELS.items():
        target = kernel._build()
        if target is None:
            pytest.skip(f"the {label} kernel does not build: {kernel.reason}")
        with open(target, "wb"):
            pass  # truncate: what a full disk or a killed copy leaves
        assert use() is not None, kernel.reason
        assert kernel.library is not None and kernel.reason is None
        assert os.path.getsize(target) > 0


class TestWhyOff:
    """Each way a kernel turns off leaves one reason, read by ``why_off``."""

    def test_no_compiler(self, fresh_kernel_cache, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda command: None)
        for label, (_kernel, use) in KERNELS.items():
            assert use() is None
            assert why_off(label) == "no C compiler (gcc or cc) on PATH"

    def test_no_npyrandom_library(self, fresh_kernel_cache, monkeypatch):
        monkeypatch.setattr(fastdraw, "_npyrandom_library", lambda: None)
        assert make_fast_drawer(make_fast_seeder()) is None
        assert "libnpyrandom.a" in why_off("fastdraw")

    @needs_compiler
    def test_compile_error_keeps_the_compiler_output(
        self, fresh_kernel_cache, monkeypatch, tmp_path
    ):
        broken = tmp_path / "_interval.c"
        broken.write_text("int repro_interval(void) { return undeclared; }\n")
        monkeypatch.setattr(interval_kernel._KERNEL, "source", str(broken))
        assert interval_kernel.load() is None
        reason = why_off("interval")
        assert "exited with status" in reason
        assert "undeclared" in reason
        assert os.listdir(fresh_kernel_cache) == []

    @needs_compiler
    def test_failed_self_check(self, fresh_kernel_cache, monkeypatch):
        if fastdraw._npyrandom_library() is None:
            pytest.skip("numpy ships no libnpyrandom.a here")
        monkeypatch.setattr(fastdraw, "_verify", lambda kernel: False)
        assert make_fast_drawer(make_fast_seeder()) is None
        assert why_off("fastdraw") == (
            "self-check against the Python code failed"
        )
