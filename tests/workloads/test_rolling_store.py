"""Property suite for the appendable :class:`RollingTraceStore`.

Three contracts, each stated as a property over random append
sequences (hypothesis when available, plus a seeded stdlib sweep that
always runs):

* **Append-then-window == rebuild-from-scratch** — any sequence of
  appends followed by a window read equals one bulk append of the
  concatenated columns, including the derived ``cpu_rpe2`` matrix.
* **Zero-copy, immutable views** — snapshots are read-only NumPy views
  of the live buffers and never change after they are handed out, even
  across appends and compactions.
* **Trailing-column-only invalidation** — an append derives ``cpu_rpe2``
  for the new columns only; previously derived columns are not
  recomputed (pinned by poking the private buffer).
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.workloads.rolling import RollingTraceStore
from repro.workloads.store import TraceStore

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False


def _make_store(n_vms: int, retention_points: int) -> RollingTraceStore:
    return RollingTraceStore(
        [f"vm{i}" for i in range(n_vms)],
        [100.0 * (i + 1) for i in range(n_vms)],
        interval_hours=1.0,
        retention_points=retention_points,
    )


def _random_chunks(
    rng: random.Random, n_vms: int, chunk_sizes: list
) -> list:
    chunks = []
    for size in chunk_sizes:
        cpu = np.array(
            [
                [rng.uniform(0.0, 1.0) for _ in range(size)]
                for _ in range(n_vms)
            ]
        )
        mem = np.array(
            [
                [rng.uniform(0.1, 16.0) for _ in range(size)]
                for _ in range(n_vms)
            ]
        )
        chunks.append((cpu, mem))
    return chunks


def _check_append_equals_rebuild(
    n_vms: int, retention_points: int, chunk_sizes: list, seed: int
) -> None:
    rng = random.Random(seed)
    chunks = _random_chunks(rng, n_vms, chunk_sizes)

    incremental = _make_store(n_vms, retention_points)
    for cpu, mem in chunks:
        incremental.append_samples(cpu, mem)

    all_cpu = np.concatenate([c for c, _ in chunks], axis=1)
    all_mem = np.concatenate([m for _, m in chunks], axis=1)
    bulk = _make_store(n_vms, retention_points)
    bulk.append_samples(all_cpu, all_mem)

    assert incremental.n_points == bulk.n_points
    assert incremental.total_points == bulk.total_points == all_cpu.shape[1]
    got = incremental.view()
    want = bulk.view()
    np.testing.assert_array_equal(got.cpu_util, want.cpu_util)
    np.testing.assert_array_equal(got.memory_gb, want.memory_gb)
    # Derived matrix must match exactly despite trailing-only derivation.
    np.testing.assert_array_equal(got.cpu_rpe2, want.cpu_rpe2)
    # And both must equal the definition.
    capacity = np.array([100.0 * (i + 1) for i in range(n_vms)])[:, None]
    tail = all_cpu[:, -incremental.n_points :]
    np.testing.assert_array_equal(got.cpu_rpe2, tail * capacity)


class TestAppendEqualsRebuild:
    def test_seeded_sweep(self):
        rng = random.Random(20260808)
        for _ in range(25):
            n_vms = rng.randint(1, 5)
            retention = rng.randint(3, 40)
            n_chunks = rng.randint(1, 8)
            sizes = [rng.randint(1, 17) for _ in range(n_chunks)]
            _check_append_equals_rebuild(
                n_vms, retention, sizes, rng.randint(0, 10_000)
            )

    if HAVE_HYPOTHESIS:

        @settings(max_examples=50, deadline=None)
        @given(
            n_vms=st.integers(1, 4),
            retention=st.integers(2, 30),
            sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
            seed=st.integers(0, 2**20),
        )
        def test_hypothesis(self, n_vms, retention, sizes, seed):
            _check_append_equals_rebuild(n_vms, retention, sizes, seed)

    def test_oversized_append_keeps_trailing_window(self):
        store = _make_store(2, 5)
        cpu = np.linspace(0.0, 1.0, 24).reshape(2, 12)
        mem = np.ones((2, 12))
        store.append_samples(cpu, mem)
        assert store.n_points == 5
        assert store.total_points == 12
        np.testing.assert_array_equal(
            store.view().cpu_util, cpu[:, -5:]
        )


class TestViews:
    def test_views_are_zero_copy_and_read_only(self):
        store = _make_store(3, 32)
        store.append_samples(np.full((3, 8), 0.5), np.full((3, 8), 2.0))
        view = store.view()
        assert isinstance(view, TraceStore)
        # Zero-copy: the snapshot aliases the live buffer.
        assert np.shares_memory(view.cpu_util, store._cpu_util)
        for matrix in (view.cpu_util, view.cpu_rpe2, view.memory_gb):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 9.9

    def test_snapshot_stable_across_appends_and_compactions(self):
        store = _make_store(2, 6)
        rng = random.Random(7)
        store.append_samples(
            np.full((2, 4), 0.25), np.full((2, 4), 1.0)
        )
        snap = store.view()
        frozen_cpu = snap.cpu_util.copy()
        frozen_rpe2 = snap.cpu_rpe2.copy()
        frozen_mem = snap.memory_gb.copy()
        # Push far past retention so compaction definitely runs.
        for _ in range(12):
            k = rng.randint(1, 5)
            store.append_samples(
                np.full((2, k), rng.random()), np.full((2, k), 2.0)
            )
        assert store.n_compactions >= 1
        np.testing.assert_array_equal(snap.cpu_util, frozen_cpu)
        np.testing.assert_array_equal(snap.cpu_rpe2, frozen_rpe2)
        np.testing.assert_array_equal(snap.memory_gb, frozen_mem)

    def test_rolling_view_window_selection(self):
        store = _make_store(1, 24)
        cpu = np.arange(10, dtype=float)[None, :] / 10.0
        store.append_samples(cpu, np.ones((1, 10)))
        window = store.rolling_view(4.0)
        np.testing.assert_array_equal(
            window.cpu_util, cpu[:, -4:]
        )
        assert window.n_points == 4

    def test_rolling_view_rejects_misaligned_or_oversized(self):
        store = _make_store(1, 24)
        store.append_samples(np.ones((1, 5)) * 0.5, np.ones((1, 5)))
        with pytest.raises(TraceError):
            store.rolling_view(2.5)
        with pytest.raises(TraceError):
            store.rolling_view(6.0)
        with pytest.raises(TraceError):
            store.rolling_view(0.0)


class TestTrailingInvalidation:
    def test_append_does_not_recompute_existing_columns(self):
        store = _make_store(2, 32)
        store.append_samples(np.full((2, 3), 0.5), np.ones((2, 3)))
        # Poison the already-derived columns; a correct implementation
        # never rewrites them on append.
        store._cpu_rpe2[:, :3] = -123.0
        store.append_samples(np.full((2, 2), 0.5), np.ones((2, 2)))
        np.testing.assert_array_equal(
            store._cpu_rpe2[:, :3], np.full((2, 3), -123.0)
        )
        # The new columns are derived normally.
        capacity = np.array([100.0, 200.0])[:, None]
        np.testing.assert_array_equal(
            store._cpu_rpe2[:, 3:5], 0.5 * capacity * np.ones((2, 2))
        )

    def test_bounded_buffer(self):
        store = _make_store(1, 8)
        for i in range(100):
            store.append_samples(
                np.array([[i / 100.0]]), np.array([[1.0]])
            )
        assert store.buffer_points <= 16
        assert store.n_points == 8
        assert store.total_points == 100
        # Retained tail is the most recent 8 samples.
        np.testing.assert_array_equal(
            store.view().cpu_util[0],
            np.arange(92, 100, dtype=float) / 100.0,
        )


class TestValidation:
    def test_rejects_bad_samples(self):
        store = _make_store(2, 8)
        good = np.ones((2, 1))
        with pytest.raises(TraceError):
            store.append_samples(np.full((2, 1), np.nan), good)
        with pytest.raises(TraceError):
            store.append_samples(np.full((2, 1), -0.1), good)
        with pytest.raises(TraceError):
            store.append_samples(np.ones((3, 1)), good)
        with pytest.raises(TraceError):
            store.append_samples(np.ones((2, 2)), good)
        # Nothing was ingested by the failed attempts.
        assert store.n_points == 0

    def test_rejects_overflowing_derived_cpu(self):
        # Row 1's capacity is 200 RPE2: 1e308 × 200 overflows to Inf.
        store = _make_store(2, 8)
        fresh = _make_store(2, 8)
        for target in (store, fresh):
            target.append_samples(np.full(2, 0.5), np.ones(2))
        bad = np.array([[0.5, 0.5], [0.5, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError, match="overflow"):
                store.append_samples(bad, np.ones((2, 2)))
        assert store.total_points == 1
        # Up to the limit, a huge cpu_util is a sample like any other.
        at_limit = np.array(store.cpu_util_limit)
        for target in (store, fresh):
            target.append_samples(at_limit, np.ones(2))
        np.testing.assert_array_equal(
            store.view().cpu_rpe2, fresh.view().cpu_rpe2
        )
        assert np.isfinite(store.view().cpu_rpe2).all()

    def test_cpu_util_limit_keeps_derived_cpu_finite(self):
        rng = np.random.default_rng(3)
        capacity = np.concatenate(
            [
                [1e-300, 0.1, 0.5, 1.0, 3.0, 200.0, 7e10, 1e300],
                10.0 ** rng.uniform(-3, 6, 400),
            ]
        )
        store = RollingTraceStore(
            [f"vm{i}" for i in range(capacity.size)], capacity
        )
        limit = np.array(store.cpu_util_limit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(limit * capacity).all()
        # At most one float step below float max / capacity.
        with np.errstate(over="ignore"):
            assert (
                np.nextafter(limit, np.inf) >= np.finfo(float).max / capacity
            ).all()

    def test_constructor_validation(self):
        with pytest.raises(TraceError):
            RollingTraceStore([], [])
        with pytest.raises(TraceError):
            RollingTraceStore(["a", "a"], [1.0, 1.0])
        with pytest.raises(TraceError):
            RollingTraceStore(["a"], [0.0])
        with pytest.raises(TraceError):
            RollingTraceStore(["a"], [1.0], retention_points=0)

    def test_empty_store_queries_raise(self):
        store = _make_store(1, 8)
        with pytest.raises(TraceError):
            store.view()
        with pytest.raises(TraceError):
            store.last_cpu_rpe2()
        with pytest.raises(TraceError):
            store.last_cpu_util()
        with pytest.raises(TraceError):
            store.peak_window(4)

    def test_peak_window(self):
        store = _make_store(1, 16)
        cpu = np.array([[0.1, 0.9, 0.3, 0.5]])
        mem = np.array([[4.0, 1.0, 2.0, 3.0]])
        store.append_samples(cpu, mem)
        peak_cpu, peak_mem = store.peak_window(2)
        assert peak_cpu[0] == 0.5 * 100.0
        assert peak_mem[0] == 3.0
        peak_cpu, peak_mem = store.peak_window(100)
        assert peak_cpu[0] == 0.9 * 100.0
        assert peak_mem[0] == 4.0
