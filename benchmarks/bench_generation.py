"""Benchmark for the batched store-first workload generation engine.

Times ``generate_trace_set`` against the per-VM reference pipeline in
``tests/reference/generation.py`` on a paper-plus-scale fleet (10k
servers, 720 trace hours, banking mix), asserting bitwise equality
before timing — the batched generator is only a win if it is *the
same* generator, faster.  Both
timed paths include the columnar :class:`TraceStore` build, since the
store is what every downstream stage (sizing, packing, emulation)
consumes.

A second row streams a 100k-server fleet straight to a chunked on-disk
store through :func:`generate_chunked_store` and asserts — via
tracemalloc, which numpy feeds its array allocations — that peak heap
stays under half the on-disk matrix bytes: the fleet is generated
without ever materializing its demand matrices in RAM.

A third row times the array engine with the compiled draw kernel
disabled — the batched pure-python draw loop that runs wherever
``_fastdraw.c`` cannot be built — against the same engine with it,
again asserting bitwise equality, so the kernel's share of the speedup
is pinned.

Plain script, no pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_generation.py --out BENCH_kernels.json
    PYTHONPATH=src python benchmarks/bench_generation.py --smoke

``--out`` replaces the rows of an existing report that this run
measured and keeps every other row (``conftest.write_report``, shared
with the kernel and planner benchmarks), so ``make bench-baseline`` can
pin the generation numbers into ``BENCH_kernels.json`` next to the
kernel rows.  ``--smoke`` shrinks both fleets for CI: it checks
equivalence and the streaming-memory invariant, not that the speedup
target holds.
"""

from __future__ import annotations

import argparse
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

import numpy as np

from conftest import peak_rss_mb, reset_peak_rss, write_report
from repro.workloads import generator
from repro.workloads.chunked import generate_chunked_store
from repro.workloads.datacenters import datacenter_specs
from repro.workloads.generator import generate_trace_set
from tests.reference.generation import generate_trace_set_reference

# The banking preset has 816 servers at scale 1.0; express the bench
# fleet sizes as scales of it so the class mix stays the paper's.
_BANKING_SERVERS = 816
_SEED = 7


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_generate(
    n_servers: int, n_hours: int, repeats: int
) -> Dict[str, object]:
    """Batched vs per-VM reference, same process, store build included."""
    specs = datacenter_specs("banking", scale=n_servers / _BANKING_SERVERS)

    def build():
        return generate_trace_set("bench", specs, n_hours, _SEED).store

    def build_reference():
        return generate_trace_set_reference(
            "bench", specs, n_hours, _SEED
        ).store

    array_store = build()
    scalar_store = build_reference()
    assert array_store.vm_ids == scalar_store.vm_ids
    assert np.array_equal(array_store.cpu_util, scalar_store.cpu_util)
    assert np.array_equal(array_store.cpu_rpe2, scalar_store.cpu_rpe2)
    assert np.array_equal(array_store.memory_gb, scalar_store.memory_gb)
    n = len(array_store.vm_ids)
    del array_store, scalar_store
    return {
        "benchmark": "generate",
        "n_servers": n,
        "n_hours": n_hours,
        "vectorized_s": round(_best_of(repeats, build), 6),
        "reference_s": round(_best_of(repeats, build_reference), 6),
    }


def bench_generate_fallback(
    n_servers: int, n_hours: int, repeats: int
) -> Dict[str, object]:
    """Array engine without the compiled draw kernel vs with it.

    The kernel is disabled inside this process only, by making the
    engine's kernel lookup report it unavailable — the same path a
    machine without a C compiler takes.
    """
    specs = datacenter_specs("banking", scale=n_servers / _BANKING_SERVERS)

    def build():
        return generate_trace_set("bench", specs, n_hours, _SEED).store

    def fallback():
        checked_drawer = generator._checked_drawer
        generator._checked_drawer = lambda fast: None
        try:
            return build()
        finally:
            generator._checked_drawer = checked_drawer

    kernel_store = build()
    fallback_store = fallback()
    assert kernel_store.vm_ids == fallback_store.vm_ids
    assert np.array_equal(kernel_store.cpu_util, fallback_store.cpu_util)
    assert np.array_equal(kernel_store.cpu_rpe2, fallback_store.cpu_rpe2)
    assert np.array_equal(kernel_store.memory_gb, fallback_store.memory_gb)
    n = len(kernel_store.vm_ids)
    del kernel_store, fallback_store
    fallback_s = _best_of(repeats, fallback)
    kernel_s = _best_of(repeats, build)
    return {
        "benchmark": "generate-fallback",
        "n_servers": n,
        "n_hours": n_hours,
        "fallback_s": round(fallback_s, 6),
        "kernel_s": round(kernel_s, 6),
        "kernel_gain": round(fallback_s / kernel_s, 2),
    }


def bench_generate_streamed(
    n_servers: int, n_hours: int, block_rows: int
) -> Dict[str, object]:
    """Stream a fleet to disk; prove the matrices never lived in RAM."""
    specs = datacenter_specs("banking", scale=n_servers / _BANKING_SERVERS)
    with tempfile.TemporaryDirectory(prefix="bench-gen-") as scratch:
        target = Path(scratch) / "fleet"
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = time.perf_counter()
        generate_chunked_store(
            target, "banking", specs, n_hours, _SEED, block_rows=block_rows
        )
        elapsed = time.perf_counter() - start
        _, heap_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        disk_bytes = sum(
            matrix.stat().st_size for matrix in target.glob("*.npy")
        )
    assert heap_peak < disk_bytes / 2, (
        f"streaming generation materialized {heap_peak / 2**20:.0f}MB on "
        f"the heap against {disk_bytes / 2**20:.0f}MB of on-disk matrices"
    )
    return {
        "benchmark": "generate-streamed",
        "n_servers": n_servers,
        "n_hours": n_hours,
        "block_rows": block_rows,
        "streamed_s": round(elapsed, 6),
        "disk_mb": round(disk_bytes / 2**20, 1),
        "heap_peak_mb": round(heap_peak / 2**20, 1),
    }


def run(smoke: bool) -> Dict[str, object]:
    if smoke:
        repeats = 1
        cases = [
            lambda: bench_generate(200, 48, repeats),
            # Big enough that the on-disk matrices dwarf the fixed heap
            # floor (~2MB of imports/ctypes) plus the O(n) per-VM
            # metadata records, so the streaming invariant is still a
            # real assertion in CI.
            lambda: bench_generate_streamed(4_000, 336, block_rows=128),
            lambda: bench_generate_fallback(200, 48, repeats),
        ]
    else:
        # The scalar reference takes seconds per run at this scale, so
        # best-of-3 bounds the baseline's wall time while still letting
        # the array engine shed first-call warmup (kernel dlopen).
        repeats = 3
        cases = [
            lambda: bench_generate(10_000, 720, repeats),
            lambda: bench_generate_streamed(100_000, 168, block_rows=2048),
            lambda: bench_generate_fallback(10_000, 720, repeats),
        ]
    results: List[Dict[str, object]] = []
    for case in cases:
        reset_peak_rss()
        entry = case()
        entry["peak_rss_mb"] = peak_rss_mb()
        if "reference_s" in entry:
            entry["speedup"] = round(
                entry["reference_s"] / entry["vectorized_s"], 2
            )
            print(
                f"{entry['benchmark']:18s} n={entry['n_servers']:6d} "
                f"T={entry['n_hours']:4d}h  "
                f"array {entry['vectorized_s']:.4f}s  "
                f"scalar {entry['reference_s']:.4f}s  "
                f"speedup {entry['speedup']:.2f}x  "
                f"rss {entry['peak_rss_mb']:.0f}MB"
            )
        elif "fallback_s" in entry:
            # Against the scalar reference timed by the generate row.
            reference_s = next(
                row["reference_s"]
                for row in results
                if row["benchmark"] == "generate"
            )
            entry["speedup"] = round(reference_s / entry["fallback_s"], 2)
            print(
                f"{entry['benchmark']:18s} n={entry['n_servers']:6d} "
                f"T={entry['n_hours']:4d}h  "
                f"no kernel {entry['fallback_s']:.4f}s  "
                f"kernel {entry['kernel_s']:.4f}s  "
                f"kernel gain {entry['kernel_gain']:.2f}x  "
                f"speedup {entry['speedup']:.2f}x  "
                f"rss {entry['peak_rss_mb']:.0f}MB"
            )
        else:
            print(
                f"{entry['benchmark']:18s} n={entry['n_servers']:6d} "
                f"T={entry['n_hours']:4d}h  "
                f"streamed {entry['streamed_s']:.4f}s  "
                f"disk {entry['disk_mb']:.0f}MB  "
                f"heap peak {entry['heap_peak_mb']:.0f}MB  "
                f"rss {entry['peak_rss_mb']:.0f}MB"
            )
        results.append(entry)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mode": "smoke" if smoke else "full",
        "repeats_best_of": repeats,
        "results": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fleets for CI: equivalence + streaming memory invariant",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write results as JSON (merged into an existing report)",
    )
    options = parser.parse_args()
    report = run(options.smoke)
    if options.out is not None:
        write_report(options.out, report)
        print(f"wrote {options.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
