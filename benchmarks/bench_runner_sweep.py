"""Runner smoke bench: parallel fan-out + cache round-trip.

Times the four-datacenter sensitivity sweep three ways — serial,
parallel, and a cache-warm rerun — asserting what must hold everywhere
(identical results, all-hit warm rerun) and *reporting* the measured
speedup, which depends on the host's core count.  A second smoke runs
the comparison and sensitivity sweeps serially with the disk cache off
and on: both must resolve each datacenter's trace set once and return
the same results.  Deliberately uses plain ``time.perf_counter``
instead of pytest-benchmark so the smoke runs on a bare pytest install
(``make bench-smoke`` / CI).

Scale is tiny by default so the smoke stays in seconds; raise
``REPRO_SCALE`` to stress it.
"""

from __future__ import annotations

import os
import time

from conftest import print_report

from repro.experiments.settings import ExperimentSettings
from repro.runner import (
    ExperimentRunner,
    comparison_sweep,
    sensitivity_sweep,
)


def _smoke_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.05"))


def _workers() -> int:
    return max(2, min(4, os.cpu_count() or 1))


def test_runner_sweep_smoke(tmp_path):
    settings = ExperimentSettings(scale=_smoke_scale())
    tasks = sensitivity_sweep(settings)

    serial_cache = tmp_path / "serial-cache"
    parallel_cache = tmp_path / "parallel-cache"
    serial = ExperimentRunner(serial=True, cache_dir=serial_cache)
    parallel = ExperimentRunner(
        workers=_workers(), cache_dir=parallel_cache
    )

    started = time.perf_counter()
    serial_report = serial.run(tasks)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel_report = parallel.run(tasks)
    parallel_s = time.perf_counter() - started

    started = time.perf_counter()
    warm_report = parallel.run(tasks)
    warm_s = time.perf_counter() - started

    assert serial_report.results == parallel_report.results
    assert parallel_report.results == warm_report.results
    assert warm_report.cache_hits == len(tasks)
    assert warm_report.cache_misses == 0

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    body = (
        f"tasks: {len(tasks)} (4 datacenters x bound sweep)\n"
        f"serial:       {serial_s:8.2f}s\n"
        f"parallel({parallel.workers}):  {parallel_s:8.2f}s "
        f"(speedup {speedup:.2f}x on {os.cpu_count()} cores)\n"
        f"cache-warm:   {warm_s:8.2f}s "
        f"({warm_report.cache_hits} hits / {warm_report.cache_misses} "
        f"misses)\n\n{parallel_report.describe()}"
    )
    print_report("Runner sweep smoke (serial vs parallel vs warm)", body)


def _outcome(result) -> object:
    """A comparable form: comparison results hold numpy arrays."""
    if hasattr(result, "summary_rows"):
        schedules = {
            name: scheme.schedule for name, scheme in result.results.items()
        }
        return result.summary_rows(), schedules
    return result


def test_uncached_serial_run_reuses_trace_sets(tmp_path):
    settings = ExperimentSettings(scale=_smoke_scale())
    tasks = comparison_sweep(settings) + sensitivity_sweep(settings)

    started = time.perf_counter()
    uncached = ExperimentRunner(serial=True, use_cache=False).run(tasks)
    uncached_s = time.perf_counter() - started
    cached = ExperimentRunner(
        serial=True, cache_dir=tmp_path / "cache"
    ).run(tasks)

    # Four datacenters, two tasks each: every trace set is generated
    # once and served to its second task from the run's memo.
    assert uncached.subtask_hits == 4
    assert cached.subtask_hits == 4
    assert [_outcome(r) for r in uncached.results] == [
        _outcome(r) for r in cached.results
    ]
    print_report(
        "Runner reuse smoke (serial, disk cache off)",
        f"{len(tasks)} tasks in {uncached_s:.2f}s\n\n{uncached.describe()}",
    )
