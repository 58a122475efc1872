"""Shared fixtures for the figure-reproduction benchmarks.

Every bench regenerates one table or figure of the paper and prints the
same rows/series the paper reports, timed with pytest-benchmark.  The
Section-5 figures (7-12) all derive from the same three-scheme
comparison, so that expensive computation runs once per session (the
``fig7`` bench times it; the others time their own tabulation) —
mirroring how the paper derives six figures from one experiment.

The heavy sweeps route through :class:`repro.runner.ExperimentRunner`,
so they fan out over a process pool and land in the content-addressed
cache — a second benchmark session reuses the generated traces and
emulations instead of recomputing them.  Environment knobs:

* ``REPRO_SCALE``       — datacenter scale (default 0.15; 1.0 = paper)
* ``REPRO_BENCH_SERIAL``  — any non-empty value forces serial execution
* ``REPRO_BENCH_WORKERS`` — process-pool size (default: auto)
* ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` — cache location / kill switch
"""

from __future__ import annotations

import json
import os
import resource
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.comparison import run_all
from repro.experiments.settings import ExperimentSettings
from repro.runner import ExperimentRunner, execute_cached, sensitivity_task


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS watermark for this process.

    Linux resets ``VmHWM`` when ``5`` is written to
    ``/proc/self/clear_refs``; elsewhere this is a no-op and
    :func:`peak_rss_mb` falls back to the monotone ``ru_maxrss``.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB.

    Reads ``VmHWM`` (resettable, so per-benchmark peaks are possible on
    Linux); falls back to ``getrusage`` where ``/proc`` is unavailable.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    )


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped child processes, in MB.

    Covers runner pool workers (each shard planner is a child); the
    counter is monotone over the process's life.
    """
    return round(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, 1
    )


def write_report(out: Path, report: Dict[str, object]) -> None:
    """Write a ``--out`` report, keeping the rows this run did not measure.

    Rows of an existing report at ``out`` whose ``benchmark`` name this
    run measured are replaced by the run's rows, placed where the first
    of them stood; every other row, and the existing header, is kept.
    """
    if out.exists():
        pinned = json.loads(out.read_text())
        rows = pinned["results"]
        measured = {row["benchmark"] for row in report["results"]}
        first = next(
            (i for i, row in enumerate(rows) if row["benchmark"] in measured),
            len(rows),
        )
        kept = [row for row in rows if row["benchmark"] not in measured]
        pinned["results"] = kept[:first] + report["results"] + kept[first:]
        report = pinned
    out.write_text(json.dumps(report, indent=2) + "\n")


def _bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.15"))


def _bench_runner() -> ExperimentRunner:
    serial = bool(os.environ.get("REPRO_BENCH_SERIAL", ""))
    workers_env = os.environ.get("REPRO_BENCH_WORKERS", "")
    workers = int(workers_env) if workers_env else None
    return ExperimentRunner(workers=workers, serial=serial)


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return ExperimentSettings(scale=_bench_scale())


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """The shared experiment runner (parallel + cached by default)."""
    return _bench_runner()


@pytest.fixture(scope="session")
def comparisons(settings, runner):
    """The Section-5 baseline experiment, shared across Figs. 7-12."""
    return run_all(settings, runner=runner)


def cached_sensitivity(datacenter: str, settings: ExperimentSettings):
    """One datacenter's bound sweep through the shared runner cache."""
    return execute_cached(sensitivity_task(datacenter, settings))


def print_report(header: str, body: str) -> None:
    print()
    print("=" * 72)
    print(header)
    print("=" * 72)
    print(body)
