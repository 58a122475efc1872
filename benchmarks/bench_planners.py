"""End-to-end planner benchmarks: the library planner vs its reference.

Times whole ``plan()`` calls — prediction, sizing, packing, vacate
sweeps, schedule assembly — on paper-scale instances (~100 and ~1000
servers, 48 h history + 720 h evaluation at 2 h intervals):

* **dynamic-plan** — ``DynamicConsolidation.plan`` (peak tables,
  incremental sticky repack, vacate sweeps) vs the scalar
  reference planner in ``tests/reference/dynamic.py`` (per-VM
  predict/size + from-scratch ``pack()`` per interval).  The banking
  rows pack onto 50,000-RPE2 / 256 GB hosts, so about ten are active
  and the vacate sweeps barely run; the largest size also runs with
  the planning engagement's four deployment constraints (two
  anti-colocation pairs, a host pin, a shared subnet; the row's
  ``constraints`` field).  The many-bins row plans the
  natural-resources fleet on the HS23 pool section 5 builds
  (``ExperimentSettings().build_pool``), which keeps about a hundred
  hosts active, so the vacate sweeps dominate;
* **sharded-dynamic-plan** (full mode) — a 10k-server × 720 h plan
  through :func:`repro.sharding.run_sharded_plan` (chunked on-disk
  store, 16 topology shards fanned over the runner pool, cross-shard
  reconciliation) vs the unsharded planner on the same fleet.

Every planner-vs-reference case asserts schedule equality before timing
anything: the speedup is only meaningful because the answers are
bit-identical.  The sharded case instead pins the consolidation-quality
gap (mean active hosts vs the unsharded plan) alongside its speedup; at
the smoke size it also checks, before timing, that its merge and
reconciliation equal the dict pipeline in
``tests/reference/reconcile.py``.

Each row also reports ``peak_rss_mb`` — the process's peak resident set
while that case ran (``VmHWM``, reset per case; see
``benchmarks/conftest.py``).

Plain script, no pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_planners.py --out BENCH_planners.json
    PYTHONPATH=src python benchmarks/bench_planners.py --smoke
    PYTHONPATH=src python benchmarks/bench_planners.py --scale-out

``--smoke`` shrinks the instances for CI: it checks the planner runs
and agrees with its reference, not that the speedup target (>=5x on the 1000-server dynamic
plan) holds; it also runs a small sharded plan (2 shards x 100 servers,
2 workers) end to end.  ``--scale-out`` is the 100k-row smoke: it
streams a 100k-server fleet into a chunked store and plans it sharded,
asserting (via tracemalloc) that the fleet's trace matrices are never
materialized in the parent — they stay on disk behind ``np.memmap``.
The committed ``BENCH_planners.json`` is regenerated with
``make bench-baseline``.  ``--out`` naming an existing report replaces
the rows this run measured and keeps every other row
(``conftest.write_report``), so a full run keeps the pinned 100k row and
``--scale-out`` keeps the full run's rows.
"""

from __future__ import annotations

import argparse
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

import numpy as np

from conftest import (
    children_peak_rss_mb, peak_rss_mb, reset_peak_rss, write_report,
)
from repro.constraints import AntiColocate, PinToHost, SameSubnet
from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.experiments.settings import ExperimentSettings
from repro.infrastructure.datacenter import Datacenter, build_target_pool
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.runner import ExperimentRunner
from repro.emulator.schedule import PlacementSchedule
from repro.sharding import (
    ShardedConsolidation,
    chunked_source,
    run_sharded_plan,
)
from repro.sharding.planner import shard_context
from repro.workloads.chunked import (
    ChunkedTraceWriter,
    vm_record,
    write_trace_set,
)
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.trace import TraceSet
from tests.reference.dynamic import plan_reference
from tests.reference.reconcile import sharded_plan_reference

# The banking preset has 816 servers at scale 1.0 (see bench_kernels).
_BANKING_SERVERS = 816
_HISTORY_HOURS = 48


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _pool(n_hosts: int) -> Datacenter:
    datacenter = Datacenter(name="bench-pool")
    for index in range(n_hosts):
        # 14 hosts per rack, one subnet per rack (build_target_pool's
        # layout): only the constrained case reads the labels.
        rack = index // 14
        datacenter.add_host(
            PhysicalServer(
                host_id=f"h{index:04d}",
                spec=ServerSpec(cpu_rpe2=50_000.0, memory_gb=256.0),
                rack=f"r{rack:03d}",
                subnet=f"n{rack:03d}",
            )
        )
    return datacenter


def _context(traces, datacenter: Datacenter) -> PlanningContext:
    hours = int(traces.duration_hours)
    return PlanningContext(
        history=traces.window(0, _HISTORY_HOURS),
        evaluation=traces.window(_HISTORY_HOURS, hours),
        datacenter=datacenter,
        config=PlanningConfig(),
    )


def _with_engagement_constraints(context: PlanningContext) -> PlanningContext:
    """The planning engagement's four constraints on the first VMs."""
    vm_ids = context.evaluation.vm_ids
    return PlanningContext(
        history=context.history,
        evaluation=context.evaluation,
        datacenter=context.datacenter,
        constraints=ConstraintSet(
            [
                AntiColocate(vm_ids[0], vm_ids[1]),
                AntiColocate(vm_ids[2], vm_ids[3]),
                PinToHost(vm_ids[4], context.datacenter.hosts[0].host_id),
                SameSubnet(vm_ids[5], vm_ids[6], vm_ids[7]),
            ]
        ),
        config=context.config,
    )


def _assert_schedules_identical(scalar, array) -> None:
    assert len(scalar) == len(array)
    for left, right in zip(scalar.segments, array.segments):
        assert left.placement.assignment == right.placement.assignment


def bench_dynamic(context: PlanningContext, repeats: int) -> Dict[str, float]:
    algorithm = DynamicConsolidation()
    schedule = algorithm.plan(context)
    _assert_schedules_identical(plan_reference(algorithm, context), schedule)
    return {
        "vectorized_s": _best_of(repeats, lambda: algorithm.plan(context)),
        "reference_s": _best_of(
            repeats, lambda: plan_reference(algorithm, context)
        ),
        "mean_active_hosts": float(
            np.mean([s.placement.active_host_count for s in schedule])
        ),
    }


def _sharded_oracle_plan(
    context: PlanningContext, n_shards: int
) -> PlacementSchedule:
    """The in-process sharded plan, checked against the dict pipeline.

    Merge and reconcile run on the library's host-index matrix and on
    ``tests/reference/reconcile.py``'s union dicts over the same shard
    plans; every interval's mapping and the move count must agree.
    """
    planned: Dict[str, List[PlacementSchedule]] = {}

    def plan_shards(shards, shard_parent):
        planned["schedules"] = [
            DynamicConsolidation().plan(shard_context(shard, shard_parent))
            for shard in shards
        ]
        return planned["schedules"]

    algorithm = ShardedConsolidation(
        n_shards=n_shards, plan_shards=plan_shards
    )
    schedule = algorithm.plan(context)
    expected, moves, _before, _after = sharded_plan_reference(
        algorithm, context, planned["schedules"]
    )
    assert [dict(s.placement.assignment) for s in schedule] == expected
    assert algorithm.last_report.reconcile_moves == moves
    return schedule


def bench_sharded(
    n_servers: int,
    days: int,
    n_shards: int,
    workers: int,
    check_oracle: bool = False,
) -> Dict[str, object]:
    """Sharded runner-pool plan vs the unsharded planner.

    The fleet is spilled to a chunked on-disk store first — the sharded
    side plans from memory-mapped rows, exactly as a scale-out caller
    would.  Both sides plan the same (48 h history, rest evaluation)
    window onto the same consolidation pool.  With ``check_oracle``
    (the smoke size), the sharded schedule is first planned in-process
    and checked against the dict merge-and-reconcile oracle, and the
    timed pooled run must then reproduce it exactly.
    """
    traces = generate_datacenter(
        "banking", scale=n_servers / _BANKING_SERVERS, days=days, seed=7
    )
    hours = int(traces.duration_hours)
    pool_hosts = max(4, len(traces) // 2)
    context = PlanningContext(
        history=traces.window(0, _HISTORY_HOURS),
        evaluation=traces.window(_HISTORY_HOURS, hours),
        datacenter=build_target_pool("bench", host_count=pool_hosts),
        config=PlanningConfig(),
    )
    checked = _sharded_oracle_plan(context, n_shards) if check_oracle else None
    start = time.perf_counter()
    flat = DynamicConsolidation().plan(context)
    reference_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory(prefix="bench-sharded-") as tmp:
        write_trace_set(traces, tmp)
        source = chunked_source(tmp)
        runner = ExperimentRunner(workers=workers, use_cache=False)
        start = time.perf_counter()
        run = run_sharded_plan(
            source,
            n_shards=n_shards,
            pool_hosts=pool_hosts,
            pool_name="bench",
            evaluation_days=(hours - _HISTORY_HOURS) // 24,
            runner=runner,
        )
        vectorized_s = time.perf_counter() - start
    sharded = run.schedule
    if checked is not None:
        assert [s.placement.assignment for s in sharded] == [
            s.placement.assignment for s in checked
        ]
    assert len(sharded) == len(flat)
    for left, right in zip(flat, sharded):
        assert (left.start_hour, left.end_hour) == (
            right.start_hour,
            right.end_hour,
        )
        assert left.placement.assignment.keys() == (
            right.placement.assignment.keys()
        )
    gap = float(
        np.mean([s.placement.active_host_count for s in sharded])
        - np.mean([s.placement.active_host_count for s in flat])
    )
    return {
        "vectorized_s": vectorized_s,
        "reference_s": reference_s,
        "n_servers": len(traces),
        "n_hours": hours - _HISTORY_HOURS,
        "n_shards": run.report.n_shards,
        "reconcile_moves": run.report.reconcile_moves,
        "active_host_gap": round(gap, 2),
    }


def _dynamic_cases(
    sizes: List[int], days: int, many_bins_scale: float
) -> Iterator[Tuple[TraceSet, PlanningContext]]:
    """Each dynamic-plan case, its fleet generated only when reached."""
    for n_servers in sizes:
        traces = generate_datacenter(
            "banking", scale=n_servers / _BANKING_SERVERS, days=days, seed=7
        )
        context = _context(traces, _pool(max(4, len(traces) // 2)))
        yield traces, context
        if n_servers == sizes[-1]:
            yield traces, _with_engagement_constraints(context)
    traces = generate_datacenter(
        "natural-resources", scale=many_bins_scale, days=days, seed=7
    )
    yield traces, _context(traces, ExperimentSettings().build_pool(traces))


def run(smoke: bool) -> Dict[str, object]:
    if smoke:
        sizes, days, repeats, many_bins_scale = [50], 4, 1, 0.05
    else:
        sizes, days, repeats, many_bins_scale = [100, 1000], 32, 3, 1.0
    results: List[Dict[str, object]] = []
    for traces, case in _dynamic_cases(sizes, days, many_bins_scale):
        eval_hours = int(case.evaluation.duration_hours)
        reset_peak_rss()
        timings = bench_dynamic(case, repeats)
        rss = peak_rss_mb()
        speedup = timings["reference_s"] / timings["vectorized_s"]
        entry = {
            "benchmark": "dynamic-plan",
            "datacenter": traces.name,
            "n_servers": len(traces),
            "n_hours": eval_hours,
            "constraints": len(case.constraints),
            "mean_active_hosts": round(timings["mean_active_hosts"], 2),
            "vectorized_s": round(timings["vectorized_s"], 6),
            "reference_s": round(timings["reference_s"], 6),
            "speedup": round(speedup, 2),
            "peak_rss_mb": rss,
        }
        results.append(entry)
        print(
            f"{'dynamic-plan':20s} {traces.name:17s} "
            f"n={len(traces):5d} T={eval_hours:4d}h  "
            f"constraints {entry['constraints']}  "
            f"hosts {entry['mean_active_hosts']:6.1f}  "
            f"vectorized {entry['vectorized_s']:.4f}s  "
            f"reference {entry['reference_s']:.4f}s  "
            f"speedup {entry['speedup']:.2f}x  "
            f"rss {rss:.0f}MB"
        )
    # Sharded scale-out case: small in smoke (plumbing through the
    # process pool), 10k servers x 720 h in full mode.  Best-of-1: at
    # this size the run is seconds-to-minutes, not microseconds.
    if smoke:
        shard_args = dict(n_servers=100, days=4, n_shards=2, workers=2)
    else:
        shard_args = dict(n_servers=10_000, days=32, n_shards=16, workers=2)
    reset_peak_rss()
    timings = bench_sharded(**shard_args, check_oracle=smoke)
    rss = max(peak_rss_mb(), children_peak_rss_mb())
    speedup = timings["reference_s"] / timings["vectorized_s"]
    entry = {
        "benchmark": "sharded-dynamic-plan",
        "n_servers": timings["n_servers"],
        "n_hours": timings["n_hours"],
        "vectorized_s": round(timings["vectorized_s"], 6),
        "reference_s": round(timings["reference_s"], 6),
        "speedup": round(speedup, 2),
        "peak_rss_mb": rss,
        "n_shards": timings["n_shards"],
        "reconcile_moves": timings["reconcile_moves"],
        "active_host_gap": timings["active_host_gap"],
    }
    results.append(entry)
    print(
        f"{'sharded-dynamic-plan':20s} n={entry['n_servers']:5d} "
        f"T={entry['n_hours']:4d}h  "
        f"sharded {entry['vectorized_s']:.4f}s  "
        f"unsharded {entry['reference_s']:.4f}s  "
        f"speedup {entry['speedup']:.2f}x  rss {rss:.0f}MB  "
        f"gap {entry['active_host_gap']:+.2f} hosts"
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mode": "smoke" if smoke else "full",
        "repeats_best_of": repeats,
        "results": results,
    }


def run_scale_out() -> Dict[str, object]:
    """The 100k-row smoke: plan a chunked fleet that never fits a pass.

    Streams a 100k-server, 32-day fleet into a chunked store block by
    block (no full matrix ever exists in this process), then plans it
    sharded from the memory-mapped store.  ``tracemalloc`` watches the
    parent's *allocated* memory: the run must peak well under the
    on-disk matrix bytes, proving the store was consumed as memmap
    views — schedules, demand tables, and trace metadata are all the
    parent ever holds.
    """
    blocks = 10
    days = 32
    writer = None
    with tempfile.TemporaryDirectory(prefix="bench-scale-out-") as tmp:
        start = time.perf_counter()
        for index in range(blocks):
            block = generate_datacenter(
                "banking",
                scale=10_000 / _BANKING_SERVERS,
                days=days,
                seed=101 + index,
            )
            store = block.store
            if writer is None:
                writer = ChunkedTraceWriter(
                    tmp,
                    name="scale-out-100k",
                    n_servers=blocks * store.n_servers,
                    n_points=store.n_points,
                    interval_hours=store.interval_hours,
                )
            records = []
            for vm, spec in block.identities:
                record = vm_record(vm, spec)
                record["vm_id"] = f"c{index:02d}:{record['vm_id']}"
                records.append(record)
            writer.append_block(records, store.cpu_util, store.memory_gb)
            print(
                f"block {index + 1}/{blocks} written "
                f"({writer.rows_written} rows)",
                flush=True,
            )
        assert writer is not None
        writer.close()
        build_s = time.perf_counter() - start
        n_servers = writer.rows_written
        n_points = days * 24
        matrix_mb = 3 * n_servers * n_points * 8 / 2**20
        source = chunked_source(tmp)
        runner = ExperimentRunner(workers=2, use_cache=False)
        tracemalloc.start()
        start = time.perf_counter()
        run = run_sharded_plan(
            source,
            n_shards=64,
            pool_hosts=n_servers // 2,
            pool_name="scale-out",
            evaluation_days=2,
            runner=runner,
        )
        plan_s = time.perf_counter() - start
        traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    assert run.report.n_shards == 64
    n_hours = int(
        run.schedule.segments[-1].end_hour - run.schedule.segments[0].start_hour
    )
    # The non-residency claim: planning 100k rows allocated a small
    # fraction of what the fleet's matrices occupy on disk.
    assert traced_peak_mb < matrix_mb / 2, (
        f"parent allocated {traced_peak_mb:.0f}MB against "
        f"{matrix_mb:.0f}MB of on-disk matrices"
    )
    entry = {
        "benchmark": "scale-out-100k",
        "n_servers": n_servers,
        "n_hours": n_hours,
        "build_s": round(build_s, 2),
        "plan_s": round(plan_s, 2),
        "n_shards": run.report.n_shards,
        "reconcile_moves": run.report.reconcile_moves,
        "matrix_disk_mb": round(matrix_mb, 1),
        "traced_peak_mb": round(traced_peak_mb, 1),
        "peak_rss_mb": max(peak_rss_mb(), children_peak_rss_mb()),
    }
    print(
        f"scale-out-100k  n={n_servers} T={n_hours}h shards=64  "
        f"build {build_s:.1f}s  plan {plan_s:.1f}s  "
        f"matrices on disk {matrix_mb:.0f}MB, parent allocated peak "
        f"{traced_peak_mb:.0f}MB"
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mode": "scale-out",
        "repeats_best_of": 1,
        "results": [entry],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instances for CI: correctness + plumbing, not speedups",
    )
    parser.add_argument(
        "--scale-out",
        action="store_true",
        help="100k-row chunked-store smoke: memory bounds, not speedups",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write results as JSON"
    )
    options = parser.parse_args()
    report = run_scale_out() if options.scale_out else run(options.smoke)
    if options.out is not None:
        write_report(options.out, report)
        print(f"wrote {options.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
