"""Microbenchmarks for the vectorized demand kernels.

Times three library hot paths against their scalar references on
paper-scale instances (~100 and ~1000 servers, 720 trace hours):

* **replay** — :class:`ConsolidationEmulator` (scatter-add) vs the
  per-VM loop in ``tests/reference/emulator.py`` replaying a daily
  consolidation schedule;
* **pack** — FFD ``pack()`` (the dynamic planner's first-fit loop,
  ``core/dynamic_vector.py::first_fit``, on a fresh ``IncrementalPlan``)
  vs the per-bin Python scan in ``tests/reference/packing.py``, on
  ``MaxSizing`` demands (``pack()`` takes bodies only);
* **assemble** — ``TraceStore.from_traces`` vs per-trace ``np.vstack``
  reassembly of the demand matrices.

Plain script, no pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_kernels.json
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke

``--smoke`` shrinks the instances for CI: it checks the kernels run and
agree, not that the speedup target holds.  The committed
``BENCH_kernels.json`` is regenerated with ``make bench-baseline``;
``--out`` naming an existing report replaces the rows this run measured
and keeps every other row (``conftest.write_report``), so the
``generate*`` rows survive a kernel re-pin.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

import numpy as np

from conftest import peak_rss_mb, reset_peak_rss, write_report
from repro.emulator import ConsolidationEmulator, PlacementSchedule
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.placement.binpacking import pack
from repro.placement.plan import Placement
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import MaxSizing
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.store import TraceStore
from tests.reference.emulator import ReferenceConsolidationEmulator
from tests.reference.packing import pack_reference

# The banking preset has 816 servers at scale 1.0; scale the other
# sizes off that so per-server statistics stay the paper's.
_BANKING_SERVERS = 816


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
        datacenter.add_host(
            PhysicalServer(
                host_id=f"h{index:04d}",
                spec=ServerSpec(cpu_rpe2=50_000.0, memory_gb=256.0),
            )
        )
    return datacenter


def _daily_schedule(traces, datacenter) -> PlacementSchedule:
    """One rotated placement per day, like dynamic consolidation."""
    host_ids = [host.host_id for host in datacenter]
    vm_ids = list(traces.vm_ids)
    n_days = int(traces.duration_hours // 24)
    placements = []
    for day in range(n_days):
        placements.append(
            Placement(
                assignment={
                    vm_id: host_ids[(row + day) % len(host_ids)]
                    for row, vm_id in enumerate(vm_ids)
                }
            )
        )
    return PlacementSchedule.periodic(placements, 24.0)


def bench_replay(traces, repeats: int) -> Dict[str, float]:
    datacenter = _pool(max(4, len(traces) // 4))
    schedule = _daily_schedule(traces, datacenter)
    vectorized = ConsolidationEmulator(traces, datacenter)
    reference = ReferenceConsolidationEmulator(traces, datacenter)
    got = vectorized.evaluate(schedule, scheme="bench")
    expected = reference.evaluate(schedule, scheme="bench")
    assert np.array_equal(got.cpu_demand, expected.cpu_demand)
    assert np.array_equal(got.power_watts, expected.power_watts)
    return {
        "vectorized_s": _best_of(
            repeats, lambda: vectorized.evaluate(schedule, scheme="bench")
        ),
        "reference_s": _best_of(
            repeats, lambda: reference.evaluate(schedule, scheme="bench")
        ),
    }


def bench_pack(traces, repeats: int) -> Dict[str, float]:
    estimator = SizeEstimator(sizing=MaxSizing())
    demands = estimator.estimate_all(traces)
    hosts = _pool(len(demands)).hosts
    expected = pack_reference(demands, hosts, utilization_bound=0.8)
    got = pack(demands, hosts, utilization_bound=0.8)
    assert list(got.assignment.items()) == list(expected.assignment.items())
    return {
        "vectorized_s": _best_of(
            repeats, lambda: pack(demands, hosts, utilization_bound=0.8)
        ),
        "reference_s": _best_of(
            repeats,
            lambda: pack_reference(demands, hosts, utilization_bound=0.8),
        ),
    }


def bench_assemble(traces, repeats: int) -> Dict[str, float]:
    trace_list = list(traces)

    def stacked():
        # Per-trace reassembly of the full columnar product — the same
        # three matrices ``TraceStore.from_traces`` builds, including
        # the per-trace ``cpu_rpe2`` derivation (a multiply + temporary
        # per row on this path, one broadcast multiply on the bulk one).
        cpu_util = np.vstack([t.cpu_util.values for t in trace_list])
        cpu_rpe2 = np.vstack([t.cpu_rpe2 for t in trace_list])
        memory = np.vstack([t.memory_gb.values for t in trace_list])
        return cpu_util, cpu_rpe2, memory

    reference_matrices = stacked()
    store = TraceStore.from_traces(trace_list)
    assert np.array_equal(store.cpu_util, reference_matrices[0])
    assert np.array_equal(store.cpu_rpe2, reference_matrices[1])
    assert np.array_equal(store.memory_gb, reference_matrices[2])
    # Drop the verification artifacts before timing: holding four extra
    # (n, T) matrices inflates allocator/page-fault noise at these
    # millisecond scales.
    del reference_matrices, store
    return {
        "vectorized_s": _best_of(
            repeats, lambda: TraceStore.from_traces(trace_list)
        ),
        "reference_s": _best_of(repeats, stacked),
    }


def run(smoke: bool) -> Dict[str, object]:
    if smoke:
        sizes, days, repeats = [50], 3, 1
    else:
        # Best-of-9: these kernels run in single-digit milliseconds, so
        # scheduler noise at best-of-3 can swing a near-tie row a few
        # percent either side of 1.0x.
        sizes, days, repeats = [100, 1000], 30, 9
    results: List[Dict[str, object]] = []
    for n_servers in sizes:
        traces = generate_datacenter(
            "banking", scale=n_servers / _BANKING_SERVERS, days=days, seed=7
        )
        traces.store  # columnar build is shared setup, not replay time
        cases = [
            ("replay", lambda: bench_replay(traces, repeats)),
            ("pack-ffd", lambda: bench_pack(traces, repeats)),
            ("assemble", lambda: bench_assemble(traces, repeats)),
        ]
        for name, runner in cases:
            reset_peak_rss()
            timings = runner()
            rss = peak_rss_mb()
            speedup = timings["reference_s"] / timings["vectorized_s"]
            entry = {
                "benchmark": name,
                "n_servers": len(traces),
                "n_hours": int(traces.duration_hours),
                "vectorized_s": round(timings["vectorized_s"], 6),
                "reference_s": round(timings["reference_s"], 6),
                "speedup": round(speedup, 2),
                "peak_rss_mb": rss,
            }
            results.append(entry)
            print(
                f"{name:10s} n={len(traces):5d} T={entry['n_hours']:4d}h  "
                f"vectorized {entry['vectorized_s']:.4f}s  "
                f"reference {entry['reference_s']:.4f}s  "
                f"speedup {entry['speedup']:.2f}x  "
                f"rss {rss:.0f}MB"
            )
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
        help="tiny instances for CI: correctness + plumbing, not speedups",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write results as JSON"
    )
    options = parser.parse_args()
    report = run(options.smoke)
    if options.out is not None:
        write_report(options.out, report)
        print(f"wrote {options.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
