#!/usr/bin/env python3
"""End-to-end benchmark of the consolidation library: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 18 --trace 0

``--trace 0`` times the imports of a fresh interpreter three times and
runs one warm-up pass at toy size.  Then it repeats the workload (fresh
set-up, timed section, output checks) until ``--seconds`` have passed,
at least three times, and reports the end-to-end metrics as medians.
Times are reported at reference CPU speed (see ``perfbench/speed.py``);
the raw seconds are printed beside them.
``--trace 1`` runs one untraced pass and one traced pass on the same
seed and reports the per-layer metrics of the traced one, also at
reference speed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when a check failed or the library sources are missing.  Default seed
1; the held-out seed for claims is 2 (see ``perfbench/NOTES.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
IMPORT_PROBES = 3

#: What a fresh benchmark process imports before its first set-up.
_IMPORTS = (
    "import sys; sys.path[:0] = sys.argv[1:]; import perfbench.workloads"
)


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper", "fleet", "online", "engagement"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "toy"),
        default="full",
        help="toy: seconds-long inputs for the self-test",
    )
    return parser.parse_args(argv)


def prepare_environment() -> Path:
    """Keep every file the library writes inside the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library sources at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        sys.exit(2)
    workdir = ROOT / ".bench_build" / "perfbench"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # The generation kernel caches its compiled object under
    # XDG_CACHE_HOME; runner caches are off, but pin them here too.
    os.environ["XDG_CACHE_HOME"] = str(workdir / "cache")
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "runner-cache")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return workdir


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def emit(lines: "list[str]", correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _import_seconds(sampler) -> float:
    """Seconds a fresh interpreter takes to import the benchmark, at
    reference speed."""
    import subprocess

    _done, seconds, slowdown = sampler.measure(
        lambda: subprocess.run(
            [sys.executable, "-c", _IMPORTS, str(ROOT / "src"), str(ROOT)],
            check=True,
        )
    )
    return seconds / slowdown


def run_untraced(workload, warm_up, args) -> int:
    from perfbench.metrics import E2E_METRICS
    from perfbench.speed import SpeedSampler

    setup, walls, slowdowns, passes = [], [], [], []
    samples: "dict[str, list[float]]" = {}
    digests = set()
    allowed = os.sched_getaffinity(0)
    with SpeedSampler() as sampler:
        # Work pinned to one CPU is corrected by that CPU's speed alone.
        os.sched_setaffinity(0, {min(allowed)})
        imports = [_import_seconds(sampler) for _ in range(IMPORT_PROBES)]
        if not workload.serial:
            os.sched_setaffinity(0, allowed)
        # A toy pass first does what a process does once (lazy imports,
        # first-use kernel checks) without timing it.
        inputs = warm_up.build(args.seed)
        warm_up.check(inputs, warm_up.execute(inputs)[1])
        deadline = time.perf_counter() + args.seconds
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            inputs, build_s, build_slowdown = sampler.measure(
                lambda: workload.build(args.seed)
            )
            setup.append(build_s / build_slowdown)
            (wall, output), _seconds, run_slowdown = sampler.measure(
                lambda: workload.execute(inputs)
            )
            walls.append(wall)
            slowdowns.append(run_slowdown)
            result = workload.check(inputs, output)
            passes.append(result)
            digests.add(result.digest)
            for name, values in result.samples.items():
                samples.setdefault(name, []).extend(values)
    os.sched_setaffinity(0, allowed)
    failures = [f for p in passes for f in p.failures]
    if len(digests) != 1:
        failures.append(f"{len(digests)} different output digests for one seed")
    attempted = sum(p.attempted for p in passes) + 1
    failed = sum(p.failed for p in passes) + (len(digests) != 1)
    last = passes[-1]
    at_reference = [w / s for w, s in zip(walls, slowdowns)]
    metrics = {
        "setup_s": (
            statistics.median(imports) + statistics.median(setup),
            E2E_METRICS["setup_s"],
        ),
        "wall_s": (statistics.median(at_reference), E2E_METRICS["wall_s"]),
        "peak_rss_mb": (peak_rss_mb(), E2E_METRICS["peak_rss_mb"]),
    }
    metrics["mean_active_hosts"] = (
        last.quality["mean_active_hosts"], E2E_METRICS["mean_active_hosts"]
    )
    extra = {
        "wall_raw_s": (statistics.median(walls), "s"),
        "slowdown": (statistics.median(slowdowns), "x"),
        "migrations": (last.quality["migrations"], "count"),
    }
    extra.update(last.extra)
    if workload.summarize is not None:
        extra.update(workload.summarize(samples))
    extra["error_rate"] = (failed / attempted, "fraction")
    lines = [
        f"# workload {workload.name} seed {args.seed}: {len(walls)} measured passes, "
        f"digest {last.digest[:16]}",
        f"# setup samples {[round(s, 4) for s in setup]} "
        f"+ imports {[round(s, 4) for s in imports]} (at reference speed)",
        f"# wall samples {[round(w, 4) for w in walls]}",
        f"# slowdown samples {[round(s, 3) for s in slowdowns]}",
    ]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in extra.items()]
    lines += [f"# FAILED CHECK: {failure}" for failure in failures]
    emit(lines, not failures, attempted, failed, metrics)
    return 1 if failures else 0


def run_traced(workload, args, workdir: Path) -> int:
    from perfbench.metrics import layer_metrics
    from perfbench.speed import SpeedSampler
    from perfbench.tracing import Tracer

    allowed = os.sched_getaffinity(0)
    if workload.serial:
        os.sched_setaffinity(0, {min(allowed)})
    with SpeedSampler() as sampler:
        # The first pass in a process pays one-time costs (lazy imports
        # in pool workers, first-use kernel checks); it is run and
        # discarded so the overhead compares two warm passes.
        for _warm_then_measured in range(2):
            inputs = workload.build(args.seed)
            (untraced_wall, output), _seconds, untraced_slowdown = (
                sampler.measure(lambda: workload.execute(inputs))
            )
            untraced = workload.check(inputs, output)

        tracer = Tracer()
        tracer.install()
        try:
            inputs = workload.build(args.seed)
            (traced_wall, output), _seconds, traced_slowdown = (
                sampler.measure(lambda: workload.execute(inputs))
            )
        finally:
            leftovers = tracer.uninstall()
    os.sched_setaffinity(0, allowed)
    traced = workload.check(inputs, output)

    failures = untraced.failures + traced.failures
    if traced.digest != untraced.digest:
        failures.append("traced and untraced output digests differ")
    if leftovers:
        failures.append(f"entry points left patched: {leftovers}")
    untraced_wall /= untraced_slowdown
    traced_wall /= traced_slowdown
    # Layer times, like the two walls, at reference speed.
    metrics = {
        name: (
            value if name.startswith("trace.")
            else value / traced_slowdown if unit == "s"
            else value * traced_slowdown if unit == "1/s"
            else value,
            unit,
        )
        for name, (value, unit) in layer_metrics(
            tracer, traced.facts, untraced_wall, traced_wall
        ).items()
    }
    trace_file = workdir / f"trace-{workload.name}-{args.seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "spans": tracer.spans,
                "self_seconds": tracer.self_seconds,
                "calls": tracer.calls,
                "counts": tracer.counts,
                "slowdown": traced_slowdown,
            }
        )
    )
    attempted = untraced.attempted + traced.attempted + 2
    failed = untraced.failed + traced.failed + len(failures) - len(
        untraced.failures
    ) - len(traced.failures)
    lines = [
        f"# workload {workload.name} seed {args.seed} traced: digest "
        f"{traced.digest[:16]} (untraced {untraced.digest[:16]}), "
        f"overhead {traced_wall - untraced_wall:+.4f} s on "
        f"{untraced_wall:.4f} s at reference speed (slowdown "
        f"{untraced_slowdown:.3f} untraced, {traced_slowdown:.3f} traced), "
        f"spans written in raw seconds to {trace_file.name}",
    ]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"# FAILED CHECK: {failure}" for failure in failures]
    emit(lines, not failures, attempted, failed, metrics)
    return 1 if failures else 0


def child_pids() -> "list[int]":
    """Processes whose parent is this process, finished ones included."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        if stat.rpartition(")")[2].split()[1] == me:
            pids.append(int(entry))
    return pids


def stop_children() -> "list[int]":
    """Kill and reap every child process still present; their pids."""
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return left


def main() -> int:
    args = parse_args()
    workdir = prepare_environment()
    try:
        from perfbench.workloads import make_workload

        workload = make_workload(args.workload, args.size, workdir)
        if args.trace:
            return run_traced(workload, args, workdir)
        warm_up = make_workload(args.workload, "toy", workdir)
        return run_untraced(workload, warm_up, args)
    finally:
        # Pools and the speed sampler stop their processes themselves;
        # this makes sure nothing outlives the run on any path out.
        left = stop_children()
        if left:
            print(f"perfbench: stopped leftover child processes {left}",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
