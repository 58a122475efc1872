#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about a minute on 2 CPUs).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It shows that:

* every workload, untraced and traced, prints every end-to-end or
  per-layer metric by name with its unit, and ``BENCHMARK.json`` lists
  exactly those metrics and workloads;
* traced and untraced passes produce the same output digest, and spans
  recorded in pool workers reach the traced report;
* the checks reject a corrupted schedule (a VM missing, an overfilled
  host, a broken deployment constraint) and a corrupted controller plan;
* every entry point the tracer patches is restored afterwards;
* the CPU-speed sampler measures a slowdown and its helper process is
  stopped afterwards, and no benchmark run leaves a child process.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]


def run_cli(workload: str, trace: int) -> "tuple[list[str], dict]":
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--size", "toy",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    assert completed.returncode == 0, (
        workload, trace, completed.stderr[-2000:], lines[-5:]
    )
    assert "leftover child processes" not in completed.stderr, (
        workload, trace, completed.stderr[-2000:]
    )
    return lines, json.loads(lines[-1])


def check_cli_output() -> None:
    from perfbench.metrics import E2E_METRICS, LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    for workload in WORKLOADS:
        for trace, table in ((0, E2E_METRICS), (1, LAYER_METRICS)):
            lines, result = run_cli(workload, trace)
            assert result["correct"] is True, (workload, trace, lines[-12:])
            assert result["attempted"] >= 1 and result["failed"] == 0
            metrics = result["metrics"]
            assert set(metrics) == set(table), (workload, trace)
            printed = set(lines[:-1])
            for name, unit in table.items():
                value = metrics[name]["value"]
                assert metrics[name]["unit"] == unit
                assert f"{name} {value!r} {unit}" in printed, name
            if trace:
                header = lines[0]
                traced, untraced = header.split("digest ")[1].split(
                    " (untraced "
                )
                assert traced == untraced[: len(traced)], header
                if workload in ("paper", "fleet"):
                    assert metrics["trace.worker_spans"]["value"] > 0
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics")


def corrupt_segment(schedule, index, assignment):
    """``schedule`` with segment ``index`` replaced by ``assignment``."""
    from repro.emulator.schedule import PlacementSchedule, ScheduledPlacement
    from repro.placement.plan import Placement

    segments = list(schedule.segments)
    old = segments[index]
    segments[index] = ScheduledPlacement(
        placement=Placement(assignment=assignment),
        start_hour=old.start_hour,
        end_hour=old.end_hour,
    )
    return PlacementSchedule(segments=tuple(segments))


def check_rejections(workdir: Path) -> None:
    from perfbench.workloads import (
        check_capacity,
        check_exactly_once,
        check_plan_consistent,
        fleet_capacity_table,
        make_workload,
    )

    # Fleet: a missing VM and an overfilled host are both caught.
    fleet = make_workload("fleet", "toy", workdir)
    inputs = fleet.build(3)
    _wall, run = fleet.execute(inputs)
    schedule = run.schedule
    table, caps = fleet_capacity_table(inputs)
    assert not check_exactly_once(schedule, inputs.vm_ids, "fleet")
    assert not check_capacity(schedule, table, caps, "fleet")
    first = dict(schedule.segments[0].placement.assignment)
    first.pop(next(iter(first)))
    assert check_exactly_once(
        corrupt_segment(schedule, 0, first), inputs.vm_ids, "fleet"
    )
    crowded = {vm: caps.host_ids[0] for vm in inputs.vm_ids}
    assert check_capacity(
        corrupt_segment(schedule, 0, crowded), table, caps, "fleet"
    )
    assert not fleet.check(inputs, run).failures
    print("ok  fleet checks reject a missing VM and an overfilled host")

    # Engagement: two anti-colocated VMs on one host are caught.
    engagement = make_workload("engagement", "toy", workdir)
    inputs = engagement.build(3)
    _wall, report = engagement.execute(inputs)
    assert not engagement.check(inputs, report).failures
    result = report.results[0]
    broken = dict(result.schedule.segments[0].placement.assignment)
    broken[inputs.vm_ids[1]] = broken[inputs.vm_ids[0]]
    bad_result = dataclasses.replace(
        result, schedule=corrupt_segment(result.schedule, 0, broken)
    )
    bad_report = dataclasses.replace(
        report, results=(bad_result,) + tuple(report.results[1:])
    )
    failures = engagement.check(inputs, bad_report).failures
    assert any("violates" in failure for failure in failures), failures
    print("ok  engagement checks reject a broken anti-colocation")

    # Online: a live plan that drifted from its rebuild is caught.
    online = make_workload("online", "toy", workdir)
    inputs = online.build(3)
    _wall, output = online.execute(inputs)
    assert not online.check(inputs, output).failures
    plan = inputs.controller.plan
    plan.body_cpu[plan.active_hosts()[0]] += 1.0
    assert check_plan_consistent(plan)
    assert online.check(inputs, output).failures
    print("ok  online checks reject a corrupted controller plan")


def check_restore() -> None:
    from perfbench.tracing import ENTRY_POINTS, Tracer, _resolve

    import repro.sharding.planner as sharding_planner
    import repro.sizing.prediction as prediction

    before = [_resolve(point.target)[2] for point in ENTRY_POINTS]
    rebound = sharding_planner.build_peak_table
    tracer = Tracer()
    tracer.install()
    assert sharding_planner.build_peak_table is not rebound
    assert prediction.build_peak_table is sharding_planner.build_peak_table
    leftovers = tracer.uninstall()
    assert leftovers == [], leftovers
    after = [_resolve(point.target)[2] for point in ENTRY_POINTS]
    assert all(a is b for a, b in zip(before, after))
    assert sharding_planner.build_peak_table is rebound
    print(f"ok  all {len(ENTRY_POINTS)} patched entry points restored")


def check_speed_sampler() -> None:
    import os
    import time

    from perfbench.run import child_pids
    from perfbench.speed import SpeedSampler

    allowed = os.sched_getaffinity(0)
    with SpeedSampler() as sampler:
        value, seconds, slowdown = sampler.measure(lambda: time.sleep(0.3) or 7)
        process = sampler._process
    assert value == 7 and 0.3 <= seconds < 1.0, seconds
    assert 0.2 < slowdown < 5.0, slowdown
    assert not process.is_alive()
    # No helper of the sampler (such as a resource tracker) is left either.
    assert child_pids() == [], child_pids()
    assert os.sched_getaffinity(0) == allowed
    print(f"ok  speed sampler measured slowdown {slowdown:.3f} and stopped")


def main() -> int:
    from perfbench.run import prepare_environment

    workdir = prepare_environment()
    check_speed_sampler()
    check_restore()
    with tempfile.TemporaryDirectory(dir=workdir) as workdir:
        check_rejections(Path(workdir))
    check_cli_output()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
