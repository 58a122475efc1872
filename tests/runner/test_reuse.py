"""Within-run reuse: a run computes each distinct task spec once.

A run's context keeps every result it computes or loads, so a serial run
executes each distinct spec once, nested sub-tasks included, with or
without the disk cache, and identical specs share one result object.
The parallel path submits each distinct spec once and fans the results
back out in input order.  Executions are counted through a log file, so
the count also covers executors that ran in pool workers.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import List

import pytest

from repro.exceptions import ConfigurationError, RunnerError
from repro.infrastructure.datacenter import build_target_pool
from repro.runner import (
    ExperimentRunner,
    ExperimentTask,
    ResultCache,
    RunnerContext,
    planning_task,
    register_task_kind,
)
from repro.workloads.datacenters import generate_datacenter


def _log(path: str, line: str) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def _executions(log: Path) -> List[str]:
    if not log.exists():
        return []
    return log.read_text(encoding="utf-8").splitlines()


def _leaf(log: Path, x: int) -> ExperimentTask:
    return ExperimentTask(
        kind="test-reuse-leaf", params={"log": str(log), "x": x}
    )


def _parent(log: Path, y: int, x: int) -> ExperimentTask:
    return ExperimentTask(
        kind="test-reuse-parent", params={"log": str(log), "y": y, "x": x}
    )


@register_task_kind("test-reuse-leaf")
def _execute_leaf(params, ctx):
    _log(params["log"], f"leaf:{params['x']}")
    return {"x": params["x"]}


@register_task_kind("test-reuse-parent")
def _execute_parent(params, ctx):
    _log(params["log"], f"parent:{params['y']}")
    leaf = ctx.run_task(_leaf(Path(params["log"]), params["x"]))
    return {"y": params["y"], "leaf": leaf}


@register_task_kind("test-reuse-flaky")
def _execute_flaky(params, ctx):
    _log(params["log"], "flaky")
    if len(_executions(Path(params["log"]))) == 1:
        raise ValueError("first attempt fails")
    return "second attempt"


@register_task_kind("test-reuse-cyclic")
def _execute_cyclic(params, ctx):
    return ctx.run_task(
        ExperimentTask(kind="test-reuse-cyclic", params=dict(params))
    )


@register_task_kind("test-reuse-crash")
def _execute_crash(params, ctx):
    if os.getpid() == params["parent_pid"]:
        raise RuntimeError("the crash kind only runs in a pool worker")
    os._exit(3)


class TestSerialRun:
    def test_a_repeated_spec_executes_once(self, tmp_path) -> None:
        log = tmp_path / "log"
        tasks = [_leaf(log, 1), _leaf(log, 1), _leaf(log, 2)]
        report = ExperimentRunner(serial=True, use_cache=False).run(tasks)
        assert _executions(log) == ["leaf:1", "leaf:2"]
        assert [s.cached for s in report.stats] == [False, True, False]
        assert report.results[0] is report.results[1]
        assert report.results[2] == {"x": 2}

    def test_a_nested_subtask_runs_once_without_the_disk_cache(
        self, tmp_path
    ) -> None:
        log = tmp_path / "log"
        tasks = [_parent(log, 1, 7), _parent(log, 2, 7), _leaf(log, 7)]
        report = ExperimentRunner(serial=True, use_cache=False).run(tasks)
        assert _executions(log) == ["parent:1", "leaf:7", "parent:2"]
        assert [s.subtask_hits for s in report.stats] == [0, 1, 0]
        assert [s.cached for s in report.stats] == [False, False, True]
        assert report.subtask_hits == 1
        assert report.results[0]["leaf"] is report.results[1]["leaf"]
        assert report.results[2] is report.results[0]["leaf"]
        assert "1 sub-task hits" in report.describe()

    def test_the_memo_lives_for_one_run(self, tmp_path) -> None:
        log = tmp_path / "log"
        runner = ExperimentRunner(serial=True, use_cache=False)
        tasks = [_parent(log, 1, 7), _parent(log, 2, 7)]
        first = runner.run(tasks)
        second = runner.run(tasks)
        assert _executions(log).count("leaf:7") == 2
        assert first.results == second.results
        assert first.results[0] is not second.results[0]

    def test_a_disk_hit_is_kept_for_later_subtasks(self, tmp_path) -> None:
        log = tmp_path / "log"
        cache = ResultCache(tmp_path / "cache", salt="s")
        cache.put(_leaf(log, 7), {"x": 7})
        ctx = RunnerContext(cache)
        one, _, _ = ctx.execute(_parent(log, 1, 7))
        two, _, _ = ctx.execute(_parent(log, 2, 7))
        assert _executions(log) == ["parent:1", "parent:2"]
        # The second parent's leaf came from the memo, not a second load.
        assert cache.stats.hits == 1
        assert one["leaf"] is two["leaf"]
        assert ctx.subtask_hits == 2

    def test_a_failure_is_not_kept(self, tmp_path) -> None:
        log = tmp_path / "log"
        task = ExperimentTask(
            kind="test-reuse-flaky", params={"log": str(log)}
        )
        ctx = RunnerContext(None)
        with pytest.raises(ValueError, match="first attempt"):
            ctx.execute(task)
        result, hit, _ = ctx.execute(task)
        assert (result, hit) == ("second attempt", False)
        assert _executions(log) == ["flaky", "flaky"]

    def test_the_cycle_guard_still_fires(self) -> None:
        runner = ExperimentRunner(serial=True, use_cache=False)
        cyclic = ExperimentTask(kind="test-reuse-cyclic", params={"n": 1})
        with pytest.raises(ConfigurationError, match="cycle"):
            runner.run([cyclic, cyclic])


class TestParallelRun:
    def test_each_distinct_spec_is_submitted_once(self, tmp_path) -> None:
        log = tmp_path / "log"
        tasks = [
            _leaf(log, 1), _leaf(log, 2), _leaf(log, 1),
            _parent(log, 3, 2), _leaf(log, 1),
        ]
        report = ExperimentRunner(workers=2, use_cache=False).run(tasks)
        assert sorted(_executions(log)) == [
            "leaf:1", "leaf:2", "leaf:2", "parent:3",
        ]
        assert [s.cached for s in report.stats] == [
            False, False, True, False, True,
        ]
        for duplicate in (2, 4):
            assert report.stats[duplicate].seconds == 0.0
            assert report.stats[duplicate].worker == report.stats[0].worker
            assert report.results[duplicate] is report.results[0]
        # Each pooled task has its own context: the parent's leaf is
        # computed again in its worker, not served from the first one's.
        assert report.subtask_hits == 0

        serial_log = tmp_path / "serial-log"
        serial_tasks = [
            ExperimentTask(
                kind=task.kind,
                params={**task.params, "log": str(serial_log)},
            )
            for task in tasks
        ]
        serial = ExperimentRunner(serial=True, use_cache=False).run(
            serial_tasks
        )
        assert serial.results == report.results

    def test_a_dying_worker_raises_a_typed_error_naming_the_task(
        self,
    ) -> None:
        crash = ExperimentTask(
            kind="test-reuse-crash",
            params={"parent_pid": os.getpid()},
            label="crashing-task",
        )
        good = ExperimentTask(
            kind="trace-set",
            params={"datacenter": "banking", "scale": 0.02, "days": 2,
                    "seed": 5},
        )
        runner = ExperimentRunner(workers=2, use_cache=False)
        with pytest.raises(
            RunnerError, match="in input order: crashing-task"
        ) as caught:
            runner.run([crash, good])
        assert isinstance(caught.value.__cause__, BrokenProcessPool)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Sub-task reuse in the RunReport, on the engagement task list.

ENGAGEMENT_SCALE = 0.03


@pytest.fixture(scope="module")
def engagement_tasks() -> List[ExperimentTask]:
    """The constrained engagement list: 7 planner runs, 6 distinct."""
    traces = generate_datacenter("banking", scale=ENGAGEMENT_SCALE, seed=3)
    pool_hosts = max(12, len(traces) // 2)
    pool = build_target_pool(
        "banking-pool", host_count=pool_hosts, hosts_per_rack=14
    )
    vm_ids = traces.vm_ids
    constraints = (
        {"type": "anti-colocate", "vms": [vm_ids[0], vm_ids[1]]},
        {"type": "pin", "vm": vm_ids[4], "host": pool.hosts[0].host_id},
        {"type": "same-subnet", "vms": [vm_ids[5], vm_ids[6], vm_ids[7]]},
    )

    def plan(scheme: str, bound: float = 0.8) -> ExperimentTask:
        return planning_task(
            "banking",
            scale=ENGAGEMENT_SCALE,
            algorithm=scheme,
            utilization_bound=bound,
            pool_hosts=pool_hosts,
            constraints=constraints,
            seed=3,
        )

    schemes = ("semi-static", "stochastic", "dynamic")
    tasks = [plan(scheme) for scheme in schemes]
    tasks += [plan("dynamic", bound) for bound in (0.7, 0.8, 0.9, 1.0)]
    return tasks


def _outcome(result) -> tuple:
    return (
        result.schedule,
        result.provisioned_servers,
        result.energy_kwh,
        result.total_migrations(),
    )


def test_serial_engagement_reports_its_reuse(engagement_tasks) -> None:
    report = ExperimentRunner(serial=True, use_cache=False).run(
        engagement_tasks
    )
    # Six distinct plans resolve one trace set: one miss, five hits.
    # The repeated dynamic@0.80 is served at the top level, so its
    # executor never resolves the trace set.
    assert report.subtask_hits == 5
    assert report.cache_hits == 1
    assert report.stats[4].cached
    assert report.results[4] is report.results[2]
    assert "1 hits / 6 misses, 5 sub-task hits" in report.describe()


def test_pooled_engagement_reports_its_reuse(engagement_tasks) -> None:
    pooled = ExperimentRunner(workers=2, use_cache=False).run(
        engagement_tasks
    )
    # Pooled tasks have their own contexts: no sub-task is shared, and
    # only the repeated spec is reused.
    assert pooled.subtask_hits == 0
    assert pooled.cache_hits == 1
    serial = ExperimentRunner(serial=True, use_cache=False).run(
        engagement_tasks
    )
    assert [_outcome(r) for r in pooled.results] == [
        _outcome(r) for r in serial.results
    ]
