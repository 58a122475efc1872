"""Runner fan-out for sharded planning.

Pins the orchestration contract: a pooled (2-worker) sharded plan from
a chunked on-disk store equals :class:`ShardedConsolidation` planned in
process on the same traces, window, pool and config — same partition,
same schedules, same reconciliation — a sharded plan reads nothing but
a chunked store document, and source documents carry enough identity
(manifest fingerprint) to keep the runner's content-addressed cache
honest.
"""

from __future__ import annotations

import pytest

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.planner import split_window
from repro.exceptions import ConfigurationError
from repro.infrastructure.datacenter import build_target_pool
from repro.runner import ExperimentRunner
from repro.sharding import (
    KIND_SHARD_PLAN,
    ShardedConsolidation,
    chunked_source,
    run_sharded_plan,
    shard_plan_task,
)
from repro.sharding.partition import partition_fleet
from repro.workloads.chunked import write_trace_set
from repro.workloads.datacenters import generate_datacenter

_SCALE = 100 / 816
_DAYS = 4
_SEED = 23


@pytest.fixture(scope="module")
def small_traces():
    return generate_datacenter("banking", scale=_SCALE, days=_DAYS, seed=_SEED)


@pytest.fixture(scope="module")
def chunk_dir(small_traces, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunked-fleet")
    write_trace_set(small_traces, directory)
    return directory


def _pool_hosts(n_servers):
    return max(4, n_servers // 2)


def _run(source, runner, n_servers):
    return run_sharded_plan(
        source,
        n_shards=2,
        pool_hosts=_pool_hosts(n_servers),
        pool_name="task-pool",
        evaluation_days=_DAYS - 2,
        runner=runner,
    )


class _NoTasks:
    """A runner that fails the test if any task reaches it."""

    def run(self, tasks):
        raise AssertionError(f"{len(tasks)} tasks ran")


class TestSourceDocuments:
    def test_chunked_source_fingerprints_manifest(self, chunk_dir) -> None:
        source = chunked_source(chunk_dir)
        assert source["kind"] == "chunked"
        assert source["path"] == str(chunk_dir)
        assert len(source["fingerprint"]) == 64

    def test_chunked_source_requires_manifest(self, tmp_path) -> None:
        with pytest.raises(ConfigurationError, match="no chunked store"):
            chunked_source(tmp_path)

    def test_fingerprint_tracks_content(
        self, chunk_dir, small_traces, tmp_path
    ) -> None:
        rewritten = tmp_path / "copy"
        write_trace_set(small_traces.subset(small_traces.vm_ids[:10]), rewritten)
        assert (
            chunked_source(chunk_dir)["fingerprint"]
            != chunked_source(rewritten)["fingerprint"]
        )

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda d: dict(chunked_source(d), kind="chunkd"),
            lambda d: {"kind": "chunked"},
            lambda d: {"kind": "chunked", "path": str(d)},
            lambda d: {
                "kind": "preset",
                "datacenter": "banking",
                "scale": _SCALE,
                "days": _DAYS,
                "seed": _SEED,
            },
        ],
        ids=["misspelled-kind", "no-path", "no-fingerprint", "preset"],
    )
    def test_malformed_source_rejected_before_any_task(
        self, chunk_dir, small_traces, malformed
    ) -> None:
        with pytest.raises(ConfigurationError, match="chunked_source"):
            _run(malformed(chunk_dir), _NoTasks(), len(small_traces))


class TestShardPlanTask:
    def test_task_identity(self, chunk_dir, small_traces) -> None:
        pool = build_target_pool(
            "task-pool", host_count=len(small_traces) // 2
        )
        shard = partition_fleet(small_traces.vm_ids, pool, 2)[1]
        positions = [
            [host.host_id for host in pool.hosts].index(host_id)
            for host_id in shard.host_ids
        ]
        task = shard_plan_task(
            chunked_source(chunk_dir),
            shard,
            positions,
            pool_name="task-pool",
        )
        assert task.kind == KIND_SHARD_PLAN
        assert task.params["vm_start"] == shard.vm_start
        assert task.params["vm_stop"] == shard.vm_stop
        assert task.params["host_positions"] == positions
        assert str(shard.index) in task.label


class TestRunShardedPlan:
    def test_pooled_chunked_plan_equals_in_process_sharded(
        self, chunk_dir, small_traces
    ) -> None:
        """Two pool workers reading the chunked store plan exactly what
        :class:`ShardedConsolidation` plans in process on the same
        traces, window, pool and config."""
        n = len(small_traces)
        pooled = _run(
            chunked_source(chunk_dir),
            ExperimentRunner(workers=2, use_cache=False),
            n,
        )
        history, evaluation = split_window(small_traces, _DAYS - 2)
        in_process = ShardedConsolidation(n_shards=2)
        schedule = in_process.plan(
            PlanningContext(
                history=history,
                evaluation=evaluation,
                datacenter=build_target_pool(
                    "task-pool", host_count=_pool_hosts(n)
                ),
                config=PlanningConfig(),
            )
        )
        assert len(pooled.schedule) == len(schedule)
        for left, right in zip(pooled.schedule, schedule):
            assert (left.start_hour, left.end_hour) == (
                right.start_hour, right.end_hour
            )
            assert list(left.placement.assignment.items()) == list(
                right.placement.assignment.items()
            )
        assert pooled.report == in_process.last_report
        assert pooled.report.reconcile_moves > 0
        assert pooled.run_report.workers >= 1
        assert len(pooled.run_report.results) == pooled.report.n_shards

    def test_run_records_reconciliation_report(self, chunk_dir, small_traces) -> None:
        run = _run(
            chunked_source(chunk_dir),
            ExperimentRunner(serial=True, use_cache=False),
            len(small_traces),
        )
        assert run.report.n_shards == 2
        assert run.report.reconcile_moves >= 0
        vm_ids = set(small_traces.vm_ids)
        for segment in run.schedule:
            assert segment.placement.assignment.keys() == vm_ids
