"""Longest-expected-first submission in the parallel runner.

A task kind may register a cost estimate with ``register_task_kind``;
the pooled path submits the tasks it can rank longest first and leaves
the others where they are.  Only the start order changes: results,
stats and errors stay in input order, and a pooled run still equals a
serial one.
"""

from __future__ import annotations

import pytest

import repro.runner.runner as runner_module
from repro.experiments.settings import ExperimentSettings
from repro.runner import (
    ExperimentRunner,
    ExperimentTask,
    comparison_sweep,
    register_task_kind,
    sensitivity_sweep,
)
from repro.runner.registry import estimated_cost
from repro.runner.runner import submission_order
from repro.workloads.datacenters import ALL_DATACENTERS, datacenter_specs


@register_task_kind("test-order-sized", estimate=lambda params: params["cost"])
def _execute_sized(params, ctx):
    return {"cost": params["cost"], "tag": params["tag"]}


@register_task_kind("test-order-unsized")
def _execute_unsized(params, ctx):
    return {"tag": params["tag"]}


def _sized(cost: float, tag: str) -> ExperimentTask:
    return ExperimentTask(
        kind="test-order-sized", params={"cost": cost, "tag": tag}, label=tag
    )


def _unsized(tag: str) -> ExperimentTask:
    return ExperimentTask(
        kind="test-order-unsized", params={"tag": tag}, label=tag
    )


def _names(tasks, order):
    return [tasks[index].name for index in order]


def _outcome(result) -> tuple:
    return (
        result.schedule,
        result.provisioned_servers,
        result.energy_kwh,
        result.total_migrations(),
    )


class TestSubmissionOrder:
    def test_longest_estimate_first(self) -> None:
        tasks = [_sized(1, "a"), _sized(5, "b"), _sized(3, "c"), _sized(9, "d")]
        assert _names(tasks, submission_order(tasks)) == ["d", "b", "c", "a"]

    def test_ties_keep_input_order(self) -> None:
        tasks = [
            _sized(2, "a"), _sized(7, "b"), _sized(2, "c"), _sized(7, "d"),
            _sized(2, "e"),
        ]
        assert _names(tasks, submission_order(tasks)) == [
            "b", "d", "a", "c", "e",
        ]

    def test_unknown_kinds_keep_their_positions(self) -> None:
        tasks = [
            _unsized("u0"), _sized(1, "a"), _unsized("u1"), _sized(8, "b"),
            _sized(4, "c"), _unsized("u2"),
        ]
        assert _names(tasks, submission_order(tasks)) == [
            "u0", "b", "u1", "c", "a", "u2",
        ]

    def test_without_estimates_the_input_order_stands(self) -> None:
        tasks = [_unsized(tag) for tag in "zyxw"]
        assert submission_order(tasks) == [0, 1, 2, 3]
        assert submission_order([]) == []

    def test_an_estimate_is_dropped_when_a_kind_is_replaced(self) -> None:
        register_task_kind("test-order-replaced", estimate=lambda p: 1.0)(
            _execute_unsized
        )
        task = ExperimentTask(kind="test-order-replaced", params={"tag": "t"})
        assert estimated_cost(task) == 1.0
        register_task_kind("test-order-replaced", replace=True)(
            _execute_unsized
        )
        assert estimated_cost(task) is None


class TestPaperEstimates:
    def test_vms_times_plans(self) -> None:
        settings = ExperimentSettings(scale=0.25)
        bounds = (0.5, 0.7, 0.9)
        for config in ALL_DATACENTERS:
            vms = sum(
                count for *_, count in datacenter_specs(config.key, scale=0.25)
            )
            (comparison,) = comparison_sweep(settings, [config.key])
            (sensitivity,) = sensitivity_sweep(
                settings, [config.key], bounds=bounds
            )
            assert estimated_cost(comparison) == 3 * vms
            assert estimated_cost(sensitivity) == (len(bounds) + 2) * vms

    def test_the_largest_sensitivity_task_goes_first(self) -> None:
        settings = ExperimentSettings(scale=0.25)
        tasks = comparison_sweep(settings) + sensitivity_sweep(settings)
        assert _names(tasks, submission_order(tasks)) == [
            "sensitivity:natural-resources",
            "sensitivity:banking",
            "sensitivity:beverage",
            "comparison:natural-resources",
            "sensitivity:airlines",
            "comparison:banking",
            "comparison:beverage",
            "comparison:airlines",
        ]


class TestPooledRun:
    def test_mixed_estimates_report_in_input_order(self, monkeypatch) -> None:
        submitted = []

        class RecordingPool(runner_module.ProcessPoolExecutor):
            def submit(self, fn, payload, *args, **kwargs):
                submitted.append(payload[2])
                return super().submit(fn, payload, *args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", RecordingPool)
        tasks = [
            _sized(1, "small"), _unsized("free"), _sized(6, "large"),
            _sized(1, "small"), _sized(3, "medium"),
        ]
        pooled = ExperimentRunner(workers=2, use_cache=False).run(tasks)
        # One submission per distinct spec, longest first among the
        # sized ones; the unsized task keeps its slot.
        assert submitted == ["large", "free", "medium", "small"]
        serial = ExperimentRunner(serial=True, use_cache=False).run(tasks)
        assert pooled.results == serial.results
        assert [result["tag"] for result in pooled.results] == [
            "small", "free", "large", "small", "medium",
        ]
        assert [stat.name for stat in pooled.stats] == [
            task.name for task in tasks
        ]
        assert [stat.cached for stat in pooled.stats] == [
            False, False, False, True, False,
        ]
        assert pooled.results[3] is pooled.results[0]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_paper_sweep_equals_its_serial_run(self, workers) -> None:
        settings = ExperimentSettings(scale=0.03)
        tasks = comparison_sweep(settings, ["banking", "airlines"])
        tasks += sensitivity_sweep(settings, ["banking", "airlines"])
        assert submission_order(tasks) != list(range(len(tasks)))
        pooled = ExperimentRunner(workers=workers, use_cache=False).run(tasks)
        serial = ExperimentRunner(serial=True, use_cache=False).run(tasks)
        assert [stat.name for stat in pooled.stats] == [
            task.name for task in tasks
        ]
        # Emulation results hold arrays: compare what each one decided.
        n_comparisons = 2
        for pooled_row, serial_row in zip(
            pooled.results[:n_comparisons], serial.results[:n_comparisons]
        ):
            assert pooled_row.workload == serial_row.workload
            assert list(pooled_row.results) == list(serial_row.results)
            for scheme, result in pooled_row.results.items():
                assert _outcome(result) == _outcome(serial_row.results[scheme])
        assert (
            pooled.results[n_comparisons:] == serial.results[n_comparisons:]
        )
