"""The compiled interval loop against the Python loop and the reference.

``repro.core.interval_kernel`` runs each interval of a dynamic plan in
C, asking Python about constrained VMs only;
``test_dynamic_engine_equivalence.py`` pins its schedules to
``tests/reference/dynamic.py`` and, in ``TestPythonLoop``, the Python
loop's too.  This module covers what those cases do not: which loop a
plan takes, the sweep cap, every error the loop raises (texts
included), an exception from the cost model or from a constraint, the
constraint calls each loop makes, the first-use self-check, and a fresh
interpreter without a C compiler.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.constraints import (
    AntiColocate,
    Constraint,
    ConstraintSet,
    PinToHost,
    SameSubnet,
)
from repro.core import interval_kernel
from repro.core.base import PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.dynamic_vector import (
    PythonLoop,
    _HostArrays,
    _Rules,
    id_ranks,
)
from repro.core.planner import ConsolidationPlanner
from repro.exceptions import PlacementError
from repro.experiments.settings import ExperimentSettings
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.native import why_off
from repro.sizing.estimator import DemandTable
from repro.workloads.datacenters import generate_datacenter
from tests.core.test_dynamic_engine_equivalence import (
    _assert_matches_reference,
    _assert_schedules_identical,
    _ColocatingHook,
    _constrained,
    _context,
    _engagement_constraints,
)
from tests.reference.dynamic import plan_reference

needs_compiler = pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler on PATH",
)


@needs_compiler
def test_kernel_is_on_where_a_compiler_exists():
    """A silent fallback to the Python loop is a failure, with its reason."""
    assert interval_kernel.load() is not None, why_off("interval")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the intervals the compiled loop plans."""
    calls = []
    planned = interval_kernel.KernelLoop.interval

    def counted(self, interval):
        calls.append(interval)
        return planned(self, interval)

    monkeypatch.setattr(interval_kernel.KernelLoop, "interval", counted)
    return calls


class TestLoopChoice:
    def test_unconstrained_plan_runs_the_kernel(
        self, kernel_loop, kernel_calls, small_pool
    ):
        context = _context(small_pool)
        DynamicConsolidation().plan(context)
        assert kernel_calls == list(range(context.n_intervals))

    def test_kernel_off_runs_the_python_loop(
        self, python_loop, kernel_calls, small_pool
    ):
        DynamicConsolidation().plan(_context(small_pool))
        assert kernel_calls == []

    def test_constrained_plan_runs_the_kernel(
        self, kernel_loop, kernel_calls, small_pool
    ):
        context = _constrained(
            _context(small_pool), [AntiColocate("vm0", "vm1")]
        )
        DynamicConsolidation().plan(context)
        assert kernel_calls == list(range(context.n_intervals))

    def test_unbounded_host_runs_the_python_loop(
        self, kernel_loop, kernel_calls, small_pool
    ):
        """An infinite capacity makes a NaN residual, which only Python's
        own sort orders as the Python loop does."""
        pool = Datacenter(name="unbounded")
        for host in small_pool.hosts:
            pool.add_host(host)
        pool.add_host(
            PhysicalServer("endless", ServerSpec(float("inf"), float("inf")))
        )
        unconstrained = _context(small_pool)
        context = PlanningContext(
            history=unconstrained.history,
            evaluation=unconstrained.evaluation,
            datacenter=pool,
            config=unconstrained.config,
        )
        DynamicConsolidation().plan(context)
        assert kernel_calls == []


@pytest.fixture(scope="module")
def many_bins_context():
    """Natural-resources at a quarter of paper scale: 25+ live hosts."""
    settings = ExperimentSettings(scale=0.25)
    traces = generate_datacenter("natural-resources", scale=0.25, days=8)
    return ConsolidationPlanner(
        traces=traces,
        datacenter=settings.build_pool(traces),
        config=settings.planning_config(),
        evaluation_days=2,
    ).context


@pytest.mark.parametrize("sweeps", [0, 1, 6])
def test_sweep_cap_agrees(either_loop, many_bins_context, sweeps):
    _assert_matches_reference(many_bins_context, max_vacate_sweeps=sweeps)


def test_sweeps_change_the_plan(many_bins_context):
    """The cases above differ: without a sweep no host is emptied."""
    counts = [
        [
            segment.placement.active_host_count
            for segment in DynamicConsolidation(
                max_vacate_sweeps=sweeps
            ).plan(many_bins_context)
        ]
        for sweeps in (0, 1)
    ]
    assert sum(counts[0]) > sum(counts[1])


def test_hook_seeded_hints_agree(either_loop, small_pool):
    """A hook's placement seeds the next interval of either loop."""
    context = _context(small_pool)
    _assert_schedules_identical(
        plan_reference(_ColocatingHook(), context),
        _ColocatingHook().plan(context),
    )


def test_no_fit_error_text(either_loop, tiny_pool):
    """A VM no host can hold: the reference's message, word for word."""
    context = _context(tiny_pool, n_vms=4, days=2)
    with pytest.raises(PlacementError) as library:
        DynamicConsolidation().plan(context)
    with pytest.raises(PlacementError) as reference:
        plan_reference(DynamicConsolidation(), context)
    assert "fits on no host" in str(library.value)
    assert str(library.value) == str(reference.value)


class _Down(Exception):
    """The cost model's own failure."""


class _FailingCost(DynamicConsolidation):
    def _cached_cost(self, memory_gb: float) -> float:
        raise self.failure


def test_cost_model_exception_surfaces_unchanged(
    either_loop, small_pool, capfd
):
    algorithm = _FailingCost()
    algorithm.failure = _Down("cost model down")
    with pytest.raises(_Down) as raised:
        algorithm.plan(_context(small_pool, seed=11))
    assert raised.value is algorithm.failure
    assert capfd.readouterr().err == ""


class _RaisingRule(Constraint):
    """A rule over vm0 whose check fails."""

    def __init__(self, failure):
        self.failure = failure

    @property
    def vm_ids(self):
        return frozenset({"vm0"})

    def allows(self, vm_id, host, context):
        raise self.failure

    def describe(self):
        return "raising(vm0)"


def test_constraint_exception_surfaces_unchanged(
    either_loop, small_pool, capfd
):
    failure = _Down("rule store down")
    context = _constrained(_context(small_pool), [_RaisingRule(failure)])
    with pytest.raises(_Down) as raised:
        DynamicConsolidation().plan(context)
    assert raised.value is failure
    assert capfd.readouterr().err == ""


def test_constraints_naming_no_vm_of_the_plan(either_loop, small_pool):
    """Rules over absent VMs: nothing to ask, each interval validated."""
    context = _constrained(
        _context(small_pool), [AntiColocate("absent0", "absent1")]
    )
    _assert_matches_reference(context)
    _assert_schedules_identical(
        DynamicConsolidation().plan(_context(small_pool)),
        DynamicConsolidation().plan(context),
    )


def _feasible_calls(monkeypatch, context):
    """Every ``ConstraintSet.feasible`` call of one dynamic plan."""
    calls = []
    feasible = ConstraintSet.feasible

    def recorded(self, vm_id, host, assignment, datacenter):
        calls.append((vm_id, host.host_id, dict(assignment)))
        return feasible(self, vm_id, host, assignment, datacenter)

    with monkeypatch.context() as patch:
        patch.setattr(ConstraintSet, "feasible", recorded)
        DynamicConsolidation().plan(context)
    return calls


@pytest.fixture
def engagement_context(small_pool):
    return _constrained(
        _context(small_pool, n_vms=20, seed=7),
        _engagement_constraints(small_pool),
    )


@pytest.fixture
def python_loop_calls(monkeypatch, engagement_context):
    """The engagement plan's constraint calls on the Python loop."""
    with monkeypatch.context() as patch:
        patch.setattr(interval_kernel._KERNEL, "library", None)
        patch.setattr(interval_kernel._KERNEL, "reason", "off for a test")
        return _feasible_calls(monkeypatch, engagement_context)


def test_feasible_calls_agree(
    python_loop_calls, either_loop, monkeypatch, engagement_context
):
    """Each loop asks the constraints the same questions, in order,
    against the same assignments of the constrained VMs."""
    calls = _feasible_calls(monkeypatch, engagement_context)
    assert calls == python_loop_calls
    constrained = {f"vm{index}" for index in range(8)}
    assert calls and {vm_id for vm_id, _, _ in calls} <= constrained


class _Settings:
    """What the loops read of an algorithm: one sweep, no cost gate."""

    max_vacate_sweeps = 1
    consider_migration_cost = False

    def _cached_cost(self, memory_gb: float) -> float:
        raise AssertionError("the cost gate is off")


def _loop(kind, hosts, table, bound):
    """A loop of ``kind`` over bare hosts and one demand table."""
    host_arrays = _HostArrays(hosts, bound)
    id_rank = id_ranks(table.vm_ids)
    if kind == "python":
        return PythonLoop(_Settings(), host_arrays, 2, table, id_rank)
    return interval_kernel.KernelLoop(
        interval_kernel.load(), _Settings(), host_arrays, 2, table, id_rank
    )


def test_commit_misfit_error_text(either_loop):
    """The search admits a move its re-checked commit refuses.

    h1's three rows go to h0 holding ``b``: the search checks the third
    against ``(b + (d1 + d2)) + d3``, the commit against the append fold
    ``((b + d1) + d2) + d3``, one ulp above h0's admission limit.
    """
    b, d1, d2, d3 = (
        0.6014485967658119, 0.07925370537026818,
        0.06929331294224514, 0.067545524438509,
    )
    hosts = [
        PhysicalServer("h0", ServerSpec(0.8175411385168342, 1.0)),
        PhysicalServer("h1", ServerSpec(0.5, 1.0)),
    ]
    zeros = np.zeros((4, 1))
    table = DemandTable(
        vm_ids=("vm0", "vm1", "vm2", "vm3"),
        cpu_rpe2=np.array([[b], [d1], [d2], [d3]]),
        memory_gb=zeros,
        network_mbps=zeros,
        disk_mbps=zeros,
    )
    loop = _loop(either_loop, hosts, table, 1.0)
    loop.seed(np.array([0, 1, 1, 1]))
    with pytest.raises(PlacementError) as misfit:
        loop.interval(0)
    assert str(misfit.value) == "vm3 does not fit on h0"


class TestSelfCheck:
    def test_instance_takes_every_branch(self, kernel_loop):
        hosts, table, seeds, constraints = interval_kernel._check_instance()
        costs = interval_kernel._CheckCosts()
        checked = interval_kernel._CheckRules(constraints)
        loop = interval_kernel.KernelLoop(
            interval_kernel.load(), costs, _HostArrays(hosts, 0.8), 2,
            table, id_ranks(table.vm_ids),
            _Rules(checked, Datacenter("check", hosts), table.vm_ids, hosts),
        )
        for interval in range(table.n_columns):
            loop.interval(interval)
            if interval in seeds:
                loop.seed(seeds[interval])
        stats = dict(zip(interval_kernel.STATS, loop.stats.tolist()))
        assert all(stats.values()), stats
        assert stats["validated"] == table.n_columns
        assert costs.asked
        validations = [call for call in checked.asked if call[0] == "validate"]
        assert len(validations) == table.n_columns
        assert len(checked.asked) > len(validations)

    def test_check_stays_out_of_traced_constraint_calls(
        self, kernel_loop, monkeypatch
    ):
        """The benchmark tracer wraps ``ConstraintSet.feasible`` and
        ``validate``; a pool worker's self-check must not add to them."""

        def traced(*args):
            raise AssertionError("the self-check called a traced method")

        monkeypatch.setattr(ConstraintSet, "feasible", traced)
        monkeypatch.setattr(ConstraintSet, "validate", traced)
        assert interval_kernel._self_check(interval_kernel.load())

    @needs_compiler
    @pytest.mark.parametrize("wrong", ["order", "host"])
    def test_wrong_kernel_result_is_rejected(self, monkeypatch, wrong):
        planned = interval_kernel.KernelLoop.interval

        def tampered(self, interval):
            order, host_of_row = planned(self, interval)
            changed = order if wrong == "order" else host_of_row
            changed[[0, 1]] = changed[[1, 0]]
            return order, host_of_row

        monkeypatch.setattr(interval_kernel.KernelLoop, "interval", tampered)
        monkeypatch.setattr(interval_kernel._KERNEL, "library", None)
        monkeypatch.setattr(interval_kernel._KERNEL, "reason", None)
        assert interval_kernel.load() is None
        assert why_off("interval") == (
            "self-check against the Python code failed"
        )


def _fallback_plans():
    """One paper-scale datacenter's dynamic plans: 348 VMs, 168 intervals,
    without constraints and under the planning engagement's kinds."""
    settings = ExperimentSettings(scale=0.25)
    traces = generate_datacenter("natural-resources", scale=0.25, seed=1)
    context = ConsolidationPlanner(
        traces=traces,
        datacenter=settings.build_pool(traces),
        config=settings.planning_config(),
    ).context
    vm_ids = traces.vm_ids
    constrained = _constrained(
        context,
        [
            AntiColocate(vm_ids[0], vm_ids[1]),
            AntiColocate(vm_ids[2], vm_ids[3]),
            PinToHost(vm_ids[4], context.datacenter.hosts[0].host_id),
            SameSubnet(vm_ids[5], vm_ids[6], vm_ids[7]),
        ],
    )
    return {
        name: np.stack([
            np.stack([s.placement.rows, s.placement.hosts])
            for s in DynamicConsolidation().plan(planned)
        ])
        for name, planned in (
            ("unconstrained", context), ("constrained", constrained)
        )
    }


#: Plans ``_fallback_plans()`` in a fresh interpreter; argv: out.
_FALLBACK_CHILD = """
import json
import sys

import numpy as np

from repro.core import interval_kernel
from repro.native import why_off
from tests.core.test_interval_kernel import _fallback_plans

np.savez(sys.argv[1], **_fallback_plans())
print(json.dumps({
    "kernel": interval_kernel.load() is not None,
    "reason": why_off("interval"),
}))
"""


def test_fresh_process_without_a_compiler_plans_the_same(
    tmp_path, kernel_loop
):
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repo / "src"), str(repo), env.get("PYTHONPATH")])
    )
    (tmp_path / "bin").mkdir()
    env["PATH"] = str(tmp_path / "bin")  # no gcc, no cc
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    out = tmp_path / "schedules.npz"
    result = subprocess.run(
        [sys.executable, "-c", _FALLBACK_CHILD, str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "kernel": False,
        "reason": "no C compiler (gcc or cc) on PATH",
    }
    fallback = np.load(out)
    planned = _fallback_plans()
    assert sorted(fallback.files) == sorted(planned)
    for name, schedule in planned.items():
        np.testing.assert_array_equal(fallback[name], schedule)
