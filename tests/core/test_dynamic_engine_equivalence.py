"""Dynamic planner == the scalar reference planner, schedule for schedule.

``DynamicConsolidation.plan`` (the columnar planner in
``repro.core.dynamic_vector``) must reproduce every placement decision
of the per-VM reference in ``tests/reference/dynamic.py`` — same
assignments in every interval, hence the same migrations, host counts,
and downstream figures.  Covered across predictors, I/O sizing models,
the migration cost gate (off, on, and binding), generated workload
texture, a many-host pool, every deployment constraint class, and a
binding power budget.  Unconstrained plans run on the compiled interval
loop wherever it builds; :class:`TestPythonLoop` runs those cases again
on the Python loop, which constrained plans and machines without a C
compiler use.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constraints import (
    AntiColocate,
    Colocate,
    ConstraintSet,
    ExcludeHosts,
    PinToHost,
    PinToRack,
    PinToSubnet,
    SameRack,
    SameSubnet,
)
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import ConsolidationPlanner
from repro.core.powercap import PowerBudgetedConsolidation
from repro.exceptions import PlacementError
from repro.experiments.settings import ExperimentSettings
from repro.migration.cost import MigrationCostModel
from repro.placement.plan import Placement
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.sizing.prediction import (
    EwmaPredictor,
    LastIntervalPredictor,
    OraclePredictor,
    PeriodicPeakPredictor,
)
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace
from tests.reference.dynamic import plan_reference
from tests.reference.powercap import ReferencePowerBudget


def _context(small_pool, *, n_vms=14, days=4, config=None, seed=5):
    """Diurnal + noisy VMs so repack/vacate decisions actually trigger."""
    rng = np.random.default_rng(seed)
    hours = days * 24
    history, evaluation = [], []
    for i in range(n_vms):
        util = np.full(hours, 0.05) + rng.uniform(0.0, 0.03, hours)
        for day in range(days):
            start = day * 24 + 8
            util[start:start + 10] += rng.uniform(0.3, 0.6)
        memory = np.full(hours, 1.0 + 0.02 * i) + rng.uniform(0, 0.2, hours)
        for ts, jitter in ((history, 0.0), (evaluation, 0.01)):
            ts.append(
                make_server_trace(
                    f"vm{i}", np.clip(util + jitter, 0, 1), memory,
                    cpu_rpe2=4000.0,
                )
            )
    return PlanningContext(
        history=TraceSet("h", history),
        evaluation=TraceSet("e", evaluation),
        datacenter=small_pool,
        config=config or PlanningConfig(),
    )


def _assert_schedules_identical(reference, library):
    """Equal mappings, listed in the same order: FFD order, constrained
    VMs first (the emulator folds each host's demand in that order)."""
    assert len(reference) == len(library)
    for left, right in zip(reference.segments, library.segments):
        assert list(left.placement.assignment.items()) == list(
            right.placement.assignment.items()
        )


def _assert_matches_reference(context, **kwargs):
    _assert_schedules_identical(
        plan_reference(DynamicConsolidation(**kwargs), context),
        DynamicConsolidation(**kwargs).plan(context),
    )


@pytest.mark.parametrize(
    "predictor",
    [
        PeriodicPeakPredictor(),
        LastIntervalPredictor(),
        EwmaPredictor(),
        OraclePredictor(),
    ],
    ids=lambda p: type(p).__name__,
)
def test_engines_agree_across_predictors(small_pool, predictor) -> None:
    context = _context(small_pool)
    kwargs = {"predictor": predictor}
    if isinstance(predictor, OraclePredictor):
        kwargs["cpu_burst_factor"] = 1.0
    _assert_matches_reference(context, **kwargs)


def test_engines_agree_with_io_models(small_pool) -> None:
    config = PlanningConfig(
        network=NetworkDemandModel(), disk=DiskDemandModel()
    )
    context = _context(small_pool, config=config)
    _assert_matches_reference(context)


@pytest.mark.parametrize("consider_cost", [False, True])
def test_engines_agree_with_cost_gate(small_pool, consider_cost) -> None:
    context = _context(small_pool, seed=11)
    _assert_matches_reference(
        context, consider_migration_cost=consider_cost
    )


def test_engines_agree_with_binding_cost_gate(small_pool) -> None:
    """A gate that refuses some vacates the gate-off plan commits."""
    context = _context(small_pool, seed=11)
    # About 55 Wh per 1.2 GB VM against 320 Wh of idle power per
    # interval: vacating a host of six or more VMs does not pay.
    costly = MigrationCostModel(sla_cost_per_second=4.0)
    gated = DynamicConsolidation(migration_cost=costly).plan(context)
    free = DynamicConsolidation(consider_migration_cost=False).plan(context)
    assert any(
        left.placement.assignment != right.placement.assignment
        for left, right in zip(gated, free)
    )
    _assert_matches_reference(context, migration_cost=costly)


@pytest.mark.parametrize(
    "scale, days, evaluation_days", [(0.25, 20, 7), (0.5, 10, 3)]
)
def test_many_bins_agree(scale, days, evaluation_days) -> None:
    """A pool section 5 would build: dozens of active hosts per interval.

    348 VMs on HS23 blades keep 25-28 hosts active, many with tied
    residuals; 695 VMs keep 50-56.  Vacate sweeps run long candidate
    lists and commit often, and each commit must re-sort the
    fullest-first order: the larger fleet's schedule changes if a
    commit only drops the emptied host from the old order.
    """
    settings = ExperimentSettings(scale=scale)
    traces = generate_datacenter("natural-resources", scale=scale, days=days)
    context = ConsolidationPlanner(
        traces=traces,
        datacenter=settings.build_pool(traces),
        config=settings.planning_config(),
        evaluation_days=evaluation_days,
    ).context
    schedule = DynamicConsolidation().plan(context)
    assert min(s.placement.active_host_count for s in schedule) >= 20
    _assert_schedules_identical(
        plan_reference(DynamicConsolidation(), context), schedule
    )


def test_auto_equals_scalar_reference(small_pool) -> None:
    """The default-configured planner is pinned to the reference."""
    _assert_matches_reference(_context(small_pool, seed=23))


def test_generated_texture_agrees(small_pool, generated_trace_set) -> None:
    hours = generated_trace_set.n_points
    context = PlanningContext(
        history=generated_trace_set.window(0, hours // 3),
        evaluation=generated_trace_set.window(hours // 3, hours),
        datacenter=small_pool,
        config=PlanningConfig(),
    )
    _assert_matches_reference(context)


def test_unknown_engine_rejected() -> None:
    """There is one dynamic planner: no ``engine`` option is accepted."""
    with pytest.raises(TypeError):
        DynamicConsolidation(engine="array")


# ----------------------------------------------------------------------
# Deployment constraints and the power-budget hook.


def _constrained(context, constraints):
    return PlanningContext(
        history=context.history,
        evaluation=context.evaluation,
        datacenter=context.datacenter,
        constraints=ConstraintSet(constraints),
        config=context.config,
    )


def _second_rack_host(pool):
    """A host outside the first rack: cold iron the planner avoids."""
    first_rack = pool.hosts[0].rack
    return next(h for h in pool.hosts if h.rack != first_rack)


#: One case per constraint class; the unconstrained plan of the
#: 30-VM context breaks each of them (it spills into the second rack).
CONSTRAINT_CASES = {
    "Colocate": lambda pool: [Colocate("vm0", "vm5", "vm9")],
    "AntiColocate": lambda pool: [AntiColocate("vm0", "vm1", "vm2", "vm3")],
    "PinToHost": lambda pool: [
        PinToHost("vm4", _second_rack_host(pool).host_id),
        PinToHost("vm2", pool.hosts[3].host_id),
    ],
    "ExcludeHosts": lambda pool: [
        ExcludeHosts("vm0", [pool.hosts[0].host_id, pool.hosts[1].host_id]),
        ExcludeHosts("vm3", [pool.hosts[0].host_id]),
    ],
    "SameRack": lambda pool: [SameRack("vm0", "vm7", "vm9", "vm11")],
    "SameSubnet": lambda pool: [SameSubnet("vm1", "vm6", "vm17")],
    "PinToRack": lambda pool: [
        PinToRack("vm3", _second_rack_host(pool).rack),
        PinToRack("vm8", _second_rack_host(pool).rack),
    ],
    "PinToSubnet": lambda pool: [
        PinToSubnet("vm6", _second_rack_host(pool).subnet),
    ],
}


@pytest.mark.parametrize("consider_cost", [False, True])
@pytest.mark.parametrize("kind", sorted(CONSTRAINT_CASES))
def test_constraint_class_agrees(small_pool, kind, consider_cost) -> None:
    unconstrained = _context(small_pool, n_vms=30)
    context = _constrained(unconstrained, CONSTRAINT_CASES[kind](small_pool))
    _assert_matches_reference(
        context, consider_migration_cost=consider_cost
    )

    def violated(schedule):
        return [
            index
            for index, segment in enumerate(schedule)
            if context.constraints.violations(
                segment.placement.assignment, small_pool
            )
        ]

    algorithm = DynamicConsolidation(consider_migration_cost=consider_cost)
    assert violated(algorithm.plan(unconstrained))
    assert not violated(algorithm.plan(context))


def test_engagement_constraint_set_agrees(small_pool) -> None:
    """The planning engagement's four constraints, together."""
    pin = _second_rack_host(small_pool).host_id
    context = _constrained(
        _context(small_pool, n_vms=20, seed=7),
        [
            AntiColocate("vm0", "vm1"),
            AntiColocate("vm2", "vm3"),
            PinToHost("vm4", pin),
            SameSubnet("vm5", "vm6", "vm7"),
        ],
    )
    _assert_matches_reference(context)


class _ColocatingHook(DynamicConsolidation):
    """A hook that ignores constraints: it moves vm1 onto vm0's host."""

    def _finish_interval(self, placement, table, column, context):
        assignment = dict(placement.assignment)
        assignment["vm1"] = assignment["vm0"]
        return Placement(assignment=assignment)


def test_hook_seeded_hints_are_rechecked(small_pool) -> None:
    """A preferred host the hook handed over must still pass the constraints."""
    context = _constrained(_context(small_pool), [AntiColocate("vm0", "vm1")])
    _assert_schedules_identical(
        plan_reference(_ColocatingHook(), context),
        _ColocatingHook().plan(context),
    )


@pytest.mark.parametrize("constrained", [False, True])
def test_binding_power_budget_agrees(small_pool, constrained) -> None:
    """The power-budget hook sheds hosts identically, with equal overshoot."""
    context = _context(small_pool, n_vms=30)
    if constrained:
        context = _constrained(
            context, [AntiColocate("vm0", "vm1", "vm2"), SameRack("vm3", "vm4")]
        )
    library = PowerBudgetedConsolidation(budget_watts=600.0)
    reference = PowerBudgetedConsolidation(budget_watts=600.0)
    schedule = library.plan(context)
    _assert_schedules_identical(plan_reference(reference, context), schedule)
    assert library.overshoot_watts == reference.overshoot_watts
    # Binding: some intervals shed hosts, others still overshoot.
    assert any(o > 0 for o in library.overshoot_watts)
    unbudgeted = DynamicConsolidation().plan(context)
    assert np.mean(
        [s.placement.active_host_count for s in schedule]
    ) < np.mean([s.placement.active_host_count for s in unbudgeted])


@pytest.mark.parametrize("budget_watts", [600.0, 1200.0, 1800.0, 1.0])
@pytest.mark.parametrize("constrained", [False, True])
def test_power_budget_matches_reference_hook(
    small_pool, constrained, budget_watts
) -> None:
    """The library hook against the ``Bin``-based one, end to end.

    The reference side plans with the scalar planner and enforces the
    budget with ``tests/reference/powercap.py``, so a change to the
    library's hook cannot hide behind a shared implementation.
    """
    context = _context(small_pool, n_vms=30)
    if constrained:
        context = _constrained(
            context, [AntiColocate("vm0", "vm1", "vm2"), SameRack("vm3", "vm4")]
        )
    library = PowerBudgetedConsolidation(budget_watts=budget_watts)
    reference = ReferencePowerBudget(budget_watts=budget_watts)
    _assert_schedules_identical(
        plan_reference(reference, context), library.plan(context)
    )
    assert library.overshoot_watts == reference.overshoot_watts


@pytest.mark.parametrize(
    "constraints",
    [
        lambda pool: [Colocate("vm0", "vm1"), AntiColocate("vm0", "vm1")],
        lambda pool: [
            PinToHost("vm2", pool.hosts[1].host_id),
            ExcludeHosts("vm2", [pool.hosts[1].host_id]),
        ],
    ],
    ids=["colocate-and-anti", "pin-and-exclude"],
)
def test_unsatisfiable_constraints_raise_like_reference(
    small_pool, constraints
) -> None:
    context = _constrained(
        _context(small_pool, days=2), constraints(small_pool)
    )
    with pytest.raises(PlacementError) as library:
        DynamicConsolidation().plan(context)
    with pytest.raises(PlacementError) as reference:
        plan_reference(DynamicConsolidation(), context)
    assert type(library.value) is type(reference.value)


@pytest.mark.usefixtures("python_loop")
class TestPythonLoop:
    """The unconstrained cases again, with the interval kernel off."""

    test_engines_agree_across_predictors = staticmethod(
        test_engines_agree_across_predictors
    )
    test_engines_agree_with_io_models = staticmethod(
        test_engines_agree_with_io_models
    )
    test_engines_agree_with_cost_gate = staticmethod(
        test_engines_agree_with_cost_gate
    )
    test_engines_agree_with_binding_cost_gate = staticmethod(
        test_engines_agree_with_binding_cost_gate
    )
    test_many_bins_agree = staticmethod(test_many_bins_agree)
    test_auto_equals_scalar_reference = staticmethod(
        test_auto_equals_scalar_reference
    )
    test_generated_texture_agrees = staticmethod(
        test_generated_texture_agrees
    )
    test_binding_power_budget_agrees = staticmethod(
        test_binding_power_budget_agrees
    )
    test_power_budget_matches_reference_hook = staticmethod(
        test_power_budget_matches_reference_hook
    )
