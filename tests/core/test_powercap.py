"""Tests for BrownMap-style power-budgeted consolidation."""

import numpy as np
import pytest

from repro.constraints import ConstraintSet, ExcludeHosts, SameRack
from repro.core import (
    ConsolidationPlanner,
    DynamicConsolidation,
    PowerBudgetedConsolidation,
)
from repro.core.base import PlanningContext
from repro.exceptions import ConfigurationError
from repro.infrastructure import build_target_pool
from repro.workloads import generate_datacenter
from tests.reference.powercap import ReferencePowerBudget


@pytest.fixture(scope="module")
def planner():
    traces = generate_datacenter("banking", scale=0.06)
    pool = build_target_pool("p", host_count=30)
    return ConsolidationPlanner(traces=traces, datacenter=pool)


@pytest.fixture(scope="module")
def unconstrained(planner):
    return planner.run(DynamicConsolidation())


class TestPowerBudget:
    def test_infinite_budget_matches_dynamic(self, planner, unconstrained):
        capped = planner.run(
            PowerBudgetedConsolidation(budget_watts=float("inf"))
        )
        assert capped.provisioned_servers == unconstrained.provisioned_servers
        assert capped.energy_kwh == pytest.approx(
            unconstrained.energy_kwh, rel=1e-9
        )

    def test_budget_reduces_peak_power(self, planner, unconstrained):
        peak = unconstrained.power_watts.sum(axis=0).max()
        algo = PowerBudgetedConsolidation(budget_watts=peak * 0.7)
        capped = planner.run(algo)
        assert capped.power_watts.sum(axis=0).max() < peak

    def test_budget_forces_extra_migrations(self, planner, unconstrained):
        peak = unconstrained.power_watts.sum(axis=0).max()
        capped = planner.run(
            PowerBudgetedConsolidation(budget_watts=peak * 0.7)
        )
        assert capped.total_migrations() >= unconstrained.total_migrations()

    def test_overshoot_reported(self, planner, unconstrained):
        # An absurdly low budget cannot be met: every interval reports
        # its residual overshoot instead of failing.
        algo = PowerBudgetedConsolidation(budget_watts=1.0)
        result = planner.run(algo)
        assert len(algo.overshoot_watts) == len(result.schedule)
        assert all(o > 0 for o in algo.overshoot_watts)

    def test_all_vms_still_placed(self, planner, unconstrained):
        peak = unconstrained.power_watts.sum(axis=0).max()
        capped = planner.run(
            PowerBudgetedConsolidation(budget_watts=peak * 0.6)
        )
        for segment in capped.schedule:
            assert len(segment.placement) == len(
                planner.context.evaluation.vm_ids
            )

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            PowerBudgetedConsolidation(budget_watts=0.0)


@pytest.fixture(scope="module")
def constrained_context(planner):
    """The banking fleet with an exclusion and a rack-affinity rule.

    The exclusion keeps the budget from shedding onto hosts 1 and 2
    whenever the first VM would have to move there.
    """
    context = planner.context
    vm_ids = sorted(context.evaluation.vm_ids)
    hosts = context.datacenter.hosts
    return PlanningContext(
        history=context.history,
        evaluation=context.evaluation,
        datacenter=context.datacenter,
        constraints=ConstraintSet(
            [
                ExcludeHosts(vm_ids[0], [hosts[1].host_id, hosts[2].host_id]),
                SameRack(*vm_ids[3:6]),
            ]
        ),
        config=context.config,
    )


class TestReferenceHook:
    """The budget hook sheds exactly what the ``Bin``-based one sheds.

    Both sides run the same planner; only the hook differs.  Budgets
    from 0.5 to 0.85 of the unbudgeted peak force-vacate hosts in many
    intervals, and 1 W vacates until nothing more fits.
    """

    @pytest.mark.parametrize("fraction", [0.5, 0.6, 0.7, 0.85, None])
    @pytest.mark.parametrize("constrained", [False, True])
    def test_schedules_and_overshoot_match(
        self, planner, unconstrained, constrained_context, fraction,
        constrained,
    ):
        peak = unconstrained.power_watts.sum(axis=0).max()
        budget = 1.0 if fraction is None else peak * fraction
        context = constrained_context if constrained else planner.context
        library = PowerBudgetedConsolidation(budget_watts=budget)
        reference = ReferencePowerBudget(budget_watts=budget)
        schedule = library.plan(context)
        expected = reference.plan(context)
        assert [s.placement.assignment for s in schedule] == [
            s.placement.assignment for s in expected
        ]
        assert library.overshoot_watts == reference.overshoot_watts
        # Binding: the budget moves VMs the plain planner leaves alone.
        plain = DynamicConsolidation().plan(context)
        assert any(
            left.placement.assignment != right.placement.assignment
            for left, right in zip(schedule, plain)
        )


class _RecordingBudget(PowerBudgetedConsolidation):
    """Records whether each interval's hook returned its own input."""

    def _finish_interval(self, placement, table, column, context):
        result = super()._finish_interval(placement, table, column, context)
        self.kept.append(result is placement)
        return result


def test_never_binding_budget_returns_the_placement_itself(
    planner, unconstrained
):
    """A budget above every interval's estimate changes nothing: the hook
    hands back the very placement it was given, with no overshoot."""
    peak = unconstrained.power_watts.sum(axis=0).max()
    algorithm = _RecordingBudget(budget_watts=peak * 10)
    algorithm.kept = []
    schedule = algorithm.plan(planner.context)
    assert algorithm.kept and all(algorithm.kept)
    assert algorithm.overshoot_watts == [0.0] * len(schedule)
    plain = DynamicConsolidation().plan(planner.context)
    assert [s.placement.assignment for s in schedule] == [
        s.placement.assignment for s in plain
    ]
