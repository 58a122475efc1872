"""Tests for PCP-style stochastic consolidation."""

import numpy as np
import pytest

from repro.analysis.correlation import PeakClusters
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.stochastic import StochasticConsolidation
from repro.constraints.affinity import AntiColocate
from repro.constraints.manager import ConstraintSet
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.vm import VMDemand
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _bursty_context(small_pool, n_vms=24, hours=96, seed=0):
    """VMs with alternating peak phases: ideal PCP material."""
    rng = np.random.default_rng(seed)
    history, evaluation = [], []
    for i in range(n_vms):
        util = np.full(hours, 0.05) + rng.random(hours) * 0.02
        # Phase-offset peaks: group 0 peaks in even slots, group 1 odd.
        for t in range(i % 2 * 6, hours, 12):
            util[t] = 0.9
        memory = np.full(hours, 1.0)
        for ts, vm_id in ((history, f"vm{i}"), (evaluation, f"vm{i}")):
            ts.append(
                make_server_trace(
                    vm_id, util, memory, cpu_rpe2=4000.0
                )
            )
    return PlanningContext(
        history=TraceSet("h", history),
        evaluation=TraceSet("e", evaluation),
        datacenter=small_pool,
    )


class TestStochasticConsolidation:
    def test_uses_fewer_hosts_than_vanilla(self, small_pool):
        context = _bursty_context(small_pool)
        vanilla = SemiStaticConsolidation().plan(context)
        stochastic = StochasticConsolidation().plan(context)
        assert (
            stochastic.segments[0].placement.active_host_count
            <= vanilla.segments[0].placement.active_host_count
        )

    def test_all_vms_placed(self, small_pool):
        context = _bursty_context(small_pool)
        placement = StochasticConsolidation().plan(context).segments[0].placement
        assert len(placement) == 24

    def test_overlap_factor_one_matches_max_sizing_budget(self, small_pool):
        # With full overlap, body+tail per VM is reserved: the host
        # count cannot beat vanilla's (same totals, same heuristic family).
        context = _bursty_context(small_pool)
        conservative = StochasticConsolidation(tail_overlap_factor=1.0)
        vanilla = SemiStaticConsolidation().plan(context)
        plan = conservative.plan(context)
        assert (
            plan.segments[0].placement.active_host_count
            >= vanilla.segments[0].placement.active_host_count - 1
        )

    def test_lower_overlap_packs_tighter(self, small_pool):
        context = _bursty_context(small_pool)
        tight = StochasticConsolidation(tail_overlap_factor=0.0).plan(context)
        loose = StochasticConsolidation(tail_overlap_factor=1.0).plan(context)
        assert (
            tight.segments[0].placement.active_host_count
            <= loose.segments[0].placement.active_host_count
        )

    def test_respects_constraints(self, small_pool):
        context = _bursty_context(small_pool)
        constrained = PlanningContext(
            history=context.history,
            evaluation=context.evaluation,
            datacenter=small_pool,
            constraints=ConstraintSet([AntiColocate("vm0", "vm1")]),
        )
        placement = (
            StochasticConsolidation()
            .plan(constrained)
            .segments[0]
            .placement
        )
        assert placement.host_of("vm0") != placement.host_of("vm1")

    def test_single_static_segment(self, small_pool):
        context = _bursty_context(small_pool)
        schedule = StochasticConsolidation().plan(context)
        assert len(schedule) == 1
        assert schedule.total_migrations() == 0


class TestPlacementErrors:
    def test_vm_that_fits_nowhere_is_named(self, small_pool, tiny_pool):
        context = _bursty_context(small_pool)
        cramped = PlanningContext(
            history=context.history,
            evaluation=context.evaluation,
            datacenter=tiny_pool,  # 1000 RPE2 hosts; peaks reach 3600
        )
        with pytest.raises(
            PlacementError,
            match=(
                r"^VM vm\d+ fits on no host "
                r"\(body cpu=\d+, tail cpu=\d+\)$"
            ),
        ):
            StochasticConsolidation().plan(cramped)

    def test_error_text_reports_body_and_tail(self, tiny_pool):
        demands = [
            VMDemand("small", 100.0, 1.0, tail_cpu_rpe2=50.0),
            VMDemand("burst", 700.4, 1.0, tail_cpu_rpe2=299.7),
        ]
        clusters = PeakClusters(vm_ids=("small", "burst"), cluster_of=(0, 0))
        algorithm = StochasticConsolidation(utilization_bound=0.9)
        with pytest.raises(PlacementError) as raised:
            algorithm._pack(demands, clusters, tiny_pool, ConstraintSet())
        assert str(raised.value) == (
            "VM burst fits on no host (body cpu=700, tail cpu=300)"
        )

    def test_empty_pool(self, small_pool):
        context = _bursty_context(small_pool)
        empty = PlanningContext(
            history=context.history,
            evaluation=context.evaluation,
            datacenter=Datacenter(name="empty"),
        )
        with pytest.raises(PlacementError, match="^no hosts to pack onto$"):
            StochasticConsolidation().plan(empty)


class TestConfiguration:
    @pytest.mark.parametrize("bound", [0.0, -0.5, 1.5, float("nan")])
    def test_utilization_bound_must_be_a_fraction(self, bound):
        # Above 1 the cluster bins would overcommit every host silently;
        # at 0 every VM would fail with a misleading "fits on no host".
        with pytest.raises(ConfigurationError, match="utilization_bound"):
            StochasticConsolidation(utilization_bound=bound)

    @pytest.mark.parametrize("overlap", [-0.1, 1.5, float("nan")])
    def test_tail_overlap_factor_must_be_a_fraction(self, overlap):
        with pytest.raises(ConfigurationError, match="tail_overlap_factor"):
            StochasticConsolidation(tail_overlap_factor=overlap)

    def test_range_ends_accepted(self):
        StochasticConsolidation(utilization_bound=1.0, tail_overlap_factor=0.0)
        StochasticConsolidation(utilization_bound=0.5, tail_overlap_factor=1.0)
