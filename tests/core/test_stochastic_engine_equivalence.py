"""Stochastic (PCP) planner == the test-side reference, bit for bit.

``StochasticConsolidation`` keeps running per-host reservation state;
the reference in ``tests/reference/stochastic.py`` sizes trace by trace,
clusters with the one-similarity-at-a-time scan and recomputes every
candidate's reservation from its member list.  Both must make exactly
the same placement across overlap factors, I/O models, workload
textures and constraints.  The library's peak clustering has the same
contract against the reference scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.correlation import cluster_by_peaks
from repro.constraints import (
    AntiColocate,
    Colocate,
    ConstraintSet,
    PinToHost,
    SameRack,
)
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.stochastic import StochasticConsolidation
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace
from tests.reference.correlation import cluster_by_peaks_reference
from tests.reference.stochastic import place_reference


def _context(small_pool, *, n_vms=16, days=3, config=None, seed=9):
    """Servers with clustered peak phases: PCP's intended input."""
    rng = np.random.default_rng(seed)
    hours = days * 24
    history, evaluation = [], []
    for i in range(n_vms):
        util = np.full(hours, 0.06) + rng.uniform(0.0, 0.04, hours)
        phase = (i % 3) * 8
        for day in range(days):
            start = day * 24 + phase
            util[start:start + 6] += rng.uniform(0.25, 0.55)
        memory = np.full(hours, 0.8 + 0.05 * i) + rng.uniform(0, 0.3, hours)
        for ts in (history, evaluation):
            ts.append(
                make_server_trace(
                    f"vm{i}", np.clip(util, 0, 1), memory, cpu_rpe2=4000.0
                )
            )
    return PlanningContext(
        history=TraceSet("h", history),
        evaluation=TraceSet("e", evaluation),
        datacenter=small_pool,
        config=config or PlanningConfig(),
    )


def _assert_plans_identical(small_pool, context, **kwargs):
    algorithm = StochasticConsolidation(**kwargs)
    schedule = algorithm.plan(context)
    assert len(schedule) == 1
    reference = place_reference(algorithm, context)
    assert schedule.segments[0].placement.assignment == reference.assignment


@pytest.mark.parametrize("overlap", [0.0, 0.55, 1.0])
def test_engines_agree_across_overlap_factors(small_pool, overlap) -> None:
    context = _context(small_pool)
    _assert_plans_identical(
        small_pool, context, tail_overlap_factor=overlap
    )


def test_engines_agree_with_io_models(small_pool) -> None:
    config = PlanningConfig(
        network=NetworkDemandModel(), disk=DiskDemandModel()
    )
    context = _context(small_pool, config=config)
    _assert_plans_identical(small_pool, context)


def test_engines_agree_on_generated_texture(
    small_pool, generated_trace_set
) -> None:
    hours = generated_trace_set.n_points
    context = PlanningContext(
        history=generated_trace_set.window(0, hours // 2),
        evaluation=generated_trace_set.window(hours // 2, hours),
        datacenter=small_pool,
        config=PlanningConfig(),
    )
    _assert_plans_identical(small_pool, context)


def test_engines_agree_under_tight_bound(small_pool) -> None:
    context = _context(small_pool, n_vms=20, seed=13)
    _assert_plans_identical(
        small_pool, context, utilization_bound=0.7, body_percentile=95.0
    )


def test_constraints_agree(small_pool) -> None:
    context = _context(small_pool, n_vms=20, seed=13)
    constrained = PlanningContext(
        history=context.history,
        evaluation=context.evaluation,
        datacenter=context.datacenter,
        constraints=ConstraintSet(
            [
                AntiColocate("vm0", "vm1", "vm2"),
                Colocate("vm3", "vm4"),
                PinToHost("vm5", small_pool.hosts[6].host_id),
                SameRack("vm6", "vm7"),
            ]
        ),
        config=context.config,
    )
    _assert_plans_identical(small_pool, constrained)
    placement = StochasticConsolidation().plan(constrained).segments[0].placement
    assert not constrained.constraints.violations(
        placement.assignment, small_pool
    )


def test_unknown_engine_rejected(small_pool) -> None:
    """There is one PCP engine: no ``engine`` option is accepted."""
    with pytest.raises(TypeError):
        StochasticConsolidation(engine="array")


# ----------------------------------------------------------------------
# Peak clustering: matrix Jaccard scan == reference envelope_similarity scan.


@pytest.mark.parametrize("threshold", [0.1, 0.25, 0.6, 1.0])
def test_cluster_engines_agree(small_pool, threshold) -> None:
    context = _context(small_pool, n_vms=24, seed=17)
    reference = cluster_by_peaks_reference(
        context.history, similarity_threshold=threshold
    )
    library = cluster_by_peaks(
        context.history, similarity_threshold=threshold
    )
    assert reference == library


def test_cluster_engines_agree_on_flat_envelopes() -> None:
    """Flat series make empty envelopes (union == 0): both scans 0.0."""
    traces = TraceSet(
        "flat",
        [
            make_server_trace(f"vm{i}", np.full(48, 0.2), np.full(48, 1.0))
            for i in range(6)
        ],
    )
    assert cluster_by_peaks_reference(traces) == cluster_by_peaks(traces)


def test_cluster_unknown_engine_rejected(flat_trace_set) -> None:
    """There is one clustering scan: no ``engine`` option is accepted."""
    with pytest.raises(TypeError):
        cluster_by_peaks(flat_trace_set, engine="scalar")
