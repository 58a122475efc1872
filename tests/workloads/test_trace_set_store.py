"""A :class:`TraceSet` is one store plus per-row identities.

Pins the single representation: planning reads workload classes from
``TraceSet.identities`` and demand from the store, so no planner,
sharded or not, builds a :class:`ServerTrace`, and neither does the
emulator; a pickled set carries its
demand once, and the rows a loaded set materializes are views of its
store; and a set built from a list of traces answers ``window`` and
``subset`` exactly like a store-first set over the same data.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import ConsolidationPlanner, split_window
from repro.core.powercap import PowerBudgetedConsolidation
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.static import StaticConsolidation
from repro.core.stochastic import StochasticConsolidation
from repro.infrastructure.datacenter import build_target_pool
from repro.runner import ExperimentRunner
from repro.sharding import (
    ShardedConsolidation, chunked_source, run_sharded_plan,
)
from repro.workloads.chunked import write_trace_set
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.trace import ServerTrace, TraceSet

_DAYS = 4
_EVALUATION_DAYS = 2


@pytest.fixture(scope="module")
def banking():
    """Seed-1 banking at scale 0.25: 204 VMs."""
    return generate_datacenter("banking", scale=0.25, days=_DAYS, seed=1)


@pytest.fixture
def built(monkeypatch):
    """Counts every ServerTrace constructed while the test runs."""
    counter = {"traces": 0}
    original = ServerTrace.__post_init__

    def counting(self) -> None:
        counter["traces"] += 1
        original(self)

    monkeypatch.setattr(ServerTrace, "__post_init__", counting)
    return counter


def _context(traces: TraceSet) -> PlanningContext:
    history, evaluation = split_window(traces, _EVALUATION_DAYS)
    return PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=build_target_pool("pool", host_count=len(traces) // 2),
        config=PlanningConfig(),
    )


class TestPlanningBuildsNoTraces:
    @pytest.mark.parametrize(
        "algorithm", [DynamicConsolidation, SemiStaticConsolidation]
    )
    def test_generated_set(self, banking, built, algorithm) -> None:
        assert len(banking) == 204
        schedule = algorithm().plan(_context(banking))
        assert len(schedule) > 0
        assert built["traces"] == 0

    def test_serial_sharded_plan_on_chunked_store(
        self, banking, built, tmp_path
    ) -> None:
        write_trace_set(banking, tmp_path)
        run = run_sharded_plan(
            chunked_source(tmp_path),
            n_shards=3,
            pool_hosts=len(banking) // 2,
            pool_name="no-traces",
            evaluation_days=_EVALUATION_DAYS,
            runner=ExperimentRunner(serial=True, use_cache=False),
        )
        assert run.report.n_shards == 3
        assert built["traces"] == 0


class TestPlannersReadTheStore:
    """Every planner, planned and emulated, with trace objects refused."""

    @pytest.fixture(scope="class")
    def small_banking(self):
        """Seed-1 banking at scale 0.1: 82 VMs on 3 racks of hosts."""
        return generate_datacenter("banking", scale=0.1, days=6, seed=1)

    @pytest.fixture
    def no_trace_objects(self, monkeypatch):
        def refuse(trace_set: TraceSet) -> None:
            raise AssertionError(
                f"trace set {trace_set.name!r} built its ServerTraces"
            )

        monkeypatch.setattr(TraceSet, "traces", property(refuse))

    @pytest.mark.parametrize(
        "make",
        [
            SemiStaticConsolidation,
            StaticConsolidation,
            StochasticConsolidation,
            DynamicConsolidation,
            # A 1 W budget binds in every interval.
            lambda: PowerBudgetedConsolidation(budget_watts=1.0),
            lambda: ShardedConsolidation(n_shards=2),
        ],
        ids=[
            "semi-static", "static", "stochastic", "dynamic",
            "power-budgeted", "sharded",
        ],
    )
    def test_plan_and_emulate(
        self, small_banking, no_trace_objects, make
    ) -> None:
        planner = ConsolidationPlanner(
            traces=small_banking,
            datacenter=build_target_pool(
                "pool", host_count=len(small_banking) // 2
            ),
            evaluation_days=_EVALUATION_DAYS,
        )
        algorithm = make()
        result = planner.run(algorithm)
        assert len(result.schedule.segments[0].placement) == len(
            small_banking
        )
        if isinstance(algorithm, PowerBudgetedConsolidation):
            assert min(algorithm.overshoot_watts) > 0


class TestPickle:
    def test_demand_is_pickled_once(self) -> None:
        # The runner's disk cache stores exactly this pickle for every
        # ``trace-set`` sub-task: the store's three matrices (14.10 MB
        # for this fleet) plus the identities, 14.18 MB in all, and not
        # a second copy of every row inside materialized traces.
        traces = generate_datacenter("banking", scale=1.0, days=30, seed=1)
        store_bytes = sum(
            matrix.nbytes
            for matrix in (
                traces.store.cpu_util,
                traces.store.cpu_rpe2,
                traces.store.memory_gb,
            )
        )
        assert store_bytes == pytest.approx(14.1e6, rel=0.01)
        list(traces)  # materialized traces must not ride along
        assert len(pickle.dumps(traces)) <= 1.05 * 14.18e6

    def test_loaded_rows_are_store_views(self, banking) -> None:
        loaded = pickle.loads(pickle.dumps(banking.window(24, 72)))
        assert loaded.vm_ids == banking.vm_ids
        assert loaded.identities == banking.identities
        np.testing.assert_array_equal(
            loaded.cpu_rpe2_matrix(), banking.store.cpu_rpe2[:, 24:72]
        )
        for row, trace in enumerate(loaded):
            assert np.shares_memory(
                trace.cpu_util.values, loaded.store.cpu_util[row]
            )
            assert np.shares_memory(
                trace.memory_gb.values, loaded.store.memory_gb[row]
            )


class TestConstructor:
    @pytest.fixture
    def pair(self, banking):
        """The same rows as a store-first set and as a list-built set."""
        store_first = banking.subset(banking.vm_ids[:12])
        from_traces = TraceSet(store_first.name, list(store_first))
        return store_first, from_traces

    @staticmethod
    def _assert_same(left: TraceSet, right: TraceSet) -> None:
        assert left.name == right.name
        assert left.vm_ids == right.vm_ids
        assert left.identities == right.identities
        assert left.interval_hours == right.interval_hours
        for name in ("cpu_util", "cpu_rpe2", "memory_gb"):
            assert np.array_equal(
                getattr(left.store, name), getattr(right.store, name)
            ), name

    def test_window_matches_store_first(self, pair) -> None:
        store_first, from_traces = pair
        self._assert_same(
            store_first.window(24, 48), from_traces.window(24, 48)
        )

    def test_subset_matches_store_first(self, pair) -> None:
        store_first, from_traces = pair
        chosen = [store_first.vm_ids[7], store_first.vm_ids[2]]
        self._assert_same(
            store_first.subset(chosen), from_traces.subset(chosen)
        )

    def test_traces_are_views_of_the_store(self, pair) -> None:
        _, from_traces = pair
        trace = from_traces.trace(from_traces.vm_ids[3])
        assert np.shares_memory(
            trace.cpu_util.values, from_traces.store.cpu_util
        )
        assert trace is from_traces.traces[3]
