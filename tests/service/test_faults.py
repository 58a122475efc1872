"""Fault injection: a hostile stream degrades telemetry, never the plan.

The suite throws dropped, duplicated, delayed (out-of-order / late)
samples, raising detectors, and blown deadlines at the controller and
pins the graceful-degradation contract after every cycle:

* the live plan equals its from-scratch canonical rebuild (no
  corruption, ever),
* every VM stays assigned,
* faults show up in counters instead of exceptions,
* one clean cycle after the fault, decisions flow again.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.service.controller import ControllerConfig, MonitoringSample
from repro.service.clock import VirtualClock
from repro.service.detectors import ThresholdOverloadDetector
from repro.service.harness import (
    FaultInjector,
    FaultSpec,
    SimulationHarness,
)

from tests.service.conftest import (
    FAULT_SEEDS,
    assert_plan_consistent,
    build_controller,
    fault_injector,
    noisy_feed,
    scripted_feed_for,
)


class TestStreamFaults:
    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_drop_dup_delay_never_corrupts_plan(self, seed):
        controller = build_controller(n_hosts=4, n_vms=8, seed=seed)
        feed = noisy_feed(controller, 30, seed)
        injector = fault_injector(seed)
        harness = SimulationHarness(
            controller, feed, injector=injector, replan_every=1
        )
        for report in harness.run():
            assert_plan_consistent(controller)
            assert report.latency_seconds >= 0.0
        # The stream really was hostile…
        assert injector.dropped > 0
        assert injector.duplicated > 0
        assert injector.delayed > 0
        # …and the controller accounted for every delivered sample:
        # accepted, duplicate-ignored, or late-dropped — nothing lost,
        # nothing raised.
        stats = controller.stats.snapshot()
        delivered = (
            controller.store.n_servers * feed.n_ticks
            - injector.dropped
            + injector.duplicated
        )
        assert (
            stats["samples_ingested"]
            + stats["duplicates_ignored"]
            + stats["late_dropped"]
            == delivered
        )
        assert stats["duplicates_ignored"] > 0
        assert stats["gaps_filled"] > 0
        # Every VM still has a home.
        assert set(controller.plan.assignment()) == set(
            controller.store.vm_ids
        )

    def test_reorder_within_tick_is_equivalent_to_in_order(self):
        # Shuffling delivery order *within* each tick must change
        # nothing: same store contents, same schedule.
        stores, assignments = [], []
        for shuffle_seed in (None, 99):
            controller = build_controller(n_hosts=4, n_vms=6, seed=5)
            feed = noisy_feed(controller, 20, seed=5)
            rng = (
                random.Random(shuffle_seed)
                if shuffle_seed is not None
                else None
            )
            for batch in feed.batches():
                batch = list(batch)
                if rng is not None:
                    rng.shuffle(batch)
                for sample in batch:
                    controller.ingest(sample)
                controller.replan_cycle()
            stores.append(np.array(controller.store.view().cpu_rpe2))
            assignments.append(controller.plan.assignment())
        np.testing.assert_array_equal(stores[0], stores[1])
        assert assignments[0] == assignments[1]

    def test_duplicates_are_idempotent(self):
        # A duplicate-only injector (nothing dropped or delayed) must
        # leave store and schedule identical to the clean run.
        results = []
        for rates in (0.0, 0.5):
            controller = build_controller(n_hosts=4, n_vms=6, seed=8)
            feed = noisy_feed(controller, 20, seed=8)
            injector = FaultInjector(
                FaultSpec(duplicate_rate=rates, seed=3)
            )
            harness = SimulationHarness(
                controller, feed, injector=injector, replan_every=2
            )
            harness.run()
            results.append(
                (
                    np.array(controller.store.view().cpu_rpe2),
                    controller.plan.assignment(),
                    harness.migrations(),
                )
            )
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]


class _FlakyDetector:
    """Threshold detector that raises on scheduled calls."""

    def __init__(self, threshold: float, fail_calls) -> None:
        self._inner = ThresholdOverloadDetector(threshold=threshold)
        self._fail_calls = set(fail_calls)
        self._calls = 0

    def detect(self, utilization) -> bool:
        self._calls += 1
        if self._calls in self._fail_calls:
            raise RuntimeError("detector hardware went away")
        return self._inner.detect(utilization)


class TestDetectorFaults:
    def test_raising_detector_is_counted_and_cycle_survives(self):
        controller = build_controller(
            n_hosts=3,
            n_vms=4,
            overload_detector=_FlakyDetector(0.85, fail_calls={1, 2}),
        )
        feed = scripted_feed_for(controller, np.full((4, 1), 0.5))
        SimulationHarness(controller, feed, replan_every=1).run()
        assert controller.stats.detector_errors >= 1
        assert controller.stats.cycles >= 1
        assert_plan_consistent(controller)

    def test_recovery_on_next_clean_cycle(self):
        # Cycle 1: detector raises for every active host → no evictions.
        # Cycle 2: detector works → the hot host finally sheds load.
        controller = build_controller(
            n_hosts=3,
            n_vms=4,
            overload_detector=_FlakyDetector(0.85, fail_calls={1, 2}),
        )
        victim = controller.host_of("vm0")
        hot = [
            1.0 if controller.host_of(vm) == victim else 0.1
            for vm in controller.store.vm_ids
        ]
        feed = scripted_feed_for(
            controller, np.tile(np.array(hot)[:, None], (1, 4))
        )
        harness = SimulationHarness(controller, feed, replan_every=1)
        reports = harness.run()
        faulted = [r for r in reports if r.detector_errors]
        assert faulted and not faulted[0].migrations
        assert harness.migrations(), "should evict once detector recovers"
        assert_plan_consistent(controller)


class TestDeadlineFaults:
    class _SlowClock(VirtualClock):
        def __init__(self, step_seconds: float) -> None:
            super().__init__()
            self._step_seconds = step_seconds

        def now(self) -> float:
            self.advance(self._step_seconds)
            return super().now()

    def test_deadline_degrades_and_recovers(self):
        clock = self._SlowClock(step_seconds=0.4)
        controller = build_controller(
            n_hosts=4,
            n_vms=8,
            config=ControllerConfig(
                sizing_window_points=4, deadline_seconds=0.5
            ),
            clock=clock,
        )
        tick = controller.store.total_points
        for offset in range(3):
            for vm_id in controller.store.vm_ids:
                controller.ingest(
                    MonitoringSample(tick + offset, vm_id, 1.0, 2.0)
                )
        first = controller.replan_cycle()
        assert first.deadline_hit
        assert_plan_consistent(controller)
        # Speed the clock back up: the next cycles drain the backlog.
        clock._step_seconds = 0.0
        for _ in range(4):
            report = controller.replan_cycle()
            assert not report.deadline_hit
            assert_plan_consistent(controller)
        assert controller.stats.deadline_aborts == 1
