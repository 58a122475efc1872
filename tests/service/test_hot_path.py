"""The controller's hot paths decide exactly as their references.

The library controller ingests with plain-float checks, re-sizes a
cycle's flagged rows in one batch (re-folding each flagged host once)
and vacates by scanning only the active hosts.
:class:`tests.reference.controller.ReferenceController` keeps the
per-sample NumPy checks, the per-VM re-fold and the all-hosts scan.
The rebuild twin (:class:`tests.reference.controller.RebuildController`)
cannot catch drift in these paths, since it runs them too; the
reference can.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.incremental import IncrementalPlan
from repro.exceptions import ServiceError
from repro.service.controller import ConsolidationController, MonitoringSample
from repro.service.harness import SimulationHarness

from tests.reference.controller import ReferenceController
from tests.service.conftest import (
    FAULT_SEEDS,
    build_controller,
    fault_injector,
    noisy_feed,
    scripted_feed_for,
)


def ebb_feed(controller, n_ticks: int, seed: int):
    """Eight quiet ticks, then three busy ones, repeated.

    Quiet phases leave hosts underloaded with room on the others, so
    vacates succeed where the noisy feed's mostly fail.
    """
    rng = np.random.default_rng(seed)
    n_vms = controller.store.n_servers
    busy = np.arange(n_ticks) % 11 >= 8
    level = np.where(busy, 0.5, 0.03)
    cpu_util = np.clip(
        level[None, :] * rng.uniform(0.5, 1.5, (n_vms, n_ticks)), 0.0, 1.0
    )
    return scripted_feed_for(
        controller, cpu_util, rng.uniform(1.0, 6.0, (n_vms, n_ticks))
    )


def _plan_state(plan: IncrementalPlan):
    return (
        plan.assignment_rows,
        plan.vm_rows_of_host,
        plan.body_cpu,
        plan.body_mem,
        plan.body_net,
        plan.body_dsk,
        plan.cpu,
        plan.mem,
        plan.net,
        plan.dsk,
    )


def _run(controller_cls, feed, seed: int, n_hosts: int, n_vms: int):
    controller = build_controller(
        n_hosts=n_hosts, n_vms=n_vms, seed=seed, controller_cls=controller_cls
    )
    harness = SimulationHarness(
        controller,
        feed(controller, 40, seed),
        injector=fault_injector(seed),
        replan_every=1,
    )
    return controller, harness.run()


def _moves_from(reports, flagged: str) -> int:
    """Migrations off hosts the cycle flagged (``overloaded_hosts`` or
    ``underloaded_hosts``)."""
    return sum(
        1
        for report in reports
        for _, source, _ in report.migrations
        if source in getattr(report, flagged)
    )


class TestMatchesReference:
    @pytest.mark.parametrize(
        "feed, flagged",
        [(noisy_feed, "overloaded_hosts"), (ebb_feed, "underloaded_hosts")],
        ids=["noisy", "ebb"],
    )
    @pytest.mark.parametrize("n_hosts, n_vms", [(4, 8), (12, 30)])
    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_faulty_stream(self, seed, n_hosts, n_vms, feed, flagged):
        args = (feed, seed, n_hosts, n_vms)
        library, reports = _run(ConsolidationController, *args)
        reference, expected = _run(ReferenceController, *args)
        # The noisy stream drives evictions, the ebbing one vacates.
        assert _moves_from(reports, flagged) > 0
        assert reports == expected
        assert _plan_state(library.plan) == _plan_state(reference.plan)
        assert library.stats.snapshot() == reference.stats.snapshot()
        np.testing.assert_array_equal(
            library.store.view().cpu_rpe2, reference.store.view().cpu_rpe2
        )

    def test_check_order_matches_reference(self):
        # Samples malformed in two ways raise the reference's error.
        library = build_controller(n_vms=2)
        reference = build_controller(
            n_vms=2, controller_cls=ReferenceController
        )
        tick = library.store.total_points
        nan, inf = float("nan"), float("inf")
        for vm_id, cpu_util, memory_gb in [
            ("ghost", nan, 2.0),
            ("ghost", -1.0, 2.0),
            ("vm0", nan, -1.0),
            ("vm0", -1.0, inf),
            ("vm0", inf, nan),
            ("ghost", 0.5, -1.0),
        ]:
            sample = MonitoringSample(tick, vm_id, cpu_util, memory_gb)
            with pytest.raises(ServiceError) as expected:
                reference.ingest(sample)
            with pytest.raises(ServiceError) as raised:
                library.ingest(sample)
            assert str(raised.value) == str(expected.value)

    def test_numeric_types_ingest_like_reference(self):
        library = build_controller(n_vms=4)
        reference = build_controller(
            n_vms=4, controller_cls=ReferenceController
        )
        tick = library.store.total_points
        values = [np.float64(0.25), np.float32(0.5), 1, True]
        for controller in (library, reference):
            for row, value in enumerate(values):
                assert controller.ingest(
                    MonitoringSample(tick, f"vm{row}", value, value)
                )
        np.testing.assert_array_equal(
            library.store.last_cpu_util(), reference.store.last_cpu_util()
        )
        np.testing.assert_array_equal(
            library.store.last_memory_gb(), reference.store.last_memory_gb()
        )
        assert library.stats.snapshot() == reference.stats.snapshot()


def test_refresh_refolds_each_flagged_host_once(monkeypatch):
    controller = build_controller(n_hosts=4, n_vms=12, seed=3)
    plan = controller.plan
    flagged = plan.active_hosts()[:2]
    rows = [row for host in flagged for row in plan.vm_rows_of_host[host]]
    # More VMs than hosts, so a per-VM re-fold would repeat hosts.
    assert len(rows) > len(flagged)
    refolds: Counter = Counter()
    refold_host = IncrementalPlan._refold_host

    def counting(self, host):
        refolds[host] += 1
        refold_host(self, host)

    monkeypatch.setattr(IncrementalPlan, "_refold_host", counting)
    controller._refresh_demands(rows)
    assert refolds == Counter(flagged)
