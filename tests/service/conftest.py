"""Shared builders for the online-service test suite.

Everything is seeded and runs on a :class:`VirtualClock`; the
``assert_plan_consistent`` helper is the suite's core invariant — a
controller's live plan must always equal its from-scratch rebuild,
bit for bit, no matter what faults the stream threw at it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

import numpy as np

from repro.core.incremental import IncrementalPlan
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.service.clock import VirtualClock
from repro.service.controller import ConsolidationController, ControllerConfig
from repro.service.detectors import (
    ThresholdOverloadDetector,
    ThresholdUnderloadDetector,
)
from repro.service.harness import FaultInjector, FaultSpec, ScriptedFeed
from repro.workloads.rolling import RollingTraceStore


def build_fleet(
    n_hosts: int, cpu_rpe2: float = 1000.0, memory_gb: float = 64.0
) -> List[PhysicalServer]:
    return [
        PhysicalServer(
            f"h{i}", ServerSpec(cpu_rpe2=cpu_rpe2, memory_gb=memory_gb)
        )
        for i in range(n_hosts)
    ]


def build_controller(
    n_hosts: int = 4,
    n_vms: int = 8,
    seed: int = 1,
    warmup_points: int = 6,
    retention_points: int = 64,
    vm_capacity_rpe2: float = 500.0,
    config: Optional[ControllerConfig] = None,
    bootstrap: bool = True,
    controller_cls: Type[ConsolidationController] = ConsolidationController,
    **controller_kwargs,
) -> ConsolidationController:
    """Seeded quiet-fleet controller on a VirtualClock."""
    rng = np.random.default_rng(seed)
    hosts = build_fleet(n_hosts)
    vm_ids = [f"vm{i}" for i in range(n_vms)]
    store = RollingTraceStore(
        vm_ids,
        [vm_capacity_rpe2] * n_vms,
        interval_hours=1.0,
        retention_points=retention_points,
    )
    if warmup_points:
        store.append_samples(
            rng.uniform(0.05, 0.3, (n_vms, warmup_points)),
            rng.uniform(1.0, 4.0, (n_vms, warmup_points)),
        )
    controller_kwargs.setdefault(
        "overload_detector", ThresholdOverloadDetector(threshold=0.85)
    )
    controller_kwargs.setdefault(
        "underload_detector", ThresholdUnderloadDetector(threshold=0.2)
    )
    controller_kwargs.setdefault("clock", VirtualClock())
    controller = controller_cls(
        hosts,
        store,
        config=config
        if config is not None
        else ControllerConfig(sizing_window_points=4),
        **controller_kwargs,
    )
    if bootstrap and warmup_points:
        controller.bootstrap()
    return controller


def assert_plan_consistent(controller: ConsolidationController) -> None:
    """The live plan must equal its canonical from-scratch rebuild."""
    plan = controller.plan
    rebuilt = IncrementalPlan.from_assignment(
        plan.caps,
        plan.vm_ids,
        plan.cpu,
        plan.mem,
        plan.assignment(),
        plan.net,
        plan.dsk,
    )
    assert plan.assignment_rows == rebuilt.assignment_rows
    assert plan.vm_rows_of_host == rebuilt.vm_rows_of_host
    assert plan.body_cpu == rebuilt.body_cpu
    assert plan.body_mem == rebuilt.body_mem
    assert plan.body_net == rebuilt.body_net
    assert plan.body_dsk == rebuilt.body_dsk


#: Seeds of the fault-injection streams (``tests/service/test_faults.py``).
FAULT_SEEDS = (1, 23, 456)


def fault_injector(seed: int) -> FaultInjector:
    """The fault suite's hostile stream: drops, duplicates, delays."""
    return FaultInjector(
        FaultSpec(
            drop_rate=0.15,
            duplicate_rate=0.15,
            delay_rate=0.15,
            delay_ticks=2,
            seed=seed,
        )
    )


def scripted_feed_for(
    controller: ConsolidationController,
    cpu_util: Sequence[Sequence[float]],
    memory_gb: Optional[Sequence[Sequence[float]]] = None,
) -> ScriptedFeed:
    """Feed over explicit per-VM utilization rows, ticks from 'now'."""
    cpu = np.asarray(cpu_util, dtype=float)
    mem = (
        np.asarray(memory_gb, dtype=float)
        if memory_gb is not None
        else np.full(cpu.shape, 2.0)
    )
    return ScriptedFeed(
        list(controller.store.vm_ids),
        cpu,
        mem,
        start_tick=controller.store.total_points,
    )


def noisy_feed(
    controller: ConsolidationController, n_ticks: int, seed: int
) -> ScriptedFeed:
    """Seeded utilization noise with occasional +0.4 spikes."""
    rng = np.random.default_rng(seed)
    n_vms = controller.store.n_servers
    cpu_util = np.clip(
        rng.uniform(0.05, 0.7, (n_vms, n_ticks))
        + 0.4 * (rng.random((n_vms, n_ticks)) < 0.1),
        0.0,
        1.0,
    )
    return scripted_feed_for(
        controller, cpu_util, rng.uniform(1.0, 6.0, (n_vms, n_ticks))
    )
