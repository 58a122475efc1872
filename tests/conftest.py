"""Shared fixtures: tiny deterministic workloads and pools.

Unit tests run on hand-built or very small generated traces; the
calibration/integration tests that need statistically meaningful samples
use the ``small_datacenter``-style fixtures (still well under a second
each to generate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infrastructure.datacenter import Datacenter, build_target_pool
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VirtualMachine, VMDemand
from repro.metrics.catalog import get_model
from repro.sizing.estimator import SizeEstimator
from repro.workloads.generator import WEB_MODERATE
from repro.workloads.trace import ResourceTrace, ServerTrace, TraceSet
from tests.reference.generation import generate_server_trace
from tests.reference.sizing import estimate_reference


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_spec() -> ServerSpec:
    return ServerSpec(cpu_rpe2=3000.0, memory_gb=8.0, model_name="test")


def make_server_trace(
    vm_id: str,
    cpu_util,
    memory_gb,
    *,
    cpu_rpe2: float = 3000.0,
    configured_gb: float = 8.0,
    interval_hours: float = 1.0,
) -> ServerTrace:
    """Hand-built trace helper used across test modules."""
    return ServerTrace(
        vm=VirtualMachine(vm_id=vm_id, memory_config_gb=configured_gb),
        source_spec=ServerSpec(
            cpu_rpe2=cpu_rpe2, memory_gb=configured_gb, model_name="test"
        ),
        cpu_util=ResourceTrace(
            np.asarray(cpu_util, dtype=float),
            interval_hours=interval_hours,
            unit="fraction",
        ),
        memory_gb=ResourceTrace(
            np.asarray(memory_gb, dtype=float),
            interval_hours=interval_hours,
            unit="GB",
        ),
    )


def size_one(estimator: SizeEstimator, trace: ServerTrace) -> VMDemand:
    """``estimate_all`` on a one-trace set, checked against the per-trace
    reference sizing."""
    (demand,) = estimator.estimate_all(TraceSet("one", [trace]))
    assert demand == estimate_reference(estimator, trace)
    return demand


@pytest.fixture
def flat_trace_set() -> TraceSet:
    """Four constant-demand servers over 48 hours: fully predictable."""
    hours = 48
    traces = [
        make_server_trace(
            f"vm{i}",
            np.full(hours, 0.10 + 0.05 * i),
            np.full(hours, 1.0 + 0.5 * i),
        )
        for i in range(4)
    ]
    return TraceSet("flat", traces)


@pytest.fixture
def generated_trace_set(rng) -> TraceSet:
    """A dozen generated servers over 6 days (realistic texture)."""
    hours = 6 * 24
    model = get_model("rack-1u-medium")
    seeds = np.random.SeedSequence(7).spawn(12)
    return TraceSet(
        "generated",
        [
            generate_server_trace(
                vm_id=f"gen{index}",
                profile=WEB_MODERATE,
                source_model=model,
                n_hours=hours,
                rng=np.random.default_rng(seed),
            )
            for index, seed in enumerate(seeds)
        ],
    )


@pytest.fixture
def small_pool() -> Datacenter:
    """Ten HS23 blades in two racks."""
    return build_target_pool("pool", host_count=10, hosts_per_rack=5)


@pytest.fixture
def tiny_pool() -> Datacenter:
    """Two small hosts for exact-fit packing tests."""
    dc = Datacenter(name="tiny")
    for index in range(2):
        dc.add_host(
            PhysicalServer(
                host_id=f"tiny-h{index}",
                spec=ServerSpec(cpu_rpe2=1000.0, memory_gb=10.0),
                rack=f"rack{index}",
                subnet=f"net{index}",
            )
        )
    return dc
