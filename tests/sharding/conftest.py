"""Shared fleet for the sharded-planning suite.

One calibrated ~120-server fleet with a rack-structured target pool,
planned once unsharded — the equivalence tests compare sharded plans
against it, so the expensive plans run once per session.
"""

from __future__ import annotations

import pytest

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.infrastructure.datacenter import build_target_pool
from repro.workloads.datacenters import generate_datacenter


@pytest.fixture(scope="package")
def fleet_traces():
    return generate_datacenter("banking", scale=120 / 816, days=4, seed=11)


@pytest.fixture(scope="package")
def fleet_context(fleet_traces):
    hours = int(fleet_traces.duration_hours)
    return PlanningContext(
        history=fleet_traces.window(0, 48),
        evaluation=fleet_traces.window(48, hours),
        datacenter=build_target_pool(
            "shard-pool", host_count=len(fleet_traces) // 2
        ),
        config=PlanningConfig(),
    )


@pytest.fixture(scope="package")
def unsharded_schedule(fleet_context):
    return DynamicConsolidation().plan(fleet_context)
