"""Randomized invariants for :func:`repro.placement.binpacking.pack`.

Property-style tests driven by seeded stdlib :mod:`random` streams (no
external property-testing dependency): across many generated instances,
a successful packing must

* keep every host within its bound-scaled capacity (summed demands),
* place every VM exactly once, and
* be invariant to the input permutation of the demand list (FFD
  canonicalizes its order internally, with vm_id tie-breaks).
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.exceptions import PlacementError
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.infrastructure.vm import VMDemand
from repro.numerics import approx_lte
from repro.placement.binpacking import pack

N_INSTANCES = 25

HOST_SPEC = ServerSpec(
    cpu_rpe2=2000.0, memory_gb=16.0, model_name="prop-host"
)


def _make_hosts(count: int) -> List[PhysicalServer]:
    return [
        PhysicalServer(host_id=f"prop-h{i:03d}", spec=HOST_SPEC)
        for i in range(count)
    ]


def _random_instance(rng: random.Random):
    """One packing instance: demands, hosts, bound."""
    bound = rng.choice([0.7, 0.8, 0.9, 1.0])
    n_vms = rng.randint(1, 40)
    demands = []
    for i in range(n_vms):
        demands.append(
            VMDemand(
                vm_id=f"vm{i:03d}",
                cpu_rpe2=rng.uniform(1.0, 750.0),
                memory_gb=rng.uniform(0.05, 7.0),
            )
        )
    # Enough hosts that one VM per host always succeeds: no instance
    # may fail for capacity, so every property quantifies over
    # successful packings only by construction.
    hosts = _make_hosts(n_vms)
    return demands, hosts, bound


def _host_usage(
    assignment: Dict[str, str], demands: List[VMDemand]
) -> Dict[str, Dict[str, float]]:
    """Recompute per-host demand sums from scratch."""
    by_id = {d.vm_id: d for d in demands}
    usage: Dict[str, Dict[str, float]] = {}
    for vm_id, host_id in assignment.items():
        demand = by_id[vm_id]
        entry = usage.setdefault(host_id, {"cpu": 0.0, "mem": 0.0})
        entry["cpu"] += demand.cpu_rpe2
        entry["mem"] += demand.memory_gb
    return usage


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_pack_never_exceeds_capacity(seed: int) -> None:
    rng = random.Random(20260806 + seed)
    demands, hosts, bound = _random_instance(rng)
    placement = pack(demands, hosts, utilization_bound=bound)
    for host_id, entry in _host_usage(placement.assignment, demands).items():
        assert approx_lte(
            entry["cpu"], HOST_SPEC.cpu_rpe2 * bound
        ), f"seed {seed}: CPU over capacity on {host_id}"
        assert approx_lte(
            entry["mem"], HOST_SPEC.memory_gb * bound
        ), f"seed {seed}: memory over capacity on {host_id}"


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_pack_places_every_vm_exactly_once(seed: int) -> None:
    rng = random.Random(918273 + seed)
    demands, hosts, bound = _random_instance(rng)
    placement = pack(demands, hosts, utilization_bound=bound)
    assert sorted(placement.assignment) == sorted(d.vm_id for d in demands)
    host_ids = {h.host_id for h in hosts}
    assert set(placement.assignment.values()) <= host_ids


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_pack_is_permutation_invariant(seed: int) -> None:
    rng = random.Random(555000 + seed)
    demands, hosts, bound = _random_instance(rng)
    baseline = pack(demands, hosts, utilization_bound=bound)
    shuffled = list(demands)
    rng.shuffle(shuffled)
    permuted = pack(shuffled, hosts, utilization_bound=bound)
    assert permuted.assignment == baseline.assignment


def test_pack_rejects_oversized_vm() -> None:
    """A VM beyond any host's bound-scaled capacity must fail loudly."""
    hosts = _make_hosts(3)
    demand = VMDemand(
        vm_id="vm-huge", cpu_rpe2=HOST_SPEC.cpu_rpe2 * 2, memory_gb=1.0
    )
    with pytest.raises(PlacementError):
        pack([demand], hosts, utilization_bound=1.0)
