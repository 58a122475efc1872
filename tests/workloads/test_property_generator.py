"""Property-based tests for trace generation (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics.catalog import get_model
from repro.workloads.generator import (
    IDLE,
    SCHEDULED_BATCH,
    STEADY_BATCH,
    WEB_BURSTY,
    WEB_MODERATE,
)
from tests.reference.generation import generate_server_trace

profiles = st.sampled_from(
    [WEB_BURSTY, WEB_MODERATE, STEADY_BATCH, SCHEDULED_BATCH, IDLE]
)
models = st.sampled_from(
    ["rack-1u-small", "rack-1u-medium", "rack-2u-large"]
)


@given(
    profile=profiles,
    model_name=models,
    seed=st.integers(0, 2**31),
    days=st.integers(2, 10),
)
@settings(max_examples=40, deadline=None)
def test_generated_trace_invariants(profile, model_name, seed, days):
    model = get_model(model_name)
    trace = generate_server_trace(
        "vm",
        profile,
        model,
        days * 24,
        np.random.default_rng(seed),
    )
    cpu = trace.cpu_util.values
    memory = trace.memory_gb.values
    # Utilization is a valid fraction of the source box.
    assert cpu.min() > 0
    assert cpu.max() <= 1.0
    # Memory never exceeds the configured RAM and never hits zero.
    assert memory.min() > 0
    assert memory.max() <= model.memory_gb
    # Absolute CPU demand is consistent with the source capacity.
    assert np.allclose(trace.cpu_rpe2, cpu * model.cpu_rpe2)
    # Both traces share the clock.
    assert len(trace.cpu_util) == len(trace.memory_gb) == days * 24


@given(profile=profiles, seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_memory_never_burstier_than_cpu_plus_noise(profile, seed):
    # Observation 2 as a generator-level property: memory CoV stays
    # below CPU CoV for every class except pathological tiny samples.
    model = get_model("rack-1u-medium")
    trace = generate_server_trace(
        "vm", profile, model, 30 * 24, np.random.default_rng(seed)
    )
    cpu = trace.cpu_util.values
    memory = trace.memory_gb.values
    cpu_cov = cpu.std() / cpu.mean()
    memory_cov = memory.std() / memory.mean()
    assert memory_cov <= cpu_cov + 0.05
