"""Tests for the server trace generator."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import WorkloadClass
from repro.metrics.catalog import get_model
from repro.workloads.generator import (
    IDLE,
    STEADY_BATCH,
    WEB_BURSTY,
    CorrelationModel,
    MemoryModel,
    generate_trace_set,
)
from tests.reference.generation import generate_server_trace


@pytest.fixture
def model():
    return get_model("rack-1u-medium")


def _gen(profile, model, seed=5, n_hours=240, **kwargs):
    return generate_server_trace(
        "vm0", profile, model, n_hours, np.random.default_rng(seed), **kwargs
    )


class TestGenerateServerTrace:
    def test_deterministic_given_seed(self, model):
        a = _gen(WEB_BURSTY, model, seed=9)
        b = _gen(WEB_BURSTY, model, seed=9)
        assert np.array_equal(a.cpu_util.values, b.cpu_util.values)
        assert np.array_equal(a.memory_gb.values, b.memory_gb.values)

    def test_different_seeds_differ(self, model):
        a = _gen(WEB_BURSTY, model, seed=1)
        b = _gen(WEB_BURSTY, model, seed=2)
        assert not np.array_equal(a.cpu_util.values, b.cpu_util.values)

    def test_mean_util_approximates_target(self, model):
        trace = _gen(STEADY_BATCH, model, n_hours=720, mean_util=0.15)
        assert trace.cpu_util.mean() == pytest.approx(0.15, rel=0.25)

    def test_util_bounded(self, model):
        trace = _gen(WEB_BURSTY, model, n_hours=720)
        assert trace.cpu_util.values.max() <= 1.0
        assert trace.cpu_util.values.min() > 0.0

    def test_memory_bounded_by_configured(self, model):
        trace = _gen(WEB_BURSTY, model, n_hours=720)
        assert trace.memory_gb.values.max() <= model.memory_gb
        assert trace.memory_gb.values.min() > 0.0

    def test_memory_less_bursty_than_cpu(self, model):
        # Observation 2's mechanism must hold per server.
        trace = _gen(WEB_BURSTY, model, n_hours=720)
        cpu_cov = trace.cpu_util.values.std() / trace.cpu_util.values.mean()
        memory = trace.memory_gb.values
        memory_cov = memory.std() / memory.mean()
        assert memory_cov < cpu_cov

    def test_vm_metadata(self, model):
        trace = _gen(WEB_BURSTY, model, labels={"app": "teller"})
        assert trace.vm.workload_class == WorkloadClass.WEB_INTERACTIVE
        assert trace.vm.labels["app"] == "teller"
        assert trace.vm.labels["profile"] == "web-bursty"
        assert trace.vm.memory_config_gb == model.memory_gb

    def test_invalid_mean_util(self, model):
        with pytest.raises(ConfigurationError):
            _gen(WEB_BURSTY, model, mean_util=1.5)

    def test_invalid_hours(self, model):
        with pytest.raises(ConfigurationError):
            generate_server_trace(
                "v", WEB_BURSTY, model, 0, np.random.default_rng(0)
            )


class TestMemoryModelValidation:
    def test_fracs_must_fit_in_configured(self):
        with pytest.raises(ConfigurationError):
            MemoryModel(base_frac=0.8, dynamic_frac=0.3)

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            MemoryModel(smoothing_alpha=0.0)


class TestGenerateTraceSet:
    def test_counts_and_naming(self, model):
        ts = generate_trace_set(
            "dc", [(IDLE, model, 3), (STEADY_BATCH, model, 2)], 48, seed=1
        )
        assert len(ts) == 5
        assert ts.vm_ids[0] == "dc-vm0000"
        assert ts.vm_ids[-1] == "dc-vm0004"

    def test_mean_util_spread(self, model):
        ts = generate_trace_set(
            "dc", [(STEADY_BATCH, model, 40)], 240, seed=2,
            mean_util_spread_sigma=0.7,
        )
        means = [t.cpu_util.mean() for t in ts]
        assert max(means) / min(means) > 2.0  # real spread across servers

    def test_zero_spread_concentrates(self, model):
        ts = generate_trace_set(
            "dc", [(STEADY_BATCH, model, 10)], 240, seed=2,
            mean_util_spread_sigma=0.0,
        )
        means = np.array([t.cpu_util.mean() for t in ts])
        assert means.std() / means.mean() < 0.2

    def test_deterministic(self, model):
        a = generate_trace_set("dc", [(IDLE, model, 4)], 48, seed=11)
        b = generate_trace_set("dc", [(IDLE, model, 4)], 48, seed=11)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.cpu_util.values, tb.cpu_util.values)


class TestCorrelation:
    def test_correlation_raises_pairwise_correlation(self, model):
        spec = [(WEB_BURSTY, model, 30)]
        independent = generate_trace_set("i", spec, 720, seed=3)
        correlated = generate_trace_set(
            "c", spec, 720, seed=3,
            correlation=CorrelationModel(
                ar1_sigma=0.3, event_rate_per_day=1.0,
                event_participation=0.6, event_magnitude_scale=2.0,
            ),
        )

        def mean_pairwise_corr(ts):
            matrix = ts.cpu_rpe2_matrix()
            corr = np.corrcoef(matrix)
            upper = corr[np.triu_indices_from(corr, k=1)]
            return float(np.nanmean(upper))

        assert mean_pairwise_corr(correlated) > mean_pairwise_corr(
            independent
        ) + 0.05

    def test_events_create_coincident_peaks(self, model):
        correlated = generate_trace_set(
            "c", [(WEB_BURSTY, model, 20)], 720, seed=4,
            correlation=CorrelationModel(
                event_rate_per_day=1.0,
                event_participation=0.8,
                event_magnitude_scale=2.5,
            ),
        )
        aggregate = correlated.aggregate_cpu_rpe2()
        # Correlated flash events push the aggregate peak well above the
        # independent-sum level (mean + a few sigma).
        z = (aggregate.max() - aggregate.mean()) / aggregate.std()
        assert z > 3.0

    def test_correlation_model_validation(self):
        with pytest.raises(ConfigurationError):
            CorrelationModel(event_participation=1.5)
        with pytest.raises(ConfigurationError):
            CorrelationModel(ar1_phi=1.0)
        with pytest.raises(ConfigurationError):
            CorrelationModel(event_max_multiplier=0.5)
