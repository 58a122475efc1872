"""Tests for the size estimator and virtualization overhead."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sizing.estimator import SizeEstimator, VirtualizationOverhead
from repro.sizing.functions import BodyTailSizing, MaxSizing, PercentileSizing
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace, size_one


@pytest.fixture
def trace():
    return make_server_trace(
        "vm",
        [0.1, 0.2, 0.5, 0.3],
        [1.0, 1.2, 2.0, 1.5],
        cpu_rpe2=1000.0,
    )


class TestVirtualizationOverhead:
    def test_cpu_inflation(self):
        overhead = VirtualizationOverhead(cpu_overhead_frac=0.1)
        assert overhead.adjust_cpu(100.0) == pytest.approx(110.0)

    def test_memory_dedup_then_fixed_overhead(self):
        overhead = VirtualizationOverhead(
            memory_overhead_gb=0.25, dedup_savings_frac=0.2
        )
        assert overhead.adjust_memory(10.0) == pytest.approx(8.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VirtualizationOverhead(cpu_overhead_frac=-0.1)
        with pytest.raises(ConfigurationError):
            VirtualizationOverhead(dedup_savings_frac=1.0)


class TestEstimateScalarSizing:
    def test_max_sizing_with_overhead(self, trace):
        estimator = SizeEstimator(
            sizing=MaxSizing(),
            overhead=VirtualizationOverhead(
                cpu_overhead_frac=0.1, memory_overhead_gb=0.5
            ),
        )
        demand = size_one(estimator, trace)
        assert demand.cpu_rpe2 == pytest.approx(0.5 * 1000 * 1.1)
        assert demand.memory_gb == pytest.approx(2.0 + 0.5)
        assert demand.tail_cpu_rpe2 == 0.0

    def test_percentile_sizing_smaller_than_max(self, trace):
        max_demand = size_one(SizeEstimator(sizing=MaxSizing()), trace)
        p50_demand = size_one(
            SizeEstimator(sizing=PercentileSizing(50)), trace
        )
        assert p50_demand.cpu_rpe2 < max_demand.cpu_rpe2
        assert p50_demand.memory_gb < max_demand.memory_gb

    def test_estimate_all_preserves_order(self, trace):
        ts = TraceSet(
            "s",
            [trace, make_server_trace("vm2", [0.1, 0.1, 0.1, 0.1], [1.0] * 4)],
        )
        demands = SizeEstimator().estimate_all(ts)
        assert [d.vm_id for d in demands] == ["vm", "vm2"]


class TestEstimateBodyTail:
    def test_body_plus_tail_covers_peak(self, trace):
        estimator = SizeEstimator(
            sizing=BodyTailSizing(50),
            overhead=VirtualizationOverhead(
                cpu_overhead_frac=0.0, memory_overhead_gb=0.0
            ),
        )
        demand = size_one(estimator, trace)
        assert demand.cpu_rpe2 + demand.tail_cpu_rpe2 == pytest.approx(500.0)
        assert demand.memory_gb + demand.tail_memory_gb == pytest.approx(2.0)

    def test_memory_overhead_only_in_body(self, trace):
        estimator = SizeEstimator(
            sizing=BodyTailSizing(50),
            overhead=VirtualizationOverhead(memory_overhead_gb=0.5),
        )
        demand = size_one(estimator, trace)
        flat = size_one(
            SizeEstimator(
                sizing=BodyTailSizing(50),
                overhead=VirtualizationOverhead(memory_overhead_gb=0.0),
            ),
            trace,
        )
        assert demand.memory_gb == pytest.approx(flat.memory_gb + 0.5)
        assert demand.tail_memory_gb == pytest.approx(flat.tail_memory_gb)


class TestEstimateFromValues:
    def test_applies_overhead(self):
        estimator = SizeEstimator(
            overhead=VirtualizationOverhead(
                cpu_overhead_frac=0.2, memory_overhead_gb=0.25
            )
        )
        demand = estimator.estimate_from_values("vm", 100.0, 4.0)
        assert demand.cpu_rpe2 == pytest.approx(120.0)
        assert demand.memory_gb == pytest.approx(4.25)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            SizeEstimator().estimate_from_values("vm", -1.0, 4.0)
