"""Tests for the CPU:memory resource-ratio analysis (Fig. 6)."""

import numpy as np
import pytest

from repro.analysis.resource_ratio import (
    REFERENCE_RATIO,
    analyze_resource_ratio,
    resource_ratio_series,
)
from repro.exceptions import TraceError
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _set_with_ratio(cpu_util, memory_gb, cpu_rpe2=1000.0):
    return TraceSet(
        "ratio",
        [make_server_trace("a", cpu_util, memory_gb, cpu_rpe2=cpu_rpe2)],
    )


class TestReferenceRatio:
    def test_anchor_value(self):
        assert REFERENCE_RATIO == pytest.approx(160.0)


class TestResourceRatioSeries:
    def test_constant_demand(self):
        ts = _set_with_ratio([0.5] * 4, [2.0] * 4)
        series = resource_ratio_series(ts, interval_hours=2.0)
        # 0.5 * 1000 RPE2 / 2 GB = 250 per interval.
        assert np.allclose(series, 250.0)
        assert series.shape == (2,)

    def test_interval_uses_peak_sizing(self):
        # CPU spikes in hour 1; the 2 h interval must provision its peak.
        ts = _set_with_ratio([0.2, 0.8], [2.0, 2.0])
        series = resource_ratio_series(ts, interval_hours=2.0)
        assert series[0] == pytest.approx(0.8 * 1000 / 2.0)

    def test_misaligned_interval_rejected(self):
        ts = _set_with_ratio([0.5] * 4, [2.0] * 4)
        with pytest.raises(TraceError, match="align"):
            resource_ratio_series(ts, interval_hours=1.5)


class TestAnalyzeResourceRatio:
    def test_memory_constrained_classification(self):
        # Ratio 250 > 160: CPU-constrained all the time.
        cpu_bound = analyze_resource_ratio(
            _set_with_ratio([0.5] * 4, [2.0] * 4), interval_hours=2.0
        )
        assert cpu_bound.fraction_memory_constrained == 0.0
        assert cpu_bound.fraction_cpu_constrained == 1.0

        # Ratio 50 < 160: memory-constrained all the time.
        memory_bound = analyze_resource_ratio(
            _set_with_ratio([0.5] * 4, [10.0] * 4), interval_hours=2.0
        )
        assert memory_bound.fraction_memory_constrained == 1.0

    def test_custom_reference(self):
        report = analyze_resource_ratio(
            _set_with_ratio([0.5] * 4, [2.0] * 4),
            interval_hours=2.0,
            reference_ratio=300.0,
        )
        assert report.fraction_memory_constrained == 1.0

    def test_median_ratio(self):
        report = analyze_resource_ratio(
            _set_with_ratio([0.5] * 4, [2.0] * 4), interval_hours=1.0
        )
        assert report.median_ratio == pytest.approx(250.0)
