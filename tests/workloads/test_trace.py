"""Tests for trace data structures."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.workloads.trace import ResourceTrace, TraceSet
from tests.conftest import make_server_trace


def _one_row_set(values, interval_hours=1.0) -> TraceSet:
    """A one-VM set whose CPU row is ``values`` (memory is constant)."""
    values = np.asarray(values, dtype=float)
    return TraceSet(
        "t",
        [
            make_server_trace(
                "vm",
                values,
                np.ones(values.size),
                interval_hours=interval_hours,
            )
        ],
    )


class TestResourceTrace:
    def test_basic_statistics(self):
        trace = ResourceTrace(np.array([1.0, 3.0, 2.0]))
        assert trace.mean() == 2.0
        assert trace.peak() == 3.0
        assert len(trace) == 3
        assert trace.duration_hours == 3.0

    def test_values_are_immutable(self):
        trace = ResourceTrace(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    # Traces are windowed through their set, which holds the one
    # hour-to-index alignment check.
    def test_window_slicing(self):
        traces = _one_row_set(np.arange(10, dtype=float))
        window = traces.window(2, 5)
        assert list(window.cpu_util_matrix()[0]) == [2.0, 3.0, 4.0]
        assert window.interval_hours == traces.interval_hours

    def test_window_respects_interval(self):
        traces = _one_row_set(np.arange(4, dtype=float), 2.0)
        window = traces.window(2, 6)
        assert list(window.cpu_util_matrix()[0]) == [1.0, 2.0]

    def test_misaligned_window_rejected(self):
        traces = _one_row_set(np.arange(4, dtype=float), 2.0)
        with pytest.raises(TraceError, match="align"):
            traces.window(1, 3)

    def test_out_of_range_window_rejected(self):
        traces = _one_row_set(np.arange(4, dtype=float))
        with pytest.raises(TraceError):
            traces.window(0, 5)
        with pytest.raises(TraceError):
            traces.window(3, 3)

    @pytest.mark.parametrize(
        "values",
        [[], [1.0, float("nan")], [1.0, float("inf")], [1.0, -0.5]],
    )
    def test_invalid_values_rejected(self, values):
        with pytest.raises(TraceError):
            ResourceTrace(np.array(values, dtype=float))

    def test_2d_rejected(self):
        with pytest.raises(TraceError):
            ResourceTrace(np.ones((2, 2)))

    def test_percentile(self):
        trace = ResourceTrace(np.arange(101, dtype=float))
        assert trace.percentile(90) == pytest.approx(90.0)
        with pytest.raises(TraceError):
            trace.percentile(101)


class TestServerTrace:
    def test_cpu_rpe2_uses_source_capacity(self):
        trace = make_server_trace(
            "vm", [0.5, 0.25], [1.0, 1.0], cpu_rpe2=2000.0
        )
        assert list(trace.cpu_rpe2) == [1000.0, 500.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError, match="points"):
            make_server_trace("vm", [0.5, 0.25], [1.0])

    def test_window_slices_both_resources(self):
        traces = TraceSet(
            "t", [make_server_trace("vm", [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])]
        )
        (window,) = traces.window(1, 3)
        assert list(window.cpu_util.values) == [0.2, 0.3]
        assert list(window.memory_gb.values) == [2.0, 3.0]


class TestTraceSet:
    def test_duplicate_vm_rejected(self):
        with pytest.raises(TraceError, match="duplicate vm_id 'vm' in 't'"):
            TraceSet(
                "t",
                [
                    make_server_trace("vm", [0.1], [1.0]),
                    make_server_trace("vm", [0.2], [2.0]),
                ],
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError, match="b: length 1 != set length 2"):
            TraceSet(
                "t",
                [
                    make_server_trace("a", [0.1, 0.2], [1.0, 1.0]),
                    make_server_trace("b", [0.1], [1.0]),
                ],
            )

    def test_interval_mismatch_rejected(self):
        with pytest.raises(
            TraceError, match=r"b: interval 2.0h != set interval 1.0h"
        ):
            TraceSet(
                "t",
                [
                    make_server_trace("a", [0.1, 0.2], [1.0, 1.0]),
                    make_server_trace(
                        "b", [0.1, 0.2], [1.0, 1.0], interval_hours=2.0
                    ),
                ],
            )

    def test_aggregates(self):
        ts = TraceSet(
            "t",
            [
                make_server_trace("a", [0.1, 0.2], [1.0, 2.0], cpu_rpe2=1000),
                make_server_trace("b", [0.3, 0.4], [3.0, 4.0], cpu_rpe2=1000),
            ],
        )
        assert list(ts.aggregate_cpu_rpe2()) == [400.0, 600.0]
        assert list(ts.aggregate_memory_gb()) == [4.0, 6.0]
        assert ts.cpu_rpe2_matrix().shape == (2, 2)

    def test_window_and_subset(self):
        ts = TraceSet(
            "t",
            [
                make_server_trace("a", [0.1, 0.2, 0.3], [1.0, 1.0, 1.0]),
                make_server_trace("b", [0.2, 0.3, 0.4], [2.0, 2.0, 2.0]),
            ],
        )
        window = ts.window(1, 3)
        assert window.n_points == 2
        subset = ts.subset(["b"])
        assert subset.vm_ids == ("b",)

    def test_unknown_vm_lookup(self):
        ts = TraceSet("t", [make_server_trace("a", [0.1], [1.0])])
        with pytest.raises(TraceError, match="unknown"):
            ts.trace("zz")

    def test_empty_set_properties_raise(self):
        ts = TraceSet(name="t")
        with pytest.raises(TraceError, match="empty"):
            _ = ts.n_points

    def test_mean_cpu_utilization(self):
        ts = TraceSet(
            "t",
            [
                make_server_trace("a", [0.1, 0.3], [1.0, 1.0]),
                make_server_trace("b", [0.2, 0.4], [1.0, 1.0]),
            ],
        )
        assert ts.mean_cpu_utilization() == pytest.approx(0.25)
