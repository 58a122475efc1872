"""Tests for correlation analysis and peak clustering."""

import numpy as np
import pytest

from repro.analysis.correlation import (
    cluster_by_peaks,
    correlation_matrix,
    envelope_similarity,
    peak_envelope,
)
from repro.exceptions import TraceError
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


class TestCorrelationMatrix:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((4, 50))
        corr = correlation_matrix(matrix)
        assert np.allclose(np.diag(corr), 1.0)

    def test_perfect_correlation_and_anticorrelation(self):
        base = np.linspace(0, 1, 20)
        matrix = np.vstack([base, base * 2 + 1, -base])
        corr = correlation_matrix(matrix)
        assert corr[0, 1] == pytest.approx(1.0)
        assert corr[0, 2] == pytest.approx(-1.0)

    def test_constant_row_is_zero_correlated(self):
        matrix = np.vstack([np.ones(10), np.arange(10, dtype=float)])
        corr = correlation_matrix(matrix)
        assert corr[0, 1] == 0.0
        assert corr[0, 0] == 1.0

    def test_shape_validation(self):
        with pytest.raises(TraceError):
            correlation_matrix(np.ones(5))


class TestPeakEnvelope:
    def test_marks_top_decile(self):
        values = np.arange(100, dtype=float)
        envelope = peak_envelope(values, body_quantile=0.9)
        assert envelope.sum() == 10
        assert envelope[-10:].all()

    def test_flat_series_has_no_peaks(self):
        envelope = peak_envelope(np.full(50, 2.0))
        assert not envelope.any()

    @pytest.mark.parametrize("quantile", [0.5, 0.8, 0.9, 0.99])
    def test_matrix_equals_row_by_row(self, quantile):
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0.0, 100.0, (12, 97))
        matrix[3] = 5.0                            # flat row
        matrix[5, ::2] = matrix[5, 0]              # heavy ties
        matrix[7] = np.round(matrix[7] / 25.0)     # few distinct values
        matrix[9] = 1.0
        matrix[9, 40] = 50.0                       # one spike
        envelopes = peak_envelope(matrix, quantile)
        assert envelopes.shape == matrix.shape
        for row, values in enumerate(matrix):
            assert np.array_equal(
                envelopes[row], peak_envelope(values, quantile)
            )
        # Flat rule: a row whose quantile equals its minimum has no
        # peaks — row 3, and row 9 below q = 0.99, lone spike included.
        assert not envelopes[3].any()
        assert envelopes[9].any() == (quantile == 0.99)

    def test_shape_errors(self):
        for bad in (np.array([]), np.array(1.0), np.zeros((2, 2, 2))):
            with pytest.raises(TraceError, match="non-empty 1-D series"):
                peak_envelope(bad)
        with pytest.raises(TraceError, match="one sample per row"):
            peak_envelope(np.zeros((3, 0)))

    def test_similarity_identical_and_disjoint(self):
        a = np.array([True, True, False, False])
        b = np.array([False, False, True, True])
        assert envelope_similarity(a, a) == 1.0
        assert envelope_similarity(a, b) == 0.0

    def test_similarity_partial(self):
        a = np.array([True, True, False])
        b = np.array([True, False, True])
        assert envelope_similarity(a, b) == pytest.approx(1 / 3)


class TestClusterByPeaks:
    def _trace(self, vm_id, peak_hours, n_hours=100):
        util = np.full(n_hours, 0.1)
        util[list(peak_hours)] = 0.9
        return make_server_trace(vm_id, util, np.full(n_hours, 1.0))

    def test_copeaking_servers_share_cluster(self):
        ts = TraceSet(
            "c",
            [
                self._trace("a", range(0, 10)),
                self._trace("b", range(0, 10)),
                self._trace("c", range(50, 60)),
            ],
        )
        clusters = cluster_by_peaks(ts, similarity_threshold=0.5)
        assert clusters.cluster_for("a") == clusters.cluster_for("b")
        assert clusters.cluster_for("a") != clusters.cluster_for("c")
        assert clusters.n_clusters == 2

    def test_members_listing(self):
        ts = TraceSet(
            "c", [self._trace("a", range(0, 10)), self._trace("b", range(0, 10))]
        )
        clusters = cluster_by_peaks(ts, similarity_threshold=0.5)
        assert set(clusters.members(clusters.cluster_for("a"))) == {"a", "b"}

    def test_unknown_vm(self):
        ts = TraceSet("c", [self._trace("a", range(0, 10))])
        clusters = cluster_by_peaks(ts)
        with pytest.raises(TraceError):
            clusters.cluster_for("zz")

    def test_every_vm_assigned(self, generated_trace_set):
        clusters = cluster_by_peaks(generated_trace_set)
        assert set(clusters.vm_ids) == set(generated_trace_set.vm_ids)
        assert all(c >= 0 for c in clusters.cluster_of)
