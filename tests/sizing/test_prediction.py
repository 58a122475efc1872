"""Tests for demand predictors, run through the shipped table kernel."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TraceError
from repro.sizing.prediction import (
    EwmaPredictor,
    LastIntervalPredictor,
    OraclePredictor,
    PeriodicPeakPredictor,
    Predictor,
    build_peak_table,
)
from tests.reference.prediction import predict_peak_reference


def predict(predictor, history, horizon, future=None):
    """One VM's prediction at the end of ``history``: a one-start table
    over ``history`` followed by ``future`` (only the oracle reads it)."""
    history = np.asarray(history, dtype=float)
    series = history if future is None else np.concatenate([history, future])
    table = build_peak_table(predictor, series[None, :], horizon, [history.size])
    assert table.shape == (1, 1)
    return table[0, 0]


class TestOraclePredictor:
    def test_returns_future_peak(self):
        oracle = OraclePredictor()
        history = np.ones(10)
        future = np.array([0.5, 3.0, 0.2])
        assert predict(oracle, history, 2, future) == 3.0

    def test_short_future_rejected(self):
        with pytest.raises(TraceError):
            predict(OraclePredictor(), np.ones(5), 4, np.ones(2))


class TestLastIntervalPredictor:
    def test_uses_recent_window(self):
        predictor = LastIntervalPredictor()
        history = np.array([9.0, 1.0, 2.0, 3.0])
        assert predict(predictor, history, 2) == 3.0

    def test_short_history_uses_all(self):
        predictor = LastIntervalPredictor()
        assert predict(predictor, np.array([4.0]), 10) == 4.0

    def test_ignores_future(self):
        predictor = LastIntervalPredictor()
        value = predict(
            predictor, np.array([1.0, 2.0]), 2, np.array([100.0, 100.0])
        )
        assert value == 2.0


class TestEwmaPredictor:
    def test_flat_history(self):
        predictor = EwmaPredictor(alpha=0.5)
        assert predict(predictor, np.full(12, 2.0), 3) == 2.0

    def test_weights_recent_peaks(self):
        # Interval peaks: 1, 1, 10 -> estimate leans toward 10.
        history = np.array([1.0, 1.0, 1.0, 1.0, 10.0, 10.0])
        low_alpha = predict(EwmaPredictor(alpha=0.1), history, 2)
        high_alpha = predict(EwmaPredictor(alpha=0.9), history, 2)
        assert high_alpha > low_alpha
        assert high_alpha <= 10.0

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            EwmaPredictor(alpha=0.0)

    def test_history_shorter_than_interval(self):
        predictor = EwmaPredictor()
        assert predict(predictor, np.array([3.0]), 4) == 3.0


class TestPeriodicPeakPredictor:
    def test_learns_diurnal_pattern(self):
        # Demand is 1.0 except a spike to 5.0 at hour 12 of every day.
        days = 5
        history = np.ones(days * 24)
        for day in range(days):
            history[day * 24 + 12] = 5.0
        predictor = PeriodicPeakPredictor(
            period=24, lookback_days=3, safety_margin=0.0
        )
        # Prediction for the slot that covers hour 12.
        prediction = predict(predictor, history[: 4 * 24 + 12], 2)
        assert prediction == 5.0

    def test_recency_floor(self):
        # A workload that just jumped to a new level must not be sized
        # at last week's low value.
        history = np.concatenate([np.ones(72), np.full(4, 8.0)])
        predictor = PeriodicPeakPredictor(
            period=24, lookback_days=3, safety_margin=0.0
        )
        assert predict(predictor, history, 4) >= 8.0

    def test_safety_margin_inflates(self):
        history = np.ones(72)
        base = predict(PeriodicPeakPredictor(safety_margin=0.0), history, 2)
        inflated = predict(
            PeriodicPeakPredictor(safety_margin=0.25), history, 2
        )
        assert inflated == pytest.approx(base * 1.25)

    def test_misses_unprecedented_spike(self):
        # The contention mechanism: an event the history never showed
        # is under-predicted.
        history = np.ones(96)
        future = np.array([6.0, 1.0])
        prediction = predict(
            PeriodicPeakPredictor(safety_margin=0.1), history, 2, future
        )
        assert prediction < 6.0

    def test_protocol_conformance(self):
        for predictor in (
            OraclePredictor(),
            LastIntervalPredictor(),
            EwmaPredictor(),
            PeriodicPeakPredictor(),
        ):
            assert isinstance(predictor, Predictor)

    def test_matrix_path_matches_scalar(self):
        # The table kernel must equal the per-VM scalar prediction on
        # every row (dynamic consolidation relies on it).
        rng = np.random.default_rng(8)
        history = rng.random((25, 30 * 24))
        for lookback in (1, 2, 7):
            predictor = PeriodicPeakPredictor(lookback_days=lookback)
            vector = build_peak_table(
                predictor, history, 2, [history.shape[1]]
            )[:, 0]
            scalar = np.array(
                [predict_peak_reference(predictor, row, 2) for row in history]
            )
            np.testing.assert_array_equal(vector, scalar)

    def test_matrix_path_short_history(self):
        predictor = PeriodicPeakPredictor(lookback_days=7)
        history = np.random.default_rng(0).random((4, 10))
        vector = build_peak_table(predictor, history, 2, [10])[:, 0]
        scalar = np.array(
            [predict_peak_reference(predictor, row, 2) for row in history]
        )
        np.testing.assert_array_equal(vector, scalar)

    def test_matrix_path_validation(self):
        # The table needs an (n_vms, t > 0) series and starts inside it.
        predictor = PeriodicPeakPredictor()
        with pytest.raises(TraceError):
            build_peak_table(predictor, np.ones(5), 2, [5])
        with pytest.raises(TraceError):
            build_peak_table(predictor, np.ones((2, 0)), 2, [])
        with pytest.raises(TraceError):
            build_peak_table(predictor, np.ones((2, 5)), 2, [0])
        with pytest.raises(TraceError):
            build_peak_table(predictor, np.ones((2, 5)), 2, [6])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PeriodicPeakPredictor(period=0)
        with pytest.raises(ConfigurationError):
            PeriodicPeakPredictor(lookback_days=0)
        with pytest.raises(ConfigurationError):
            PeriodicPeakPredictor(safety_margin=-0.1)
        with pytest.raises(ConfigurationError):
            predict(PeriodicPeakPredictor(), np.ones(5), 0)
