"""Scalar reference predictors: one VM, one interval at a time.

Each library predictor (:mod:`repro.sizing.prediction`) ships one
kernel, ``predict_peak_table``, that predicts every VM row at every
interval start at once.  This module keeps the straightforward version
it is pinned to: given one VM's demand history, predict the peak of the
next ``horizon`` samples, reading the predictor's own fields.
``tests/sizing/test_prediction_matrix.py`` compares the two bit for
bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, TraceError
from repro.sizing.prediction import (
    EwmaPredictor,
    LastIntervalPredictor,
    OraclePredictor,
    PeriodicPeakPredictor,
)

__all__ = ["peak_table_reference", "predict_peak_reference"]


def _check_history(history: np.ndarray) -> np.ndarray:
    history = np.asarray(history, dtype=float)
    if history.ndim != 1 or history.size == 0:
        raise TraceError("predictor needs a non-empty 1-D history")
    return history


def _oracle_peak(
    predictor: OraclePredictor,
    history: np.ndarray,
    horizon: int,
    actual_future: Optional[np.ndarray] = None,
) -> float:
    _check_history(history)
    if actual_future is None:
        raise ConfigurationError(
            "OraclePredictor needs the actual future demand"
        )
    future = np.asarray(actual_future, dtype=float)
    if future.size < horizon:
        raise TraceError(
            f"actual future has {future.size} samples, need {horizon}"
        )
    return float(future[:horizon].max())


def _last_interval_peak(
    predictor: LastIntervalPredictor,
    history: np.ndarray,
    horizon: int,
    actual_future: Optional[np.ndarray] = None,
) -> float:
    history = _check_history(history)
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    return float(history[-min(horizon, history.size):].max())


def _ewma_peak(
    predictor: EwmaPredictor,
    history: np.ndarray,
    horizon: int,
    actual_future: Optional[np.ndarray] = None,
) -> float:
    history = _check_history(history)
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    usable = (history.size // horizon) * horizon
    if usable == 0:
        return float(history.max())
    peaks = history[-usable:].reshape(-1, horizon).max(axis=1)
    estimate = peaks[0]
    for peak in peaks[1:]:
        estimate = predictor.alpha * peak + (1 - predictor.alpha) * estimate
    return float(estimate)


def _periodic_peak(
    predictor: PeriodicPeakPredictor,
    history: np.ndarray,
    horizon: int,
    actual_future: Optional[np.ndarray] = None,
) -> float:
    history = _check_history(history)
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    n = history.size
    samples = []
    # The next interval covers phases [n, n + horizon) mod period.
    for day in range(1, predictor.lookback_days + 1):
        start = n - day * predictor.period
        if start < 0:
            break
        end = min(start + horizon, n)
        samples.append(history[start:end])
    if samples:
        periodic_peak = max(float(s.max()) for s in samples if s.size)
    else:
        periodic_peak = float(history.max())
    recent_peak = float(history[-min(horizon, n):].max())
    return max(periodic_peak, recent_peak) * (1.0 + predictor.safety_margin)


_SCALAR = {
    OraclePredictor: _oracle_peak,
    LastIntervalPredictor: _last_interval_peak,
    EwmaPredictor: _ewma_peak,
    PeriodicPeakPredictor: _periodic_peak,
}


def predict_peak_reference(
    predictor: object,
    history: np.ndarray,
    horizon: int,
    actual_future: Optional[np.ndarray] = None,
) -> float:
    """The peak ``predictor`` forecasts for the ``horizon`` samples after
    ``history``; only the oracle reads ``actual_future``."""
    return _SCALAR[type(predictor)](predictor, history, horizon, actual_future)


def peak_table_reference(
    predictor: object,
    full: np.ndarray,
    horizon: int,
    starts: Sequence[int],
) -> np.ndarray:
    """``build_peak_table`` computed one VM and one interval at a time."""
    full = np.asarray(full, dtype=float)
    table = np.empty((full.shape[0], len(starts)))
    for column, start in enumerate(starts):
        for row in range(full.shape[0]):
            table[row, column] = predict_peak_reference(
                predictor,
                full[row, :start],
                horizon,
                full[row, start:start + horizon],
            )
    return table
