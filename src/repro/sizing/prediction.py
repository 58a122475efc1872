"""Demand predictors for dynamic consolidation (paper §2.1, *Prediction*).

Dynamic consolidation sizes each VM at "the estimated peak demand in the
consolidation window" (§5.1) — *estimated*, because the window lies in
the future.  Prediction error is the mechanism behind the paper's
contention results (Figs. 8, 9): a spike that the predictor did not see
coming lands on a tightly packed host.

All predictors implement :class:`Predictor`: given the whole demand
series of every VM and a list of interval starts, predict the peak
demand of the ``horizon`` samples after each start from the samples
before it.

* :class:`OraclePredictor` — cheats by looking at the actual future;
  isolates packing effects from prediction effects in ablations.
* :class:`LastIntervalPredictor` — peak of the most recent interval.
* :class:`EwmaPredictor` — EWMA of past interval peaks.
* :class:`PeriodicPeakPredictor` — the default: max over the same
  time-of-day in the last few days plus a safety margin; tracks diurnal
  patterns well, misses heavy-tail spikes — exactly the error profile
  enterprise capacity tools exhibit.

Each predictor has one kernel, ``predict_peak_table``, that fills the
whole ``(n_vms, n_intervals)`` peak table a dynamic plan needs; the
module-level :func:`build_peak_table` validates the series and calls
it.  The per-VM scalar predictions the kernels are pinned to, bit for
bit, live in ``tests/reference/prediction.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError, TraceError

__all__ = [
    "Predictor",
    "OraclePredictor",
    "LastIntervalPredictor",
    "EwmaPredictor",
    "PeriodicPeakPredictor",
    "build_peak_table",
]


def _check_series(full: np.ndarray) -> np.ndarray:
    full = np.asarray(full, dtype=float)
    if full.ndim != 2 or full.shape[1] == 0:
        raise TraceError("peak table expects an (n, t>0) demand series")
    return full


def _check_horizon(horizon: int) -> None:
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")


def _check_table(
    full: np.ndarray,
    horizon: int,
    starts: Sequence[int],
    *,
    need_future: bool = False,
) -> Tuple[np.ndarray, List[int]]:
    """Validated ``(full, starts)`` for a ``predict_peak_table`` call."""
    full = _check_series(full)
    _check_horizon(horizon)
    n_points = full.shape[1]
    starts = [int(s) for s in starts]
    for start in starts:
        if start < 1:
            raise TraceError("predictor needs a non-empty 1-D history")
        if need_future and start + horizon > n_points:
            raise TraceError(
                f"actual future has {max(n_points - start, 0)} samples, "
                f"need {horizon}"
            )
        if start > n_points:
            raise TraceError(
                f"table start {start} beyond the {n_points}-point series"
            )
    return full, starts


def build_peak_table(
    predictor: "Predictor",
    full: np.ndarray,
    horizon: int,
    starts: Sequence[int],
) -> np.ndarray:
    """Peak predictions for every VM row at every interval start.

    ``full`` is the whole ``(n_vms, n_points)`` demand series (history
    and evaluation concatenated); column ``j`` of the result is the
    peak predicted for ``[starts[j], starts[j] + horizon)`` from
    ``full[:, :starts[j]]``.  Validates the series and the horizon,
    then runs the predictor's ``predict_peak_table`` kernel.
    """
    full = _check_series(full)
    _check_horizon(horizon)
    return predictor.predict_peak_table(full, horizon, starts)


@runtime_checkable
class Predictor(Protocol):
    """Predicts the peak demand of the ``horizon`` samples after each
    interval start."""

    def predict_peak_table(
        self,
        full: np.ndarray,
        horizon: int,
        starts: Sequence[int],
    ) -> np.ndarray:
        """Return the ``(n_vms, len(starts))`` predicted-peak table.

        Column ``j`` is the peak predicted for ``[starts[j], starts[j] +
        horizon)`` from the history ``full[:, :starts[j]]``.  Only
        oracle-style predictors may read ``full`` at or after a start.
        """
        ...


@dataclass(frozen=True)
class OraclePredictor:
    """Perfect foresight: returns the actual future peak.

    Reads the future from the series itself, so every start needs
    ``horizon`` samples after it; used to separate "dynamic
    consolidation with perfect prediction" from "dynamic consolidation
    as deployable".
    """

    def predict_peak_table(
        self,
        full: np.ndarray,
        horizon: int,
        starts: Sequence[int],
    ) -> np.ndarray:
        """The actual peak of each interval, one window max per start."""
        full, starts = _check_table(full, horizon, starts, need_future=True)
        table = np.empty((full.shape[0], len(starts)))
        for j, now in enumerate(starts):
            table[:, j] = full[:, now:now + horizon].max(axis=1)
        return table


@dataclass(frozen=True)
class LastIntervalPredictor:
    """Peak of the most recent ``horizon`` samples (naive persistence)."""

    def predict_peak_table(
        self,
        full: np.ndarray,
        horizon: int,
        starts: Sequence[int],
    ) -> np.ndarray:
        """The peak of the window ending at each start (all of the
        history when it is shorter than ``horizon``)."""
        full, starts = _check_table(full, horizon, starts)
        table = np.empty((full.shape[0], len(starts)))
        for j, now in enumerate(starts):
            table[:, j] = full[:, now - min(horizon, now):now].max(axis=1)
        return table


@dataclass(frozen=True)
class EwmaPredictor:
    """EWMA over past interval peaks.

    The history is chopped into ``horizon``-sized intervals (most recent
    last); their peaks are smoothed with factor ``alpha``.  Responds to
    trends faster than :class:`PeriodicPeakPredictor` but has no notion
    of time-of-day.
    """

    alpha: float = 0.3

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError(
                f"alpha must be in (0, 1], got {self.alpha}"
            )

    def predict_peak_table(
        self,
        full: np.ndarray,
        horizon: int,
        starts: Sequence[int],
    ) -> np.ndarray:
        """All interval predictions via one incremental fold per phase.

        The blocks of a history ending at ``now`` start at phase ``now %
        horizon``, so every start of one phase folds a prefix of the
        same block sequence: taken in ascending order, each start
        extends the previous fold by its newly completed blocks.  Each
        step evaluates exactly the scalar EWMA expression, broadcast
        over the VM rows.
        """
        full, starts = _check_table(full, horizon, starts)
        n_rows = full.shape[0]
        table = np.empty((n_rows, len(starts)))
        phases: Dict[int, List[int]] = {}
        for j in sorted(range(len(starts)), key=starts.__getitem__):
            phases.setdefault(starts[j] % horizon, []).append(j)
        for phase, columns in phases.items():
            n_blocks = starts[columns[-1]] // horizon
            peaks = full[:, phase:phase + n_blocks * horizon].reshape(
                n_rows, n_blocks, horizon
            ).max(axis=2)
            estimate = peaks[:, 0] if n_blocks else None
            folded = 1
            for j in columns:
                blocks = starts[j] // horizon
                if blocks == 0:
                    table[:, j] = full[:, :starts[j]].max(axis=1)
                    continue
                while folded < blocks:
                    estimate = (
                        self.alpha * peaks[:, folded]
                        + (1 - self.alpha) * estimate
                    )
                    folded += 1
                table[:, j] = estimate
        return table


@dataclass(frozen=True)
class PeriodicPeakPredictor:
    """Same-time-of-day peak over recent days, with a safety margin.

    The prediction for the next interval is the maximum demand observed
    during the same interval of the day over the last ``lookback_days``
    days, inflated by ``safety_margin``.  A recency floor (the last
    ``horizon`` samples) protects against a workload that just shifted
    to a new level the daily history has not caught up with.
    """

    period: int = 24
    lookback_days: int = 7
    safety_margin: float = 0.10

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"period must be > 0, got {self.period}")
        if self.lookback_days <= 0:
            raise ConfigurationError(
                f"lookback_days must be > 0, got {self.lookback_days}"
            )
        if self.safety_margin < 0:
            raise ConfigurationError(
                f"safety_margin must be >= 0, got {self.safety_margin}"
            )

    def predict_peak_table(
        self,
        full: np.ndarray,
        horizon: int,
        starts: Sequence[int],
    ) -> np.ndarray:
        """All interval predictions, one vectorized column per start.

        Each column is a few row-wise maxima over the VM rows: the
        recency floor (the last ``horizon`` samples), the interval's
        phases ``day`` periods earlier for every lookback day the
        history covers, and the whole history while it is shorter than
        one period.
        """
        full, starts = _check_table(full, horizon, starts)
        table = np.empty((full.shape[0], len(starts)))
        for j, now in enumerate(starts):
            peaks = full[:, now - min(horizon, now):now].max(axis=1)
            if now < self.period:
                peaks = np.maximum(peaks, full[:, :now].max(axis=1))
            days = min(self.lookback_days, now // self.period)
            for day in range(1, days + 1):
                start = now - day * self.period
                peaks = np.maximum(
                    peaks, full[:, start:min(start + horizon, now)].max(axis=1)
                )
            table[:, j] = peaks * (1.0 + self.safety_margin)
        return table
