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


#: Cells in one row block of :func:`_window_peaks`'s window maxima
#: (0.5 MB of float64): the kernels never hold a second full-size
#: ``(rows, points)`` matrix beside the series.
_WINDOW_BLOCK_CELLS = 1 << 16


def _wide_maxima(rows: np.ndarray, horizon: int, out: np.ndarray) -> None:
    """``out[:, s] = rows[:, s:s + horizon].max(axis=1)`` for every
    column ``s`` of ``out``, by shifted-slice ``np.maximum`` passes.

    Each pass doubles the width the running maxima cover; the last one
    overlaps two such maxima to cover exactly ``horizon`` samples, so a
    horizon of ``h`` takes about ``log2(h)`` passes (one for ``h = 2``).
    """
    n_wide = out.shape[1]
    span = 1
    covered = rows
    while 2 * span < horizon:
        covered = np.maximum(covered[:, :-span], covered[:, span:])
        span *= 2
    if span == horizon:
        out[...] = covered[:, :n_wide]
    else:
        shift = horizon - span
        np.maximum(
            covered[:, :n_wide], covered[:, shift:shift + n_wide], out=out
        )


def _window_peaks(
    full: np.ndarray,
    horizon: int,
    windows: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Row-wise window maxima, maxed across window families.

    ``windows`` holds one ``(lo, hi)`` pair of index arrays per family,
    one entry per table column; column ``j`` of the result is the
    largest ``full[:, lo[j]:hi[j]].max(axis=1)`` over the families.
    Every window must be ``horizon`` wide or a prefix (``lo == 0``).

    Per block of rows, the maxima of all ``horizon``-wide windows come
    from :func:`_wide_maxima` and the prefix maxima from
    ``np.maximum.accumulate``; each family is then one column gather.
    Max is exact, so each entry equals the direct window ``.max`` bit
    for bit.
    """
    n_rows, n_points = full.shape
    n_wide = max(n_points - horizon + 1, 0)
    n_prefix = 0
    gathers = []
    for lo, hi in windows:
        wide = hi - lo == horizon
        n_prefix = max(n_prefix, int(hi[~wide].max(initial=0)))
        gathers.append(np.where(wide, lo, n_wide + hi - 1))
    table = np.empty((n_rows, len(gathers[0])))
    if not table.size:
        return table
    width = n_wide + n_prefix
    block = max(1, _WINDOW_BLOCK_CELLS // width)
    maxima = np.empty((min(block, n_rows), width))
    for start in range(0, n_rows, block):
        rows = full[start:start + block]
        found = maxima[:len(rows)]
        if n_wide:
            _wide_maxima(rows, horizon, found[:, :n_wide])
        np.maximum.accumulate(
            rows[:, :n_prefix], axis=1, out=found[:, n_wide:]
        )
        peaks = table[start:start + block]
        np.take(found, gathers[0], axis=1, out=peaks)
        for columns in gathers[1:]:
            np.maximum(peaks, found[:, columns], out=peaks)
    return table


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
        now = np.array(starts, dtype=np.intp)
        return _window_peaks(full, horizon, [(now, now + horizon)])


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
        now = np.array(starts, dtype=np.intp)
        return _window_peaks(
            full, horizon, [(np.maximum(now - horizon, 0), now)]
        )


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
        """All interval predictions, one window family at a time.

        Each column is the largest of a few row-wise window maxima: the
        recency floor (the last ``horizon`` samples, or the whole
        history while it is shorter than one period), and the
        interval's phases ``day`` periods earlier for every lookback day
        the history covers.  A lookback window that would end at the
        start (``day * period < horizon``) lies inside the recency
        window, so it cannot raise the peak and is left out; a start
        with fewer lookback days repeats its recency window in the
        missing days' families, which max leaves unchanged.
        """
        full, starts = _check_table(full, horizon, starts)
        now = np.array(starts, dtype=np.intp)
        recent_lo = np.where(
            now < self.period, 0, np.maximum(now - horizon, 0)
        )
        windows = [(recent_lo, now)]
        days = np.minimum(self.lookback_days, now // self.period)
        for day in range(1, int(days.max(initial=0)) + 1):
            if day * self.period < horizon:
                continue
            covered = day <= days
            lo = now - day * self.period
            windows.append(
                (
                    np.where(covered, lo, recent_lo),
                    np.where(covered, lo + horizon, now),
                )
            )
        table = _window_peaks(full, horizon, windows)
        table *= 1.0 + self.safety_margin
        return table
