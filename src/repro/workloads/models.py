"""Statistical building blocks for synthetic enterprise workload traces.

The trace generator composes these primitives to reproduce the workload
properties the paper measures in Section 4:

* diurnal business-hour cycles and weekend dips
  (:func:`diurnal_profile_matrix`, :func:`weekly_profile`) — the
  medium-term variation semi-static consolidation exploits,
* multiplicative lognormal burstiness (:func:`lognormal_noise`) and
  additive Pareto spikes (scattered by the generator's
  ``_add_spikes_inplace``) — the heavy-tailed short-term variation
  dynamic consolidation exploits (web workloads),
* autocorrelated AR(1) fluctuation (:func:`ar1_noise`,
  :func:`ar1_filter_matrix`) — the smooth load evolution of steady
  batch/compute workloads,
* scheduled batch windows (:func:`scheduled_job_matrix`) —
  nightly/periodic jobs with high but predictable peaks,
* :func:`ewma_smooth_matrix` — the slow response of memory to load that
  makes memory an order of magnitude less bursty than CPU
  (Observation 2).

The ``*_matrix`` kernels work on ``(n_vms, n_hours)`` blocks from
pre-drawn randomness; each row is bit-identical to the per-VM helper of
the same name in ``tests/reference/generation.py``.  The random
functions are deterministic given a :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.numerics import approx_eq
from repro.workloads.trace import HOURS_PER_DAY

__all__ = [
    "hour_of_day",
    "day_of_week",
    "diurnal_profile_matrix",
    "weekly_profile",
    "lognormal_noise",
    "ar1_noise",
    "ar1_filter_matrix",
    "scheduled_job_matrix",
    "ewma_smooth_matrix",
]

HOURS_PER_WEEK = 7 * HOURS_PER_DAY


def hour_of_day(n_hours: int, start_hour: int = 0) -> np.ndarray:
    """Hour-of-day (0..23) for each of ``n_hours`` consecutive hours."""
    if n_hours <= 0:
        raise ConfigurationError(f"n_hours must be > 0, got {n_hours}")
    return (np.arange(n_hours) + start_hour) % HOURS_PER_DAY


def day_of_week(n_hours: int, start_hour: int = 0) -> np.ndarray:
    """Day-of-week (0=Mon .. 6=Sun) for each hour."""
    if n_hours <= 0:
        raise ConfigurationError(f"n_hours must be > 0, got {n_hours}")
    return ((np.arange(n_hours) + start_hour) // HOURS_PER_DAY) % 7


def weekly_profile(
    n_hours: int, *, weekend_factor: float = 0.5, start_hour: int = 0
) -> np.ndarray:
    """Weekday = 1.0, weekend (Sat/Sun) = ``weekend_factor``."""
    if weekend_factor < 0:
        raise ConfigurationError(
            f"weekend_factor must be >= 0, got {weekend_factor}"
        )
    dow = day_of_week(n_hours, start_hour)
    profile = np.ones(n_hours)
    profile[dow >= 5] = weekend_factor
    return profile


def lognormal_noise(
    n_hours: int, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Mean-one multiplicative lognormal noise.

    ``sigma`` is the log-space standard deviation; the mean correction
    ``-sigma^2/2`` keeps E[noise] = 1 so it does not shift the trace mean.
    Web workloads use sigma around 1 (heavy-tailed, CoV >= 1, Obs. 1);
    steady batch uses sigma well below 1.
    """
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.ones(n_hours)
    return rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_hours)


def ar1_noise(
    n_hours: int,
    phi: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zero-mean AR(1) series: x[t] = phi * x[t-1] + eps, eps ~ N(0, sigma).

    The series is started from its stationary distribution so there is no
    burn-in transient.
    """
    if not -1.0 < phi < 1.0:
        raise ConfigurationError(f"phi must be in (-1, 1), got {phi}")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.zeros(n_hours)
    stationary_std = sigma / np.sqrt(1.0 - phi**2)
    x = np.empty(n_hours)
    x[0] = rng.normal(0.0, stationary_std)
    shocks = rng.normal(0.0, sigma, size=n_hours - 1)
    for t in range(1, n_hours):
        x[t] = phi * x[t - 1] + shocks[t - 1]
    return x


def diurnal_profile_matrix(
    n_hours: int,
    peak_hours: np.ndarray,
    *,
    amplitude: float = 1.0,
    width_hours: float = 4.0,
    start_hour: int = 0,
    weekend_factor: Optional[float] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Business-hours bump for a vector of per-VM peak hours.

    Returns an ``(n_vms, n_hours)`` matrix whose row ``i`` is
    ``1 + amplitude * exp(-d^2 / (2 width^2))``, ``d`` the circular
    distance to ``peak_hours[i]`` (and, when ``weekend_factor``
    is given, the elementwise product with :func:`weekly_profile`).  The
    profile is 24h-periodic (168h with the weekly dip folded in), so the
    bump is evaluated once per distinct hour and gathered, instead of
    recomputing ``exp`` for every trace hour.  ``out`` receives the final
    gather directly (e.g. a columnar-store row block).
    """
    if amplitude < 0:
        raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
    if width_hours <= 0:
        raise ConfigurationError(f"width_hours must be > 0, got {width_hours}")
    if n_hours <= 0 and weekend_factor is not None:
        raise ConfigurationError(f"n_hours must be > 0, got {n_hours}")
    pattern = diurnal_pattern_matrix(
        peak_hours,
        amplitude=amplitude,
        width_hours=width_hours,
        weekend_factor=weekend_factor,
    )
    return _tile_periodic(pattern, n_hours, start_hour, out)


def diurnal_pattern_matrix(
    peak_hours: np.ndarray,
    *,
    amplitude: float = 1.0,
    width_hours: float = 4.0,
    weekend_factor: Optional[float] = None,
) -> np.ndarray:
    """The periodic ``(n_vms, period)`` pattern behind the diurnal matrix.

    ``period`` is 24 hours, or 168 with the weekly dip folded in.
    Expanding it with :func:`_tile_periodic` (or gathering it modulo the
    period) reproduces :func:`diurnal_profile_matrix` bit for bit —
    consumers with a fused gather (the C kernel) start from this.
    """
    if amplitude < 0:
        raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
    if width_hours <= 0:
        raise ConfigurationError(f"width_hours must be > 0, got {width_hours}")
    peaks = np.asarray(peak_hours, dtype=float)
    if peaks.ndim != 1:
        raise ConfigurationError("peak_hours must be a 1-D array")
    hod = np.arange(HOURS_PER_DAY, dtype=float)
    distance = np.abs(hod[None, :] - peaks[:, None])
    distance = np.minimum(distance, HOURS_PER_DAY - distance)
    pattern = 1.0 + amplitude * np.exp(-(distance**2) / (2.0 * width_hours**2))
    if weekend_factor is None:
        return pattern
    # Fold the weekly dip into the (168h) pattern before expansion: the
    # product runs over 168 columns instead of n_hours.
    week = weekly_profile(HOURS_PER_WEEK, weekend_factor=weekend_factor)
    hod_week = np.asarray(hour_of_day(HOURS_PER_WEEK))
    return np.take(pattern, hod_week, axis=1) * week[None, :]


def _tile_periodic(
    pattern: np.ndarray,
    n_hours: int,
    start_hour: int,
    out: Optional[np.ndarray],
) -> np.ndarray:
    """Expand a periodic ``(n_vms, period)`` pattern to ``n_hours`` columns.

    Pure sliced copies — bit-identical to an index gather, but sequential
    writes instead of a per-element fancy-index walk.
    """
    period = pattern.shape[1]
    if out is None:
        out = np.empty((pattern.shape[0], n_hours))
    position = 0
    offset = start_hour % period
    while position < n_hours:
        span = min(period - offset, n_hours - position)
        out[:, position:position + span] = pattern[:, offset:offset + span]
        position += span
        offset = 0
    return out


def ar1_filter_matrix(
    gaussians: np.ndarray, phi: float, sigma: float
) -> np.ndarray:
    """Batched :func:`ar1_noise` from pre-drawn standard normals.

    ``gaussians`` is ``(n_vms, n_hours)`` of N(0, 1) draws: column 0 seeds
    the stationary start ``x0 = sigma/sqrt(1-phi^2) * g0`` and the rest
    are the shocks ``eps = sigma * g``.  Rows are bit-identical to
    :func:`ar1_noise` because ``Generator.normal(0, s, n)`` scales
    standard normals by exactly ``s`` and each column step performs the
    same multiply/add as the scalar loop.  A zero-hour input returns
    the empty ``(n_vms, 0)`` array.
    """
    if not -1.0 < phi < 1.0:
        raise ConfigurationError(f"phi must be in (-1, 1), got {phi}")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    if gaussians.ndim != 2:
        raise ConfigurationError("ar1_filter_matrix expects a 2-D array")
    if sigma == 0 or gaussians.shape[1] == 0:
        return np.zeros_like(gaussians)
    stationary_std = sigma / np.sqrt(1.0 - phi**2)
    # The shocks are scaled in one pass, then each column folds in its
    # predecessor in place: ``sigma*g + phi*x`` is the scalar loop's
    # ``phi*x + sigma*g`` because IEEE addition is commutative.
    out = np.multiply(gaussians, sigma)
    out[:, 0] = stationary_std * gaussians[:, 0]
    for t in range(1, gaussians.shape[1]):
        out[:, t] += phi * out[:, t - 1]
    return out


def scheduled_job_matrix(
    n_hours: int,
    *,
    period_hours: int,
    duration_hours: int,
    starts: np.ndarray,
    levels: np.ndarray,
    jitters: np.ndarray,
) -> np.ndarray:
    """Scheduled batch-job load from pre-drawn starts/levels/jitter.

    ``starts``/``levels`` are per-VM; ``jitters`` is ``(n_vms, max_occ)``
    with row ``j`` holding the jitter draws for VM ``j``'s occurrences (0
    beyond its count).  Occurrence validity is decided *before* jitter is
    applied, matching the scalar while-loop.
    """
    if period_hours <= 0:
        raise ConfigurationError(f"period_hours must be > 0, got {period_hours}")
    if duration_hours <= 0:
        raise ConfigurationError(
            f"duration_hours must be > 0, got {duration_hours}"
        )
    starts = np.asarray(starts)
    levels = np.asarray(levels, dtype=float)
    jitters = np.asarray(jitters)
    n_rows = starts.size
    load = np.zeros((n_rows, n_hours))
    if n_rows == 0 or jitters.shape[1] == 0:
        return load
    occurrences = starts[:, None] + np.arange(jitters.shape[1]) * period_hours
    begins = occurrences + jitters
    times = begins[:, :, None] + np.arange(duration_hours)
    valid = (
        (occurrences < n_hours)[:, :, None] & (times >= 0) & (times < n_hours)
    )
    row_index = np.broadcast_to(
        np.arange(n_rows)[:, None, None], times.shape
    )
    level_cube = np.broadcast_to(levels[:, None, None], times.shape)
    load[row_index[valid], times[valid]] = level_cube[valid]
    return load


def ewma_smooth_matrix(values: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average over the rows of a 2-D array.

    ``alpha`` is the weight of the *new* observation: 1.0 returns the
    input unchanged, small values respond slowly.  Each column step does
    the same ``alpha*v[t] + (1-alpha)*s[t-1]`` multiply/add as the
    per-VM loop.  A zero-hour input returns the empty ``(n, 0)`` array.
    """
    if not 0 < alpha <= 1:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigurationError("ewma_smooth_matrix expects a 2-D array")
    if approx_eq(alpha, 1.0) or values.shape[1] == 0:
        return values.copy()
    # Scale every observation once, then fold each column's predecessor
    # in place; addition is commutative, so this is bit-identical.
    out = np.multiply(values, alpha)
    out[:, 0] = values[:, 0]
    keep = 1.0 - alpha
    for t in range(1, values.shape[1]):
        out[:, t] += keep * out[:, t - 1]
    return out
