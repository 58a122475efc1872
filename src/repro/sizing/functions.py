"""Sizing functions: collapse a demand window into one scalar (paper §2.1).

"Since a demand estimate is made for a period with potentially multiple
predicted data points, a sizing function is used to convert multiple
predicted values to a single demand value.  The most common sizing
function used is max.  Specific algorithms use other sizing functions
like 90-percentile."

The consolidation variants map onto sizing functions as:

* Static / vanilla semi-static — :class:`MaxSizing` over the whole window,
* Stochastic (PCP) — :class:`BodyTailSizing` (body = P90, tail = max-body),
* Dynamic — :class:`MaxSizing` over each short consolidation interval
  (applied to *predicted* demand, see :mod:`repro.sizing.prediction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Tuple, Union, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError, TraceError

__all__ = [
    "SizingFunction",
    "MaxSizing",
    "MeanSizing",
    "PercentileSizing",
    "BodyTailSizing",
]


#: One reservation for a 1-D window, one per row of a ``(n_vms, t)``
#: window matrix.
Reservation = Union[float, np.ndarray]


def _check_window(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=float)
    if window.ndim not in (1, 2) or window.shape[-1] == 0:
        raise TraceError(
            "sizing expects a non-empty 1-D demand window or an "
            "(n_vms, t>0) window matrix"
        )
    return window


@runtime_checkable
class SizingFunction(Protocol):
    """Anything that maps a demand window to a scalar reservation.

    Sizing reduces over the last axis, so a ``(n_vms, t)`` window matrix
    gets one reservation per row, each equal to sizing that row alone.
    """

    def size(self, window: np.ndarray) -> Reservation:
        """Return the reservation for the window, in the window's unit."""
        ...


@dataclass(frozen=True)
class MaxSizing:
    """Reserve the window's peak — the conservative industry default."""

    def size(self, window: np.ndarray) -> Reservation:
        return _check_window(window).max(axis=-1)


@dataclass(frozen=True)
class MeanSizing:
    """Reserve the window's mean — the aggressive lower bound.

    Used in what-if analyses (the "provision only 5% CPU" argument of the
    paper's introduction), not by any of the shipped algorithms.
    """

    def size(self, window: np.ndarray) -> Reservation:
        return _check_window(window).mean(axis=-1)


@dataclass(frozen=True)
class PercentileSizing:
    """Reserve a percentile of the window (PCP's body uses the 90th)."""

    percentile: float = 90.0

    def __post_init__(self) -> None:
        if not 0 <= self.percentile <= 100:
            raise ConfigurationError(
                f"percentile must be in [0, 100], got {self.percentile}"
            )

    def size(self, window: np.ndarray) -> Reservation:
        return np.percentile(_check_window(window), self.percentile, axis=-1)


@dataclass(frozen=True)
class BodyTailSizing:
    """PCP's two-part sizing: a per-VM body and a shared tail.

    The *body* (default: 90th percentile) is reserved for every VM on a
    host; the *tail* (default: max minus body) is reserved only once per
    host, shared by the co-located VMs of different peak clusters — the
    statistical-multiplexing bet that they will not burst together.
    """

    body_percentile: float = 90.0

    def __post_init__(self) -> None:
        if not 0 <= self.body_percentile <= 100:
            raise ConfigurationError(
                f"body_percentile must be in [0, 100], got "
                f"{self.body_percentile}"
            )

    def size(self, window: np.ndarray) -> Reservation:
        """The body alone — satisfies the :class:`SizingFunction` protocol."""
        return self.split(window)[0]

    def split(self, window: np.ndarray) -> Tuple[Reservation, Reservation]:
        """Return ``(body, tail)`` with ``body + tail == window.max()``
        (per row for a window matrix)."""
        window = _check_window(window)
        body = np.percentile(window, self.body_percentile, axis=-1)
        tail = np.maximum(window.max(axis=-1) - body, 0.0)
        return body, tail
