"""Server power model.

The paper computes power cost "based on the number of operational servers
and their utilization in a given consolidation interval" (Section 5.3).
We use the standard linear model from the power-management literature the
paper builds on (pMapper, BrownMap):

    P(u) = P_idle + (P_peak - P_idle) * u        for an active server
    P    = 0                                     for a powered-off server

Idle power dominating the curve is exactly what makes switching servers
off (dynamic consolidation's lever) valuable.  The model prices active
servers; the emulator zeroes the hours a host is powered off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.infrastructure.server import PhysicalServer
from repro.metrics.catalog import ServerModel

__all__ = ["LinearPowerModel"]


@dataclass(frozen=True)
class LinearPowerModel:
    """Linear-in-utilization power model for one server model."""

    idle_watts: float
    peak_watts: float

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ConfigurationError(
                f"idle_watts must be >= 0, got {self.idle_watts}"
            )
        if self.peak_watts < self.idle_watts:
            raise ConfigurationError(
                f"peak_watts ({self.peak_watts}) must be >= idle_watts "
                f"({self.idle_watts})"
            )

    @classmethod
    def from_model(cls, model: ServerModel) -> "LinearPowerModel":
        return cls(idle_watts=model.idle_watts, peak_watts=model.peak_watts)

    @classmethod
    def for_host(cls, host: PhysicalServer) -> "LinearPowerModel":
        """The host's catalog model; 160 W idle, 400 W peak without one.

        The emulator, the dynamic planner's migration-cost gate and the
        power budget all price a host through this one rule.
        """
        if host.model is not None:
            return cls.from_model(host.model)
        return _UNCATALOGUED

    def power_watts(self, utilization: float) -> float:
        """Power draw of an active server at a CPU utilization fraction.

        Utilization is clipped to [0, 1]: demand beyond capacity cannot
        draw more power than the fully-loaded server.
        """
        u = min(max(utilization, 0.0), 1.0)
        return self.idle_watts + (self.peak_watts - self.idle_watts) * u

    def power_watts_array(self, utilizations: "np.ndarray") -> "np.ndarray":
        """Vectorized power for an array of *active* server utilizations."""
        u = np.clip(np.asarray(utilizations, dtype=float), 0.0, 1.0)
        return self.idle_watts + (self.peak_watts - self.idle_watts) * u


#: What a host with no catalog model attached draws.
_UNCATALOGUED = LinearPowerModel(idle_watts=160.0, peak_watts=400.0)
