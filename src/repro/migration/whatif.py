"""What-if studies on live-migration efficiency (paper §7).

The paper's discussion singles out two research directions:

* **"Improving live migration efficiency"** — offloading the copy work
  to the target host, or out of the OS entirely (RDMA), shrinks the CPU
  the source must reserve; faster links shrink the duration.  Either
  reduces the reservation dynamic consolidation must hold, and
  Observation 7 says that reservation is exactly what keeps dynamic
  consolidation from winning on space.
* **"Enabling shorter consolidation intervals"** — handled by
  :mod:`repro.experiments.intervals`.

:data:`MIGRATION_VARIANTS` defines the technology ladder; and
:func:`reservation_for_variant` re-runs the Observation-4 reliability
study under each variant's :class:`~repro.migration.precopy.PreCopyConfig`
to get the reservation that technology would actually need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Tuple

from repro.exceptions import ConfigurationError
from repro.migration.precopy import PreCopyConfig
from repro.migration.reliability import recommended_reservation

__all__ = [
    "MigrationVariant",
    "MIGRATION_VARIANTS",
    "reservation_for_variant",
    "reservation_ladder",
]


@dataclass(frozen=True)
class MigrationVariant:
    """One live-migration implementation technology."""

    key: str
    description: str
    config: PreCopyConfig


_BASELINE = PreCopyConfig()

MIGRATION_VARIANTS: Tuple[MigrationVariant, ...] = (
    MigrationVariant(
        key="baseline-1gbe",
        description="2012-era pre-copy over 1 GbE (the paper's setting)",
        config=_BASELINE,
    ),
    MigrationVariant(
        key="10gbe",
        description="same pre-copy implementation over a 10 GbE fabric",
        config=replace(_BASELINE, bandwidth_mb_s=1100.0),
    ),
    MigrationVariant(
        key="target-offload",
        description=(
            "copy engine pulled from the target host: the source only "
            "traces dirty pages (§7's 'offloading some of this work to "
            "the target server')"
        ),
        config=replace(_BASELINE, cpu_demand_frac=0.10),
    ),
    MigrationVariant(
        key="rdma",
        description=(
            "RDMA-based copy outside the OS: minimal source CPU and a "
            "fast fabric (§7's RDMA suggestion)"
        ),
        config=replace(
            _BASELINE, cpu_demand_frac=0.05, bandwidth_mb_s=1100.0
        ),
    ),
)

_BY_KEY: Mapping[str, MigrationVariant] = {
    v.key: v for v in MIGRATION_VARIANTS
}


def get_variant(key: str) -> MigrationVariant:
    try:
        return _BY_KEY[key]
    except KeyError:
        known = ", ".join(sorted(_BY_KEY))
        raise ConfigurationError(
            f"unknown migration variant {key!r}; known: {known}"
        ) from None


def reservation_for_variant(key: str, *, seed: int = 7) -> float:
    """Reservation the Obs.-4 reliability bar demands under a variant.

    It reruns :func:`~repro.migration.reliability.recommended_reservation`
    (by default 20 load levels of 200 simulated migrations) with the
    variant's :class:`~repro.migration.precopy.PreCopyConfig` and the
    same seed, so variants differ only in their pre-copy parameters.
    """
    return recommended_reservation(config=get_variant(key).config, seed=seed)


def reservation_ladder(*, seed: int = 7) -> Tuple[Tuple[str, float], ...]:
    """(variant, required reservation) for the whole technology ladder.

    The baseline lands at the paper's 20%; better migration technology
    pushes the requirement down — feed the result into
    :func:`repro.experiments.sensitivity.run_sensitivity` to see how
    many servers the improvement buys (Observation 7 quantified).
    """
    return tuple(
        (variant.key, reservation_for_variant(variant.key, seed=seed))
        for variant in MIGRATION_VARIANTS
    )
