"""Live migration: pre-copy simulation, cost model, reliability study."""

from repro.migration.cost import MigrationCostModel
from repro.migration.precopy import (
    MigrationOutcome,
    PreCopyConfig,
    simulate_migration,
)
from repro.migration.reliability import (
    ReliabilityPoint,
    recommended_reservation,
    reliability_sweep,
)
from repro.migration.whatif import (
    MIGRATION_VARIANTS,
    MigrationVariant,
    get_variant,
    reservation_for_variant,
    reservation_ladder,
)

__all__ = [
    "MIGRATION_VARIANTS",
    "MigrationCostModel",
    "MigrationVariant",
    "get_variant",
    "reservation_for_variant",
    "reservation_ladder",
    "MigrationOutcome",
    "PreCopyConfig",
    "ReliabilityPoint",
    "recommended_reservation",
    "reliability_sweep",
    "simulate_migration",
]
