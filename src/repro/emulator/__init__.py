"""The trace-replay consolidation emulator."""

from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.results import EmulationResult
from repro.emulator.schedule import PlacementSchedule, ScheduledPlacement
from repro.emulator.verification import (
    DAXPY_MODEL,
    RUBIS_MODEL,
    VerificationReport,
    WorkloadResourceModel,
    verify_emulator_accuracy,
)

__all__ = [
    "ConsolidationEmulator",
    "DAXPY_MODEL",
    "RUBIS_MODEL",
    "VerificationReport",
    "WorkloadResourceModel",
    "verify_emulator_accuracy",
    "EmulationResult",
    "PlacementSchedule",
    "ScheduledPlacement",
]
