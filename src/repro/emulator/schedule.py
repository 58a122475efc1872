"""Placement schedules: which placement is live during which hours.

The emulator replays traces against a *schedule*.  Semi-static plans are
one placement covering the whole evaluation window; dynamic plans are one
placement per consolidation interval.  A :class:`PlacementSchedule`
normalizes both into an ordered list of :class:`ScheduledPlacement`
segments that tile the window exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Sequence, Tuple

from repro.exceptions import EmulationError
from repro.placement.plan import Placement

__all__ = ["ScheduledPlacement", "PlacementSchedule"]


@dataclass(frozen=True)
class ScheduledPlacement:
    """One placement, live for ``[start_hour, end_hour)``."""

    placement: Placement
    start_hour: float
    end_hour: float

    def __post_init__(self) -> None:
        if self.end_hour <= self.start_hour:
            raise EmulationError(
                f"empty segment [{self.start_hour}, {self.end_hour})"
            )

    @property
    def duration_hours(self) -> float:
        return self.end_hour - self.start_hour


@dataclass(frozen=True)
class PlacementSchedule:
    """An ordered, gap-free sequence of placements over a window."""

    segments: Tuple[ScheduledPlacement, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise EmulationError("schedule needs at least one segment")
        for previous, current in zip(self.segments, self.segments[1:]):
            if current.start_hour != previous.end_hour:
                raise EmulationError(
                    f"schedule gap/overlap at hour {previous.end_hour} -> "
                    f"{current.start_hour}"
                )

    @classmethod
    def static(
        cls, placement: Placement, duration_hours: float
    ) -> "PlacementSchedule":
        """A single placement covering the whole window (semi-static)."""
        return cls(
            segments=(
                ScheduledPlacement(
                    placement=placement, start_hour=0.0, end_hour=duration_hours
                ),
            )
        )

    @classmethod
    def periodic(
        cls, placements: Sequence[Placement], interval_hours: float
    ) -> "PlacementSchedule":
        """One placement per consolidation interval (dynamic)."""
        if interval_hours <= 0:
            raise EmulationError(
                f"interval_hours must be > 0, got {interval_hours}"
            )
        segments = tuple(
            ScheduledPlacement(
                placement=placement,
                start_hour=index * interval_hours,
                end_hour=(index + 1) * interval_hours,
            )
            for index, placement in enumerate(placements)
        )
        return cls(segments=segments)

    @property
    def start_hour(self) -> float:
        return self.segments[0].start_hour

    @property
    def end_hour(self) -> float:
        return self.segments[-1].end_hour

    @property
    def duration_hours(self) -> float:
        return self.end_hour - self.start_hour

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[ScheduledPlacement]:
        return iter(self.segments)

    @property
    def hosts_used(self) -> FrozenSet[str]:
        """Every host some segment places a VM on — the hosts that must
        physically exist, as the emulator's ``provisioned_servers``
        counts them."""
        return frozenset().union(
            *(segment.placement.hosts_used for segment in self.segments)
        )

    def total_migrations(self) -> int:
        """Live migrations the Execution step performs across the window."""
        return sum(
            len(current.placement.migrations_from(previous.placement))
            for previous, current in zip(self.segments, self.segments[1:])
        )
