"""Placement data structures.

A :class:`Placement` is the output of the Placement step (paper §2.1): a
mapping from VM to physical host, plus the queries the experiments need —
hosts used, VMs per host, and the migration delta between two placements
(what dynamic consolidation's Execution step would have to carry out).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

from repro.exceptions import PlacementError

__all__ = ["Placement"]


@dataclass(frozen=True)
class Placement:
    """An immutable VM → host assignment.

    The by-host index behind :meth:`vms_on`, :attr:`hosts_used` and
    :attr:`active_host_count` is built on the first of those queries,
    so a placement that is only read by VM (a shard plan on its way
    back from a pool worker, a segment being digested) never pays for
    it or carries it.
    """

    assignment: Mapping[str, str]
    _vms_by_host: Optional[Mapping[str, Tuple[str, ...]]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        frozen = dict(self.assignment)
        if not all(frozen) or not all(frozen.values()):
            raise PlacementError(
                "placement entries must have non-empty vm and host ids"
            )
        object.__setattr__(self, "assignment", frozen)

    def _by_host(self) -> Mapping[str, Tuple[str, ...]]:
        index = self._vms_by_host
        if index is None:
            by_host: Dict[str, list] = {}
            for vm_id, host_id in self.assignment.items():
                by_host.setdefault(host_id, []).append(vm_id)
            index = {host: tuple(vms) for host, vms in by_host.items()}
            object.__setattr__(self, "_vms_by_host", index)
        return index

    @classmethod
    def empty(cls) -> "Placement":
        return cls(assignment={})

    def __len__(self) -> int:
        return len(self.assignment)

    def __iter__(self) -> Iterator[str]:
        return iter(self.assignment)

    def __contains__(self, vm_id: object) -> bool:
        return vm_id in self.assignment

    def host_of(self, vm_id: str) -> str:
        try:
            return self.assignment[vm_id]
        except KeyError:
            raise PlacementError(f"VM {vm_id!r} is not placed") from None

    def vms_on(self, host_id: str) -> Tuple[str, ...]:
        """VMs assigned to a host (empty tuple for an unused host)."""
        return self._by_host().get(host_id, ())

    @property
    def hosts_used(self) -> FrozenSet[str]:
        return frozenset(self._by_host())

    @property
    def active_host_count(self) -> int:
        """Hosts with at least one VM — the paper's 'running servers'."""
        return len(self._by_host())

    def migrations_from(self, previous: "Placement") -> FrozenSet[str]:
        """VMs whose host differs from ``previous`` (new VMs excluded).

        This is the work the Execution step must perform by live
        migration when moving from one dynamic-consolidation interval to
        the next.
        """
        return frozenset(
            vm_id
            for vm_id, host_id in self.assignment.items()
            if vm_id in previous.assignment
            and previous.assignment[vm_id] != host_id
        )

    def with_assignment(self, vm_id: str, host_id: str) -> "Placement":
        """Functional update: a new placement with one extra/changed VM."""
        updated = dict(self.assignment)
        updated[vm_id] = host_id
        return Placement(assignment=updated)
