"""Placement data structures.

A :class:`Placement` is the output of the Placement step (paper §2.1): a
mapping from VM to physical host, plus the queries the experiments need —
hosts used, VMs per host, and the migration delta between two placements
(what dynamic consolidation's Execution step would have to carry out).

It is held as indices in *assignment order*, the order in which the
emulator's scatter-add and the power budget fold demands, so each
producer's order fixes every float they compute.  :meth:`indices` is
the one place where ids become a caller's own positions.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple, Type,
)

import numpy as np

from repro.exceptions import PlacementError

__all__ = ["Placement"]


class Placement:
    """An immutable VM → host assignment: entry ``k`` places
    ``vm_ids[rows[k]]`` (no row twice) on ``host_ids[hosts[k]]``.

    ``Placement(mapping)`` packs a mapping; planners hand over indices
    (:meth:`from_indices`) over id tuples their segments share, across
    a pickle round trip too.  :attr:`assignment` is built on first use.
    """

    __slots__ = ("vm_ids", "host_ids", "rows", "hosts", "_mapping")

    def __init__(self, assignment: Mapping[str, str]) -> None:
        mapping = dict(assignment)
        if not all(mapping) or not all(mapping.values()):
            raise PlacementError(
                "placement entries must have non-empty vm and host ids"
            )
        codes: Dict[str, int] = {}
        hosts = [codes.setdefault(h, len(codes)) for h in mapping.values()]
        self.__setstate__((mapping, codes, range(len(mapping)), hosts))
        object.__setattr__(self, "_mapping", MappingProxyType(mapping))

    @classmethod
    def from_indices(
        cls,
        vm_ids: Tuple[str, ...],
        host_ids: Tuple[str, ...],
        rows: Sequence[int],
        hosts: Sequence[int],
    ) -> "Placement":
        """Keeps the id tuples; the index arrays are stored as int32."""
        placement = cls.__new__(cls)
        placement.__setstate__((vm_ids, host_ids, rows, hosts))
        return placement

    @classmethod
    def empty(cls) -> "Placement":
        return cls(assignment={})

    def __getstate__(self) -> tuple:
        return self.vm_ids, self.host_ids, self.rows, self.hosts

    def __setstate__(self, state: tuple) -> None:
        vm_ids, host_ids, rows, hosts = state
        rows = np.asarray(rows, dtype=np.int32)  # half intp's pickled size
        hosts = np.asarray(hosts, dtype=np.int32)
        if rows.ndim != 1 or rows.shape != hosts.shape:
            raise PlacementError("placement rows and hosts must pair up")
        values = (tuple(vm_ids), tuple(host_ids), rows, hosts, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Placement is immutable: cannot set {name}")

    @property
    def assignment(self) -> Mapping[str, str]:
        """The VM → host mapping, in assignment order."""
        if self._mapping is None:
            pairs = zip(self.rows.tolist(), self.hosts.tolist())
            vm_ids, host_ids = self.vm_ids, self.host_ids
            mapping = {vm_ids[row]: host_ids[host] for row, host in pairs}
            object.__setattr__(self, "_mapping", MappingProxyType(mapping))
        return self._mapping

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self.assignment == other.assignment

    def __repr__(self) -> str:
        return f"Placement(assignment={dict(self.assignment)!r})"

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self.assignment)

    def __contains__(self, vm_id: object) -> bool:
        return vm_id in self.assignment

    def host_of(self, vm_id: str) -> str:
        try:
            return self.assignment[vm_id]
        except KeyError:
            raise PlacementError(f"VM {vm_id!r} is not placed") from None

    def indices(
        self,
        vm_index: Mapping[str, int],
        host_index: Mapping[str, int],
        memo: Optional[dict] = None,
        unknown: Optional[Type[Exception]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(vm_rows, host_rows)``: each entry's VM and host as the
        caller's positions, ``-1`` where its index lacks the id — or, with
        ``unknown``, that error naming the first such host, else VM.  A
        ``memo`` passed to successive calls looks each id tuple up once.
        """
        memo = {} if memo is None else memo
        vm_rows = _lookup(self.vm_ids, vm_index, memo)[self.rows]
        host_rows = _lookup(self.host_ids, host_index, memo)[self.hosts]
        for found, ids, codes, kind in (
            (host_rows, self.host_ids, self.hosts, "host"),
            (vm_rows, self.vm_ids, self.rows, "VM"),
        ):
            if unknown is not None and found.min(initial=0) < 0:
                name = ids[codes[found < 0][0]]
                raise unknown(f"placement refers to unknown {kind} {name!r}")
        return vm_rows, host_rows

    def vms_on(self, host_id: str) -> Tuple[str, ...]:
        """VMs assigned to a host (empty tuple for an unused host)."""
        return tuple(vm for vm, h in self.assignment.items() if h == host_id)

    @property
    def hosts_used(self) -> FrozenSet[str]:
        used = np.unique(self.hosts).tolist()
        return frozenset(map(self.host_ids.__getitem__, used))

    @property
    def active_host_count(self) -> int:
        """Hosts with at least one VM — the paper's 'running servers'."""
        return len(np.unique(self.hosts))

    def migrations_from(self, previous: "Placement") -> FrozenSet[str]:
        """VMs whose host differs from ``previous`` (new VMs excluded).

        This is the work the Execution step must perform by live
        migration when moving from one dynamic-consolidation interval to
        the next.
        """
        ids = (self.vm_ids, self.host_ids)
        rows, hosts = previous.rows, previous.hosts
        if (previous.vm_ids, previous.host_ids) != ids:
            rows, hosts = previous.indices(
                *({name: k for k, name in enumerate(t)} for t in ids)
            )
        # Each VM row's previous host: -2 where ``previous`` does not
        # place it, -1 where its host is not one of ours.
        before = np.full(len(self.vm_ids), -2)
        before[rows[rows >= 0]] = hosts[rows >= 0]
        then = before[self.rows]
        moved = self.rows[(then != -2) & (then != self.hosts)].tolist()
        return frozenset(map(self.vm_ids.__getitem__, moved))


def _lookup(ids: tuple, index: Mapping[str, int], memo: dict) -> np.ndarray:
    key = (id(ids), id(index))
    if key not in memo:
        # Holding both objects keeps their ids from being reused.
        found = [index.get(name, -1) for name in ids]
        memo[key] = (ids, index, np.array(found, dtype=np.intp))
    return memo[key][2]
