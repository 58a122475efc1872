"""Datacenter topology: a pool of physical hosts organised into racks.

The consolidation target in the paper is a farm of identical
virtualization blades (HS23 Elite).  :func:`build_target_pool` constructs
such a farm with rack/subnet topology so that topology constraints have
something to bind to.  :class:`Datacenter` is a thin indexed container
over :class:`~repro.infrastructure.server.PhysicalServer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.metrics.catalog import HS23_ELITE, ServerModel

__all__ = ["Datacenter", "build_target_pool", "target_pool_hosts"]


@dataclass
class Datacenter:
    """An indexed collection of physical hosts.

    Hosts are kept in insertion order (placement heuristics rely on a
    stable iteration order for reproducibility) and indexed by
    ``host_id`` for O(1) lookup.
    """

    name: str
    _hosts: List[PhysicalServer] = field(default_factory=list)
    _by_id: Dict[str, PhysicalServer] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("datacenter name must be non-empty")
        # Allow construction with an initial host list.
        hosts, self._hosts = list(self._hosts), []
        self._by_id = {}
        for host in hosts:
            self.add_host(host)

    def add_host(self, host: PhysicalServer) -> None:
        """Add a host; host_ids must be unique within the datacenter."""
        if host.host_id in self._by_id:
            raise ConfigurationError(
                f"duplicate host_id {host.host_id!r} in datacenter {self.name!r}"
            )
        self._hosts.append(host)
        self._by_id[host.host_id] = host

    @property
    def hosts(self) -> Tuple[PhysicalServer, ...]:
        return tuple(self._hosts)

    def host(self, host_id: str) -> PhysicalServer:
        try:
            return self._by_id[host_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown host {host_id!r} in datacenter {self.name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self) -> Iterator[PhysicalServer]:
        return iter(self._hosts)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._by_id

    def racks(self) -> Tuple[str, ...]:
        """Distinct rack labels, in first-seen order."""
        seen: Dict[str, None] = {}
        for host in self._hosts:
            if host.rack is not None:
                seen.setdefault(host.rack, None)
        return tuple(seen)

    def hosts_in_rack(self, rack: str) -> Tuple[PhysicalServer, ...]:
        return tuple(h for h in self._hosts if h.rack == rack)

    def total_cpu_rpe2(self) -> float:
        return sum(h.cpu_rpe2 for h in self._hosts)

    def total_memory_gb(self) -> float:
        return sum(h.memory_gb for h in self._hosts)


def build_target_pool(
    name: str,
    host_count: int,
    *,
    model: ServerModel = HS23_ELITE,
    hosts_per_rack: int = 14,
    subnets: Optional[Sequence[str]] = None,
) -> Datacenter:
    """Build a homogeneous consolidation target pool.

    Parameters
    ----------
    name:
        Datacenter name (used in host ids: ``{name}-h0001``).
    host_count:
        Number of identical blades to provision.  Consolidation planning
        typically over-provisions this pool and reports how many hosts a
        plan actually uses.
    model:
        Hardware model for every blade (default: the HS23 Elite anchor).
    hosts_per_rack:
        Blades per rack enclosure; 14 matches a BladeCenter H chassis.
    subnets:
        Optional subnet labels assigned round-robin per rack.  Defaults to
        one subnet per rack.

    Host ``index`` is built by :func:`target_pool_hosts` from the same
    arguments and that index alone, so a caller that needs a few of the
    pool's hosts builds only those.
    """
    if host_count <= 0:
        raise ConfigurationError(f"host_count must be > 0, got {host_count}")
    dc = Datacenter(name=name)
    for host in target_pool_hosts(
        name,
        range(host_count),
        model=model,
        hosts_per_rack=hosts_per_rack,
        subnets=subnets,
    ):
        dc.add_host(host)
    return dc


def target_pool_hosts(
    name: str,
    indices: Iterable[int],
    *,
    model: ServerModel = HS23_ELITE,
    hosts_per_rack: int = 14,
    subnets: Optional[Sequence[str]] = None,
) -> List[PhysicalServer]:
    """Hosts ``indices`` of :func:`build_target_pool`'s pool, in order.

    Each host depends only on the pool's arguments and its own index:
    racks fill ``hosts_per_rack`` consecutive indices, and a rack's
    subnet is its own or ``subnets`` round-robin by rack.  The hosts
    share one spec, as the pool's do.
    """
    if hosts_per_rack <= 0:
        raise ConfigurationError(
            f"hosts_per_rack must be > 0, got {hosts_per_rack}"
        )
    spec = ServerSpec.from_model(model)
    hosts = []
    for index in indices:
        rack_index = index // hosts_per_rack
        if subnets:
            subnet = subnets[rack_index % len(subnets)]
        else:
            subnet = f"{name}-net{rack_index:03d}"
        hosts.append(
            PhysicalServer(
                host_id=f"{name}-h{index:04d}",
                spec=spec,
                rack=f"{name}-rack{rack_index:03d}",
                subnet=subnet,
                model=model,
            )
        )
    return hosts
