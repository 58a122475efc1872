"""Reusable incremental placement state (assignment + accumulators).

:class:`IncrementalPlan` is the array state the dynamic planner carries
across intervals — per-VM assignment rows, per-host resource
accumulators, and per-host VM row lists — refactored out of
``core/dynamic_vector.py`` so the online controller
(:mod:`repro.service`) can replan *deltas* against the same state the
batch planner packs with.

Two mutation disciplines coexist, each with its own exactness contract:

* **Append folds** (:meth:`assign`) — the batch planner's discipline:
  bodies accumulate ``+=`` in FFD placement order and are never
  recomputed, reproducing the scalar reference's left folds bit for bit
  (see ``docs/PERFORMANCE.md``).
* **Canonical folds** (:meth:`apply_delta`, :meth:`set_demands`,
  :meth:`from_assignment`) — the online controller's discipline: after
  every delta the touched hosts' bodies are *re-folded* over their VM
  rows in ascending row order.  Because the fold order is canonical, a
  plan mutated by any sequence of deltas is **bitwise identical** to a
  plan rebuilt from scratch from the same assignment — the property the
  incremental-vs-batch equivalence suite pins
  (``tests/core/test_incremental_plan.py``), and the reason float
  drift can never accumulate across a long-running controller's life.

Every caller that empties a host — the dynamic planner, the power
budget, the sharded reconciler and the online controller — finds the
targets with the one read-only search, :meth:`vacate_targets`, ordering
candidates by :meth:`residual` where it wants fullest-first.  The
dynamic planner first drops, in O(1) per source, sources the other
candidates' spare capacity cannot hold (:meth:`vacate_ruled_out`).  The
planner and the power budget commit its moves with append folds
(:meth:`commit_vacate`), the reconciler and the controller with
:meth:`apply_delta`.

:meth:`apply_delta` is atomic: either every move commits or the plan is
restored to its pre-call state, so a mid-delta misfit can never leave
corrupt accumulators behind (the controller's fault-tolerance story
leans on this).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import PlacementError
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand

__all__ = ["HostCapacities", "IncrementalPlan"]

#: Admission slack: a fit compares against ``capacity + 1e-9``, as in
#: ``pack()``.
_SLACK = 1e-9


class HostCapacities:
    """Bound-scaled per-host capacity vectors, fixed for a plan's life.

    Python-float lists carry the exactness contract (every comparison
    uses the same ``capacity + 1e-9`` float ``pack()``'s bins derive);
    the numpy CPU and memory mirrors serve vectorized fill prefilters.
    """

    __slots__ = (
        "host_ids", "n", "utilization_bound",
        "cap_cpu", "cap_mem", "cap_net", "cap_dsk",
        "eps_cpu", "eps_mem", "eps_net", "eps_dsk",
        "cap_cpu_np", "cap_mem_np",
        "index_of",
    )

    def __init__(
        self,
        hosts: Sequence[PhysicalServer],
        utilization_bound: float,
    ) -> None:
        if not hosts:
            raise PlacementError("no hosts to pack onto")
        self.host_ids: List[str] = [h.host_id for h in hosts]
        self.n = len(hosts)
        self.utilization_bound = utilization_bound
        # Capacities scaled by the bound, as pack() scales them, as
        # python floats.
        self.cap_cpu = [h.cpu_rpe2 * utilization_bound for h in hosts]
        self.cap_mem = [h.memory_gb * utilization_bound for h in hosts]
        self.cap_net = [
            h.spec.network_mbps * utilization_bound for h in hosts
        ]
        self.cap_dsk = [h.spec.disk_mbps * utilization_bound for h in hosts]
        # fits() compares against capacity + 1e-9; precomputing the sum
        # reproduces the same float the reference derives per call.
        self.eps_cpu = [c + _SLACK for c in self.cap_cpu]
        self.eps_mem = [c + _SLACK for c in self.cap_mem]
        self.eps_net = [c + _SLACK for c in self.cap_net]
        self.eps_dsk = [c + _SLACK for c in self.cap_dsk]
        self.cap_cpu_np = np.array(self.cap_cpu)
        self.cap_mem_np = np.array(self.cap_mem)
        self.index_of: Dict[str, int] = {
            host_id: i for i, host_id in enumerate(self.host_ids)
        }


class IncrementalPlan:
    """Mutable VM→host assignment with per-host resource accumulators."""

    __slots__ = (
        "caps", "vm_ids", "cpu", "mem", "net", "dsk",
        "assignment_rows", "vm_rows_of_host",
        "body_cpu", "body_mem", "body_net", "body_dsk",
        "_row_of",
    )

    def __init__(
        self,
        caps: HostCapacities,
        vm_ids: Sequence[str],
        cpu: Sequence[float],
        mem: Sequence[float],
        net: Optional[Sequence[float]] = None,
        dsk: Optional[Sequence[float]] = None,
    ) -> None:
        n_vms = len(vm_ids)
        if len(cpu) != n_vms or len(mem) != n_vms:
            raise PlacementError(
                "IncrementalPlan: demand vectors must match vm_ids"
            )
        self.caps = caps
        self.vm_ids: List[str] = list(vm_ids)
        self.cpu: List[float] = [float(v) for v in cpu]
        self.mem: List[float] = [float(v) for v in mem]
        self.net: List[float] = (
            [float(v) for v in net] if net is not None else [0.0] * n_vms
        )
        self.dsk: List[float] = (
            [float(v) for v in dsk] if dsk is not None else [0.0] * n_vms
        )
        if len(self.net) != n_vms or len(self.dsk) != n_vms:
            raise PlacementError(
                "IncrementalPlan: I/O demand vectors must match vm_ids"
            )
        self.assignment_rows: List[int] = [-1] * n_vms
        self.vm_rows_of_host: List[List[int]] = [
            [] for _ in range(caps.n)
        ]
        self.body_cpu: List[float] = [0.0] * caps.n
        self.body_mem: List[float] = [0.0] * caps.n
        self.body_net: List[float] = [0.0] * caps.n
        self.body_dsk: List[float] = [0.0] * caps.n
        self._row_of: Dict[str, int] = {
            vm_id: row for row, vm_id in enumerate(self.vm_ids)
        }
        if len(self._row_of) != n_vms:
            raise PlacementError("IncrementalPlan: duplicate vm_ids")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_demands(
        cls, caps: HostCapacities, demands: Sequence[VMDemand]
    ) -> "IncrementalPlan":
        """Unassigned plan over sized scalar demands (controller path)."""
        return cls(
            caps,
            [d.vm_id for d in demands],
            [d.cpu_rpe2 for d in demands],
            [d.memory_gb for d in demands],
            [d.network_mbps for d in demands],
            [d.disk_mbps for d in demands],
        )

    @classmethod
    def from_assignment(
        cls,
        caps: HostCapacities,
        vm_ids: Sequence[str],
        cpu: Sequence[float],
        mem: Sequence[float],
        assignment: Dict[str, str],
        net: Optional[Sequence[float]] = None,
        dsk: Optional[Sequence[float]] = None,
    ) -> "IncrementalPlan":
        """Rebuild canonical-fold state from scratch for an assignment.

        The from-scratch twin of a delta-mutated plan: per host, VM rows
        ascend and bodies are folded in that order, so the result is
        bitwise comparable with any plan maintained via
        :meth:`apply_delta` / :meth:`set_demands`.
        """
        plan = cls(caps, vm_ids, cpu, mem, net, dsk)
        for vm_id, host_id in assignment.items():
            row = plan.row_of(vm_id)
            host = plan._host_index(host_id)
            plan.assignment_rows[row] = host
            plan.vm_rows_of_host[host].append(row)
        for host in range(caps.n):
            if plan.vm_rows_of_host[host]:
                plan._refold_host(host)
        return plan

    # -- queries ---------------------------------------------------------

    @property
    def n_vms(self) -> int:
        return len(self.vm_ids)

    @property
    def n_hosts(self) -> int:
        return self.caps.n

    def row_of(self, vm_id: str) -> int:
        try:
            return self._row_of[vm_id]
        except KeyError:
            raise PlacementError(
                f"unknown vm_id {vm_id!r} in IncrementalPlan"
            ) from None

    def _host_index(self, host_id: str) -> int:
        try:
            return self.caps.index_of[host_id]
        except KeyError:
            raise PlacementError(
                f"unknown host {host_id!r} in IncrementalPlan"
            ) from None

    def host_of(self, vm_id: str) -> Optional[str]:
        """Current host of a VM, or ``None`` while unassigned."""
        host = self.assignment_rows[self.row_of(vm_id)]
        return self.caps.host_ids[host] if host >= 0 else None

    def assignment(self) -> Dict[str, str]:
        """The current VM→host mapping (assigned VMs only)."""
        return {
            vm_id: self.caps.host_ids[host]
            for vm_id, host in zip(self.vm_ids, self.assignment_rows)
            if host >= 0
        }

    def active_hosts(self) -> List[int]:
        """Host indices currently carrying at least one VM."""
        return [
            host for host, rows in enumerate(self.vm_rows_of_host) if rows
        ]

    def affected_hosts(self, changed_vms: Iterable[str]) -> List[int]:
        """Sorted host indices the given VMs currently occupy.

        The replan scope for a batch of changed VMs: only these hosts'
        accumulators can be touched by removing/re-placing them.
        Unassigned VMs contribute no host.
        """
        hosts = {
            self.assignment_rows[self.row_of(vm_id)]
            for vm_id in changed_vms
        }
        hosts.discard(-1)
        return sorted(hosts)

    def fits(self, row: int, host: int) -> bool:
        """Would the VM row fit on the host right now (all resources)?"""
        caps = self.caps
        return (
            self.body_cpu[host] + self.cpu[row] <= caps.eps_cpu[host]
            and self.body_mem[host] + self.mem[row] <= caps.eps_mem[host]
            and self.body_net[host] + self.net[row] <= caps.eps_net[host]
            and self.body_dsk[host] + self.dsk[row] <= caps.eps_dsk[host]
        )

    def residual(self, host: int) -> float:
        """Smallest normalized CPU/memory headroom: fullest first."""
        caps = self.caps
        return min(
            (caps.cap_cpu[host] - self.body_cpu[host]) / caps.cap_cpu[host],
            (caps.cap_mem[host] - self.body_mem[host]) / caps.cap_mem[host],
        )

    def fill(self, host: int) -> float:
        """Worst-resource fill fraction of the bound-scaled capacity."""
        caps = self.caps
        return max(
            self.body_cpu[host] / caps.cap_cpu[host],
            self.body_mem[host] / caps.cap_mem[host],
        )

    def vacate_targets(
        self,
        source: int,
        rows: Sequence[int],
        candidates: Sequence[int],
        allows: Optional[
            Callable[[int, int, List[Tuple[int, int]]], bool]
        ] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """Where every row of ``source`` would go; writes nothing.

        Each row, in the given order, takes the first of ``candidates``
        (``source`` skipped) that admits it with the loads of this
        search's earlier picks counted — and, when ``allows`` is given,
        that ``allows(row, host, moves)`` accepts given the picks so
        far.  Returns the ``(row, host)`` moves, or ``None`` as soon as
        a row fits nowhere.

        Pending loads are left folds in pick order, so each check
        computes ``body + pending + demand`` exactly as a re-count of
        the earlier picks would.  Pending loads are non-negative and
        float addition is monotone, so a candidate failing on its body
        alone fails with them too: the body-only test runs first and
        the pending fold only for candidates that survive it.
        """
        caps = self.caps
        cpu = self.cpu
        mem = self.mem
        net = self.net
        dsk = self.dsk
        body_cpu = self.body_cpu
        body_mem = self.body_mem
        body_net = self.body_net
        body_dsk = self.body_dsk
        eps_cpu = caps.eps_cpu
        eps_mem = caps.eps_mem
        eps_net = caps.eps_net
        eps_dsk = caps.eps_dsk
        pend_cpu: Dict[int, float] = {}
        pend_mem: Dict[int, float] = {}
        pend_net: Dict[int, float] = {}
        pend_dsk: Dict[int, float] = {}
        moves: List[Tuple[int, int]] = []
        for row in rows:
            d_cpu = cpu[row]
            d_mem = mem[row]
            d_net = net[row]
            d_dsk = dsk[row]
            for host in candidates:
                if (
                    body_cpu[host] + d_cpu <= eps_cpu[host]
                    and body_mem[host] + d_mem <= eps_mem[host]
                    and body_net[host] + d_net <= eps_net[host]
                    and body_dsk[host] + d_dsk <= eps_dsk[host]
                    and host != source
                    and (
                        host not in pend_cpu
                        or (
                            body_cpu[host] + pend_cpu[host] + d_cpu
                            <= eps_cpu[host]
                            and body_mem[host] + pend_mem[host] + d_mem
                            <= eps_mem[host]
                            and body_net[host] + pend_net[host] + d_net
                            <= eps_net[host]
                            and body_dsk[host] + pend_dsk[host] + d_dsk
                            <= eps_dsk[host]
                        )
                    )
                    and (allows is None or allows(row, host, moves))
                ):
                    break
            else:
                return None
            moves.append((row, host))
            pend_cpu[host] = pend_cpu.get(host, 0.0) + d_cpu
            pend_mem[host] = pend_mem.get(host, 0.0) + d_mem
            pend_net[host] = pend_net.get(host, 0.0) + d_net
            pend_dsk[host] = pend_dsk.get(host, 0.0) + d_dsk
        return moves

    def vacate_ruled_out(
        self, candidates: Sequence[int]
    ) -> Callable[[int], bool]:
        """An O(1) test that :meth:`vacate_targets` would return ``None``.

        Sums the CPU and memory bodies (``load``) and admission
        capacities (``room``, the ``eps`` floats) of ``candidates`` once.
        The returned test is True for a ``source`` among ``candidates``
        whose load exceeds the other candidates' combined spare room,
        ``load > room - eps[source] + 1e-9 * room`` on either resource:
        no search over these candidates can place all of its rows.

        Sound when every candidate is within its ``eps`` — true of any
        plan whose adds were fit-checked (the batch pack checks each
        add, :meth:`commit_vacate` re-checks each move).  A successful
        search puts every row of ``source`` on other candidates and takes
        none past its ``eps``, so ``body[source] <= sum(eps[h] - body[h]
        for h != source)`` up to rounding, which stays near
        ``len(candidates) * 2**-53`` of the room, far below the margin.
        ``allows`` only removes targets, so it cannot rescue a source
        this test rules out.
        """
        caps = self.caps
        eps_cpu = caps.eps_cpu
        eps_mem = caps.eps_mem
        load_cpu = sum(self.body_cpu[host] for host in candidates)
        load_mem = sum(self.body_mem[host] for host in candidates)
        room_cpu = sum(eps_cpu[host] for host in candidates)
        room_mem = sum(eps_mem[host] for host in candidates)
        margin_cpu = 1e-9 * room_cpu
        margin_mem = 1e-9 * room_mem

        def ruled_out(source: int) -> bool:
            return (
                load_cpu > room_cpu - eps_cpu[source] + margin_cpu
                or load_mem > room_mem - eps_mem[source] + margin_mem
            )

        return ruled_out

    # -- batch-planner mutation (append folds) ---------------------------

    def assign(self, row: int, host: int) -> None:
        """Place a row, accumulating bodies in placement order.

        No fit check: the batch pack loop checks admission inline before
        calling (and replays the scalar reference's exact float folds by
        adding in FFD order).  Canonical-fold users want
        :meth:`apply_delta` instead.
        """
        self.vm_rows_of_host[host].append(row)
        self.body_cpu[host] += self.cpu[row]
        self.body_mem[host] += self.mem[row]
        self.body_net[host] += self.net[row]
        self.body_dsk[host] += self.dsk[row]
        self.assignment_rows[row] = host

    def commit_vacate(
        self, source: int, moves: Sequence[Tuple[int, int]]
    ) -> None:
        """Commit a :meth:`vacate_targets` result with append folds.

        Each move is re-checked against the *committed* state before it
        is assigned (as ``BinArray.add`` does: the committed folds can
        differ from ``body + pending`` in the last ulp), then ``source``
        is zeroed.  A misfit raises
        :class:`~repro.exceptions.PlacementError` with the earlier moves
        already applied.
        """
        for row, host in moves:
            if not self.fits(row, host):
                raise PlacementError(
                    f"{self.vm_ids[row]} does not fit on "
                    f"{self.caps.host_ids[host]}"
                )
            self.assign(row, host)
        self.body_cpu[source] = 0.0
        self.body_mem[source] = 0.0
        self.body_net[source] = 0.0
        self.body_dsk[source] = 0.0
        self.vm_rows_of_host[source] = []

    # -- controller mutation (canonical folds) ---------------------------

    def _refold_host(self, host: int) -> None:
        """Recompute a host's bodies as folds in ascending row order."""
        rows = sorted(self.vm_rows_of_host[host])
        self.vm_rows_of_host[host] = rows
        body_cpu = 0.0
        body_mem = 0.0
        body_net = 0.0
        body_dsk = 0.0
        for row in rows:
            body_cpu += self.cpu[row]
            body_mem += self.mem[row]
            body_net += self.net[row]
            body_dsk += self.dsk[row]
        self.body_cpu[host] = body_cpu
        self.body_mem[host] = body_mem
        self.body_net[host] = body_net
        self.body_dsk[host] = body_dsk

    def _snapshot_hosts(
        self, hosts: Iterable[int]
    ) -> Dict[int, Tuple[List[int], float, float, float, float]]:
        return {
            host: (
                list(self.vm_rows_of_host[host]),
                self.body_cpu[host],
                self.body_mem[host],
                self.body_net[host],
                self.body_dsk[host],
            )
            for host in hosts
        }

    def _restore_hosts(
        self,
        saved: Dict[int, Tuple[List[int], float, float, float, float]],
    ) -> None:
        for host, (rows, cpu, mem, net, dsk) in saved.items():
            self.vm_rows_of_host[host] = rows
            self.body_cpu[host] = cpu
            self.body_mem[host] = mem
            self.body_net[host] = net
            self.body_dsk[host] = dsk

    def set_demand(
        self,
        vm_id: str,
        cpu_rpe2: float,
        memory_gb: float,
        network_mbps: float = 0.0,
        disk_mbps: float = 0.0,
    ) -> None:
        """Update one VM's sized demand, re-folding its host if placed.

        A one-row :meth:`set_demands`.
        """
        self.set_demands(
            [self.row_of(vm_id)],
            [cpu_rpe2],
            [memory_gb],
            [network_mbps],
            [disk_mbps],
        )

    def set_demands(
        self,
        rows: Sequence[int],
        cpu_rpe2: Sequence[float],
        memory_gb: Sequence[float],
        network_mbps: Optional[Sequence[float]] = None,
        disk_mbps: Optional[Sequence[float]] = None,
    ) -> None:
        """Update a batch of VM rows' sized demands.

        Every value is checked before any row is written; then each
        placed host among the rows is re-folded once.  The result is
        bitwise the same as writing the rows one at a time and
        re-folding each row's host after each write, because a host's
        last re-fold there reads the same final values in the same
        ascending row order.  ``None`` I/O vectors keep the rows'
        current I/O demands.

        May leave a host over its bound (demand grew in place); the
        controller's overload detector is what reacts to that, so no
        admission check is applied here.
        """
        columns = [(self.cpu, cpu_rpe2), (self.mem, memory_gb)]
        if network_mbps is not None:
            columns.append((self.net, network_mbps))
        if disk_mbps is not None:
            columns.append((self.dsk, disk_mbps))
        n_vms = len(self.vm_ids)
        for row in rows:
            if not 0 <= row < n_vms:
                raise PlacementError(
                    f"unknown VM row {row!r} in IncrementalPlan"
                )
        for _, values in columns:
            if len(values) != len(rows):
                raise PlacementError(
                    "set_demands: demand vectors must match rows"
                )
            for row, value in zip(rows, values):
                if value < 0:
                    raise PlacementError(
                        f"{self.vm_ids[row]}: sized demand must be "
                        "non-negative"
                    )
        for target, values in columns:
            for row, value in zip(rows, values):
                target[row] = float(value)
        hosts = {self.assignment_rows[row] for row in rows}
        hosts.discard(-1)
        for host in hosts:
            self._refold_host(host)

    def apply_delta(
        self,
        vm_ids: Sequence[str],
        target_hosts: Sequence[Optional[str]],
    ) -> List[int]:
        """Atomically move/evict a batch of VMs; returns affected hosts.

        Each VM is removed from its current host; VMs whose target is a
        host id are then re-placed in the given order, each admission
        checked against the target's *canonically re-folded* body (prior
        moves of the same delta included).  ``None`` targets evict only.

        On any misfit every touched host and assignment row is restored
        and :class:`~repro.exceptions.PlacementError` is raised — the
        plan is never left half-mutated.
        """
        if len(vm_ids) != len(target_hosts):
            raise PlacementError(
                "apply_delta: vm_ids and target_hosts must pair up"
            )
        rows = [self.row_of(vm_id) for vm_id in vm_ids]
        if len(set(rows)) != len(rows):
            raise PlacementError(
                "apply_delta: a VM may appear only once per delta"
            )
        targets = [
            self._host_index(host_id) if host_id is not None else -1
            for host_id in target_hosts
        ]
        touched = set(targets) | {
            self.assignment_rows[row] for row in rows
        }
        touched.discard(-1)
        saved = self._snapshot_hosts(touched)
        saved_rows = {row: self.assignment_rows[row] for row in rows}
        try:
            # Phase 1: pull every mover off its host.
            sources = set()
            for row in rows:
                host = self.assignment_rows[row]
                if host >= 0:
                    self.vm_rows_of_host[host].remove(row)
                    sources.add(host)
                self.assignment_rows[row] = -1
            for host in sources:
                self._refold_host(host)
            # Phase 2: re-place in order, canonical fold after each.
            for vm_id, row, target in zip(vm_ids, rows, targets):
                if target < 0:
                    continue
                if not self.fits(row, target):
                    raise PlacementError(
                        f"{vm_id} does not fit on "
                        f"{self.caps.host_ids[target]}"
                    )
                self.vm_rows_of_host[target].append(row)
                self.assignment_rows[row] = target
                self._refold_host(target)
        except Exception:
            self._restore_hosts(saved)
            for row, host in saved_rows.items():
                self.assignment_rows[row] = host
            raise
        return sorted(touched)

    def copy(self) -> "IncrementalPlan":
        """Independent deep copy (cycle-level rollback snapshot)."""
        clone = IncrementalPlan(
            self.caps, self.vm_ids, self.cpu, self.mem, self.net, self.dsk
        )
        clone.assignment_rows = list(self.assignment_rows)
        clone.vm_rows_of_host = [
            list(rows) for rows in self.vm_rows_of_host
        ]
        clone.body_cpu = list(self.body_cpu)
        clone.body_mem = list(self.body_mem)
        clone.body_net = list(self.body_net)
        clone.body_dsk = list(self.body_dsk)
        return clone
