"""Newline-delimited-JSON request protocol for ``repro-serve``.

One request per line, one JSON object per response line.  The protocol
layer is synchronous and transport-free — :func:`handle_request` maps a
raw line to a response dict — so the full op surface is unit-testable
without sockets; :mod:`repro.service.server` is a thin asyncio shell
around it.

Ops (``{"op": ..., ...}`` → ``{"ok": true, "op": ..., ...}``):

``ping``
    Liveness probe; echoes back.
``place``
    ``{"op": "place", "vm_id": "vm3"}`` → current host of the VM
    (``null`` while unassigned).
``assignment``
    The full VM→host mapping.
``ingest``
    ``{"op": "ingest", "tick": 7, "vm_id": "vm3", "cpu_util": 0.4,
    "memory_gb": 2.5}`` → whether the sample was accepted (duplicates
    and late samples are acknowledged but not accepted).
``replan``
    Run one replan cycle now; returns the cycle report.
``stats``
    Ingest/decision counters, latency and replan-scope percentiles.

Malformed requests yield ``{"ok": false, "error": ...}`` — the
connection stays up; a bad client request is never a server fault.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict

from repro.exceptions import ServiceError
from repro.service.controller import (
    ConsolidationController,
    CycleReport,
    MonitoringSample,
)

__all__ = ["handle_request"]


def _require(request: Dict[str, Any], key: str, kind: type) -> Any:
    if key not in request:
        raise ServiceError(f"request is missing {key!r}")
    value = request[key]
    # ``type(...) is int``, not isinstance: a JSON ``true`` must not
    # read as 1.0.
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ServiceError(f"{key!r} is too large for a float") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ServiceError(
            f"{key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _report_payload(report: CycleReport) -> Dict[str, Any]:
    return {
        "cycle": report.cycle,
        "migrations": [list(move) for move in report.migrations],
        "overloaded_hosts": list(report.overloaded_hosts),
        "underloaded_hosts": list(report.underloaded_hosts),
        "touched_hosts": list(report.touched_hosts),
        "latency_seconds": report.latency_seconds,
        "deadline_hit": report.deadline_hit,
        "detector_errors": report.detector_errors,
    }


def _op_ping(
    controller: ConsolidationController, request: Dict[str, Any]
) -> Dict[str, Any]:
    return {}


def _op_place(
    controller: ConsolidationController, request: Dict[str, Any]
) -> Dict[str, Any]:
    vm_id = _require(request, "vm_id", str)
    return {"vm_id": vm_id, "host": controller.host_of(vm_id)}


def _op_assignment(
    controller: ConsolidationController, request: Dict[str, Any]
) -> Dict[str, Any]:
    return {"assignment": controller.plan.assignment()}


def _op_ingest(
    controller: ConsolidationController, request: Dict[str, Any]
) -> Dict[str, Any]:
    sample = MonitoringSample(
        tick=_require(request, "tick", int),
        vm_id=_require(request, "vm_id", str),
        cpu_util=_require(request, "cpu_util", float),
        memory_gb=_require(request, "memory_gb", float),
    )
    return {"accepted": controller.ingest(sample)}


def _op_replan(
    controller: ConsolidationController, request: Dict[str, Any]
) -> Dict[str, Any]:
    return _report_payload(controller.replan_cycle())


def _op_stats(
    controller: ConsolidationController, request: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "stats": controller.stats.snapshot(),
        "n_hosts": controller.plan.n_hosts,
        "n_vms": controller.plan.n_vms,
        "active_hosts": len(controller.plan.active_hosts()),
    }


_OPS: Dict[
    str,
    Callable[[ConsolidationController, Dict[str, Any]], Dict[str, Any]],
] = {
    "ping": _op_ping,
    "place": _op_place,
    "assignment": _op_assignment,
    "ingest": _op_ingest,
    "replan": _op_replan,
    "stats": _op_stats,
}


def handle_request(
    controller: ConsolidationController, line: str
) -> Dict[str, Any]:
    """Dispatch one NDJSON request line; never raises.

    Protocol errors (bad JSON — including integer literals longer than
    the interpreter's digit limit and nesting deeper than its recursion
    limit — unknown op, missing fields, wrong field types, integers too
    large for a float field) and controller-level
    :class:`~repro.exceptions.ServiceError` come back as
    ``{"ok": false, "error": ...}`` responses.
    """
    try:
        try:
            request = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError is a ValueError; so is the digit limit.
            raise ServiceError(f"bad JSON: {exc}") from None
        if not isinstance(request, dict):
            raise ServiceError("request must be a JSON object")
        op = _require(request, "op", str)
        handler = _OPS.get(op)
        if handler is None:
            raise ServiceError(
                f"unknown op {op!r}; known: {sorted(_OPS)}"
            )
        response = handler(controller, request)
        response["ok"] = True
        response["op"] = op
        return response
    except ServiceError as exc:
        return {"ok": False, "error": str(exc)}
