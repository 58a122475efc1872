"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class at an API boundary.  More specific
subclasses are raised close to where the problem is detected:

* configuration / input validation problems raise :class:`ConfigurationError`,
* infeasible placement problems raise :class:`PlacementError`,
* constraint violations raise :class:`ConstraintViolation`,
* trace shape or unit mismatches raise :class:`TraceError`,
* a process-pool worker that dies mid-sweep raises :class:`RunnerError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "PlacementError",
    "ConstraintViolation",
    "EmulationError",
    "ServiceError",
    "RunnerError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An input parameter or configuration object is invalid.

    Raised eagerly at construction time, never deep inside a long-running
    planning loop, so misconfiguration surfaces before any work is done.
    """


class TraceError(ReproError):
    """A resource trace has an invalid shape, unit, or value range."""


class PlacementError(ReproError):
    """A placement request cannot be satisfied.

    Typical causes: a VM demand larger than the biggest host, or a
    constraint set that rules out every candidate host.
    """


class ConstraintViolation(PlacementError):
    """A placement violates a deployment constraint.

    Subclass of :class:`PlacementError` because a violated constraint is
    one specific way a placement can be infeasible.
    """


class EmulationError(ReproError):
    """The consolidation emulator was driven with inconsistent inputs."""


class ServiceError(ReproError):
    """The online consolidation service was driven with invalid input.

    Raised for malformed protocol requests and controller misuse; the
    server maps it to an error *response* rather than a dropped
    connection, and the controller's event loop treats it as a
    recoverable per-cycle fault.
    """


class RunnerError(ReproError):
    """The experiment runner's process pool failed under a task.

    Raised when a pool worker dies abruptly (killed, or exiting without
    returning a result); the message names the tasks left unfinished,
    one of which the dead worker held, and the pool's own exception is
    chained as the cause.
    """
