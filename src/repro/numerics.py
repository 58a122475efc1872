"""Floating-point tolerance helpers for capacity and utilization math.

The emulator's ≤5% 99th-percentile error contract (paper Section 5.1)
is only meaningful if the reproduction does not manufacture spurious
error through floating-point equality tests on derived quantities
(utilizations, sized demands, capacity headroom).  Exact ``==`` on such
values is forbidden by the ``REPRO104`` lint rule; use these helpers
instead so every tolerance decision is explicit and consistent.

The module is intentionally a leaf: it imports nothing from
:mod:`repro` so any layer (workloads, placement, emulator, monitoring)
can depend on it without cycles.
"""

from __future__ import annotations

import math

__all__ = ["CAPACITY_SLACK", "approx_eq", "approx_ne", "approx_lte", "approx_gte"]

#: Absolute slack used when testing whether a demand fits a capacity.
#: The planners admit a VM against ``capacity + CAPACITY_SLACK`` (and
#: ``core/_interval.c`` mirrors the value), so a sum of per-VM demands
#: that mathematically equals the capacity is not rejected for a 1-ulp
#: rounding excess.
CAPACITY_SLACK = 1e-9


def approx_eq(
    a: float, b: float, *, rel_tol: float = 1e-9, abs_tol: float = 1e-12
) -> bool:
    """True when ``a`` and ``b`` are equal within tolerance.

    A thin wrapper over :func:`math.isclose` with an absolute floor so
    comparisons against 0.0 behave sensibly (``math.isclose`` alone
    treats nothing as close to zero under a purely relative tolerance).
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def approx_ne(
    a: float, b: float, *, rel_tol: float = 1e-9, abs_tol: float = 1e-12
) -> bool:
    """Negation of :func:`approx_eq` with the same tolerances."""
    return not math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def approx_lte(a: float, b: float, *, slack: float = CAPACITY_SLACK) -> bool:
    """True when ``a`` is at most ``b`` plus ``slack``.

    The canonical "does this demand fit this capacity" test.
    """
    return a <= b + slack


def approx_gte(a: float, b: float, *, slack: float = CAPACITY_SLACK) -> bool:
    """True when ``a`` is at least ``b`` minus ``slack``."""
    return a >= b - slack
