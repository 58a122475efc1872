"""Fixtures that choose the dynamic planner's interval loop."""

from __future__ import annotations

import pytest

from repro.core import interval_kernel
from repro.native import why_off


@pytest.fixture
def python_loop(monkeypatch):
    """Plans run on the Python interval loop: the kernel reads as off."""
    monkeypatch.setattr(interval_kernel._KERNEL, "library", None)
    monkeypatch.setattr(interval_kernel._KERNEL, "reason", "off for a test")


@pytest.fixture
def kernel_loop():
    """Plans run on the compiled interval loop; skipped where it is off."""
    if interval_kernel.load() is None:
        pytest.skip(f"interval kernel off: {why_off('interval')}")


@pytest.fixture(params=["kernel", "python"])
def either_loop(request):
    """Runs a test once on each interval loop."""
    request.getfixturevalue(f"{request.param}_loop")
    return request.param
