"""Placement structures and first-fit-decreasing packing."""

from repro.placement.binpacking import pack
from repro.placement.plan import Placement

__all__ = [
    "Placement",
    "pack",
]
