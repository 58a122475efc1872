"""Placement structures and first-fit-decreasing packing."""

from repro.placement.arraybins import BinArray
from repro.placement.binpacking import pack, sort_decreasing
from repro.placement.plan import Placement

__all__ = [
    "BinArray",
    "Placement",
    "pack",
    "sort_decreasing",
]
