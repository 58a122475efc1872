"""Every library attribute the end-to-end benchmark's tracer wraps exists.

``perfbench/tracing.py`` patches each ``ENTRY_POINTS`` target by
importing its module, walking to the owner and replacing the name in
``vars(owner)``.  This check resolves each target the same way, without
patching anything, so a library rename or deletion of a wrapped name
fails here and not only in the benchmark's self-test.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench.tracing import ENTRY_POINTS


@pytest.mark.parametrize("target", [point.target for point in ENTRY_POINTS])
def test_entry_point_resolves(target: str) -> None:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert name in vars(owner), f"{target}: no {name!r} defined on its owner"
