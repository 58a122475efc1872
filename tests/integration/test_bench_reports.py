"""``--out`` of the pinned-benchmark scripts keeps the rows it did not run.

``bench_kernels.py`` and ``bench_generation.py`` both pin into
``BENCH_kernels.json``; ``bench_planners.py`` pins its full rows and its
``--scale-out`` row into ``BENCH_planners.json``.  Each script's
``main()`` runs here on a fake report, with its measurement replaced by
a stub, so no benchmark is timed.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import ModuleType

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

PINNED = [
    {"benchmark": "replay", "n_servers": 100, "pinned": True},
    {"benchmark": "pack-ffd", "n_servers": 100, "pinned": True},
    {"benchmark": "pack-ffd", "n_servers": 1000, "pinned": True},
    {"benchmark": "generate", "n_servers": 10000, "pinned": True},
    {"benchmark": "generate-streamed", "n_servers": 100000, "pinned": True},
    {"benchmark": "dynamic-plan", "n_servers": 100, "pinned": True},
    {"benchmark": "scale-out-100k", "n_servers": 100000, "pinned": True},
]
HEADER = {"python": "pinned", "mode": "full", "repeats_best_of": 9}


def _load(name: str, monkeypatch: pytest.MonkeyPatch) -> ModuleType:
    """Import a benchmark script with its own ``conftest`` helpers."""
    def module(label: str, path: Path) -> ModuleType:
        spec = importlib.util.spec_from_file_location(label, path)
        assert spec is not None and spec.loader is not None
        loaded = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded)
        return loaded

    monkeypatch.setitem(
        sys.modules, "conftest", module("conftest", BENCHMARKS / "conftest.py")
    )
    return module(f"_bench_{name}", BENCHMARKS / f"{name}.py")


def _report(name: str) -> dict:
    return {
        "python": "new",
        "mode": "full",
        "repeats_best_of": 3,
        "results": [
            {"benchmark": name, "n_servers": 100, "pinned": False},
            {"benchmark": name, "n_servers": 1000, "pinned": False},
        ],
    }


@pytest.mark.parametrize(
    "script, entry, flag, measured",
    [
        ("bench_kernels", "run", None, "pack-ffd"),
        ("bench_generation", "run", None, "generate"),
        ("bench_planners", "run", None, "dynamic-plan"),
        ("bench_planners", "run_scale_out", "--scale-out", "scale-out-100k"),
    ],
)
def test_out_replaces_only_the_measured_rows(
    tmp_path, monkeypatch, script, entry, flag, measured
):
    module = _load(script, monkeypatch)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({**HEADER, "results": PINNED}))
    new = _report(measured)
    monkeypatch.setattr(module, entry, lambda *args: new)
    argv = [script, "--out", str(out)] + ([flag] if flag else [])
    monkeypatch.setattr(sys, "argv", argv)

    assert module.main() == 0
    written = json.loads(out.read_text())

    # The header stays; every row of another benchmark stays as it was;
    # the measured rows are exactly the run's, where the first stood.
    assert {k: v for k, v in written.items() if k != "results"} == HEADER
    first = next(
        i for i, row in enumerate(PINNED) if row["benchmark"] == measured
    )
    kept = [row for row in PINNED if row["benchmark"] != measured]
    assert written["results"] == (
        kept[:first] + new["results"] + kept[first:]
    )


def test_out_writes_a_new_report_whole(tmp_path, monkeypatch):
    module = _load("bench_kernels", monkeypatch)
    out = tmp_path / "fresh.json"
    new = _report("replay")
    monkeypatch.setattr(module, "run", lambda smoke: new)
    monkeypatch.setattr(sys, "argv", ["bench_kernels", "--out", str(out)])
    assert module.main() == 0
    assert json.loads(out.read_text()) == new
