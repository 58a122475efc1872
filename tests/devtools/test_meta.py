"""Meta: the shipped tree satisfies its own lint gate.

This is the CI contract from the issue: ``repro-lint src/repro`` exits
0 with an *empty* baseline — the codebase carries no accepted debt.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.devtools import lint_paths
from repro.devtools.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_shipped_tree_is_lint_clean(capsys):
    exit_code = main([str(SRC)])
    out = capsys.readouterr().out
    assert exit_code == 0, f"repro-lint found violations:\n{out}"
    assert out == ""


def test_shipped_tree_is_clean_even_with_an_empty_baseline(tmp_path, capsys):
    baseline = tmp_path / "empty-baseline.json"
    baseline.write_text(json.dumps({"version": 1, "entries": {}}))
    assert main([str(SRC), "--baseline", str(baseline)]) == 0
    capsys.readouterr()


def test_whole_tree_passes_the_interprocedural_gate(capsys):
    """The second CI gate: the whole-program rules (cache purity, unit
    flow, dead exports) hold across src + tests + examples + benchmarks
    with no baseline."""
    exit_code = main(
        [
            str(SRC),
            str(REPO_ROOT / "tests"),
            str(REPO_ROOT / "examples"),
            str(REPO_ROOT / "benchmarks"),
            "--select",
            "REPRO111,REPRO112,REPRO113",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0, f"interprocedural gate found violations:\n{out}"


def test_lint_paths_visits_the_whole_library():
    # Guard against discovery silently narrowing (e.g. a glob change
    # dropping subpackages): linting src/repro must parse at least the
    # ~80 modules the library ships today.
    from repro.devtools import discover_files

    files = discover_files([SRC])
    assert len(files) >= 80
    assert lint_paths([SRC]) == []


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def test_library_never_imports_the_tests_package():
    """``tests/reference/`` holds oracles only: an installed ``repro``
    ships no ``tests`` package, so no library module may import it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, module in _imported_modules(tree):
            if module == "tests" or module.startswith("tests."):
                offenders.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno} {module}"
                )
    assert offenders == []


@pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="sys.stdlib_module_names needs Python 3.10",
)
def test_library_imports_only_stdlib_numpy_and_itself():
    """The declared runtime dependency is numpy alone.  The scan is
    static and covers imports inside ``try`` blocks and functions, so an
    optional dependency fails here even where it is not installed."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for lineno, module in _imported_modules(tree):
            if module.split(".")[0] not in allowed:
                offenders.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno} {module}"
                )
    assert offenders == []


def test_placement_consumers_read_indices_not_assignment():
    """A ``Placement`` is host indices over shared id tuples.  The
    planners, the emulator and the shard merge read those indices
    (``Placement.indices``, ``rows``, ``hosts``); none of their modules
    reads an attribute named ``assignment``, so none turns a placement
    into a VM-id → host-id dict and back."""
    offenders = []
    for package in ("core", "emulator", "sharding"):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "assignment"
            ]
    assert offenders == []


def test_library_has_no_vectorization_exemptions():
    """Scalar references live in ``tests/reference/``; no library module
    opts out of REPRO109."""
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted(SRC.rglob("*.py"))
        if "=REPRO109" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def _package_data_globs(package):
    """``package``'s globs in ``[tool.setuptools.package-data]``.

    Read line by line rather than with ``tomllib``, which needs Python
    3.11: each line of the table is ``name = ["glob", ...]``.
    """
    lines = (REPO_ROOT / "pyproject.toml").read_text().splitlines()
    globs = {}
    for line in lines[lines.index("[tool.setuptools.package-data]") + 1:]:
        if line.startswith("["):
            break
        name, equals, value = line.partition("=")
        if equals:
            globs[name.strip()] = ast.literal_eval(value.strip())
    return globs[package]


def test_every_library_data_file_is_package_data():
    """A wheel or a non-editable install carries every non-Python file
    of the library: the generation kernel compiles ``_fastdraw.c`` and
    the dynamic planner ``_interval.c`` at first use, and without them
    run the slower Python loops."""
    shipped = {
        path
        for glob in _package_data_globs("repro")
        for path in SRC.glob(glob)
    }
    missing = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*"))
        if path.is_file()
        and path.suffix not in (".py", ".pyc")
        and "__pycache__" not in path.parts
        and path not in shipped
    ]
    assert missing == [], f"not listed as package data: {missing}"
