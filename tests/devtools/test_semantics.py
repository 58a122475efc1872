"""Semantic model: naming, alias resolution, call-graph reachability.

Exercised against the ``fixtures/semantics_pkg`` mini-package — small
enough to reason about by hand, rich enough to cover import aliases,
re-exports, method resolution, and annotation-typed parameters.
"""

import ast
from pathlib import Path

import pytest

from repro.devtools.context import Module
from repro.devtools.semantics import (
    Resolution,
    SemanticModel,
    module_name_for,
    walk_code,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PKG = FIXTURES / "semantics_pkg"


def _load(path: Path) -> Module:
    source = path.read_text()
    return Module(
        path=path, rel=path.name, source=source, tree=ast.parse(source)
    )


@pytest.fixture(scope="module")
def model() -> SemanticModel:
    return SemanticModel([_load(p) for p in sorted(PKG.glob("*.py"))])


class TestModuleNaming:
    def test_package_walk_builds_dotted_names(self):
        assert module_name_for(PKG / "alpha.py") == "semantics_pkg.alpha"

    def test_package_init_gets_the_package_name(self):
        assert module_name_for(PKG / "__init__.py") == "semantics_pkg"

    def test_non_package_file_gets_its_stem(self, tmp_path):
        loose = tmp_path / "script.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "script"


class TestResolution:
    def test_import_alias_resolves_to_project_class(self, model):
        beta = model.modules["semantics_pkg.beta"]
        resolved = model.resolve_dotted(beta, ["Eng"])
        assert resolved == Resolution("class", "semantics_pkg.alpha:Engine")

    def test_module_alias_reaches_member_assign(self, model):
        beta = model.modules["semantics_pkg.beta"]
        resolved = model.resolve_dotted(beta, ["core", "LIMIT_MB"])
        assert resolved == Resolution("assign", "semantics_pkg.alpha:LIMIT_MB")

    def test_reexport_through_package_init(self, model):
        init = model.modules["semantics_pkg"]
        resolved = model.resolve_dotted(init, ["Engine", "run"])
        assert resolved == Resolution("function", "semantics_pkg.alpha:Engine.run")

    def test_unknown_names_resolve_external(self, model):
        beta = model.modules["semantics_pkg.beta"]
        resolved = model.resolve_dotted(beta, ["numpy", "random", "rand"])
        assert resolved == Resolution("external", "numpy.random.rand")


class TestCallGraph:
    def test_reachability_spans_constructor_binding_and_methods(self, model):
        paths = model.reachable_from(["semantics_pkg.beta:build"])
        # build() instantiates Eng and calls .run(), which calls
        # self.prepare() and the free function score().
        assert "semantics_pkg.alpha:Engine.run" in paths
        assert "semantics_pkg.alpha:Engine.prepare" in paths
        assert "semantics_pkg.alpha:score" in paths

    def test_paths_reconstruct_the_route(self, model):
        paths = model.reachable_from(["semantics_pkg.beta:build"])
        assert paths["semantics_pkg.alpha:score"] == (
            "semantics_pkg.beta:build",
            "semantics_pkg.alpha:Engine.run",
            "semantics_pkg.alpha:score",
        )

    def test_annotation_typed_parameter_drives_edges(self, model):
        paths = model.reachable_from(["semantics_pkg.beta:drive"])
        assert "semantics_pkg.alpha:Engine.run" in paths

    def test_unreached_functions_stay_unreached(self, model):
        paths = model.reachable_from(["semantics_pkg.beta:limit"])
        assert "semantics_pkg.alpha:Engine.run" not in paths


class TestWalkCode:
    def test_annotations_are_not_code(self):
        tree = ast.parse("def f(x: SomeClass) -> Other:\n    return g(x)\n")
        names = {
            node.id for node in walk_code(tree) if isinstance(node, ast.Name)
        }
        assert "g" in names and "x" in names
        assert "SomeClass" not in names and "Other" not in names
