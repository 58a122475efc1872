"""Project-wide semantic model for interprocedural lint rules.

The per-file rules (REPRO101-109) see one AST at a time; the
invariants added on top of them (REPRO111-113) — cache purity of
runner tasks, unit flow through helper returns, dead exports — are
*cross-module* properties.  This module builds, once per lint run, the
whole-program facts those rules need:

* a **module graph**: every analyzed file named by its dotted module
  path (``src/repro/emulator/emulator.py`` → ``repro.emulator.emulator``,
  derived structurally from ``__init__.py`` package markers);
* per-module **symbol tables**: top-level functions, classes (with
  their methods), assignments, import aliases, and ``__all__`` exports;
* a **signature index**: every function/method with its positional and
  keyword-only parameters and its decorators;
* a best-effort **call graph** whose edges resolve through
  ``import``/``from`` aliases, ``self``/``cls`` method calls, local
  ``var = ClassName(...)`` bindings, and parameter annotations naming
  project classes.

Resolution is deliberately conservative: anything dynamic (``getattr``,
computed attributes, star imports) resolves to nothing rather than to a
guess, so interprocedural rules under-report instead of inventing
findings.  The model is attached to the shared
:class:`~repro.devtools.context.Project` as ``project.semantics`` by
the engine before the collection pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.context import Module

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Resolution",
    "SemanticModel",
    "module_name_for",
    "walk_code",
]

#: Re-export chains (``from .emulator import ConsolidationEmulator`` in a
#: package ``__init__``) are followed at most this many hops.
_MAX_REEXPORT_HOPS = 4


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, derived from package structure.

    Walks parent directories while they contain ``__init__.py`` (the
    package root is the outermost such directory), so the name is
    independent of the invocation cwd.  Non-package files (scripts under
    ``examples/``, say) get their bare stem.
    """
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(reversed(parts)) or path.stem


@dataclass
class FunctionInfo:
    """One function or method definition and its signature."""

    key: str  #: ``module:Qual.path`` — globally unique within a model.
    module: str  #: dotted module name
    name: str  #: bare function name
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    class_name: Optional[str]  #: enclosing class, for methods
    posonly: Tuple[str, ...]
    args: Tuple[str, ...]
    kwonly: Tuple[str, ...]
    decorators: Tuple[str, ...]  #: dotted decorator names (call parens stripped)

    @property
    def positional(self) -> Tuple[str, ...]:
        return self.posonly + self.args

    @property
    def qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class definition, its methods, and base-class names."""

    key: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo]
    bases: Tuple[str, ...]  #: dotted base-class expressions, as written


@dataclass
class ModuleInfo:
    """Symbol table and import environment for one analyzed module."""

    name: str
    rel: str
    module: Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    assigns: Dict[str, ast.expr] = field(default_factory=dict)
    exports: Optional[Tuple[Tuple[str, int], ...]] = None  #: (__all__ name, line)
    referenced: FrozenSet[str] = frozenset()  #: identifiers this module mentions


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving a dotted name seen in some module.

    ``kind`` is ``"function"``/``"class"``/``"assign"``/``"module"``
    for project symbols (``key`` is then the model key) or
    ``"external"`` for names that leave the analyzed set (``key`` is
    the alias-substituted dotted path, e.g. ``numpy.random.rand``).
    """

    kind: str
    key: str


class SemanticModel:
    """Whole-program facts shared by the interprocedural rules."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_rel: Dict[str, ModuleInfo] = {}
        self._ambiguous: Set[str] = set()
        for module in modules:
            info = _build_module_info(module)
            if info.name in self.modules:
                self._ambiguous.add(info.name)
            else:
                self.modules[info.name] = info
            self.by_rel[info.rel] = info
        for name in self._ambiguous:
            # Colliding non-package stems (two loose scripts named
            # alike): drop from the name index, keep in by_rel.
            self.modules.pop(name, None)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for info in self.by_rel.values():
            for fn in info.functions.values():
                self.functions[fn.key] = fn
            for cls in info.classes.values():
                self.classes[cls.key] = cls
                for method in cls.methods.values():
                    self.functions[method.key] = method
        self.call_graph: Dict[str, Tuple[str, ...]] = {}
        for info in self.by_rel.values():
            self._build_edges(info)

    # ------------------------------------------------------------------
    # name resolution

    def module_for(self, module: Module) -> Optional[ModuleInfo]:
        return self.by_rel.get(module.rel)

    def resolve_dotted(
        self, info: ModuleInfo, parts: Sequence[str], _hops: int = 0
    ) -> Optional[Resolution]:
        """Resolve a dotted chain as seen from ``info`` to a symbol.

        Returns ``None`` for chains rooted in local variables or other
        constructs the model does not track.
        """
        if not parts or _hops > _MAX_REEXPORT_HOPS:
            return None
        head = parts[0]
        if head in info.imports:
            target = info.imports[head].split(".") + list(parts[1:])
            return self._resolve_absolute(target, _hops + 1)
        if head in info.functions and len(parts) == 1:
            return Resolution("function", info.functions[head].key)
        if head in info.classes:
            return self._resolve_in_class(info.classes[head], parts[1:])
        if head in info.assigns and len(parts) == 1:
            return Resolution("assign", f"{info.name}:{head}")
        if head in info.functions or head in info.assigns:
            return None  # attribute access on a local symbol
        return self._resolve_absolute(list(parts), _hops + 1)

    def _resolve_absolute(
        self, parts: List[str], _hops: int
    ) -> Optional[Resolution]:
        """Resolve a fully-substituted dotted path, longest module first."""
        for split in range(len(parts), 0, -1):
            module_name = ".".join(parts[:split])
            info = self.modules.get(module_name)
            if info is None:
                continue
            remainder = parts[split:]
            if not remainder:
                return Resolution("module", module_name)
            return self._resolve_symbol(info, remainder, _hops)
        return Resolution("external", ".".join(parts))

    def _resolve_symbol(
        self, info: ModuleInfo, remainder: List[str], _hops: int
    ) -> Optional[Resolution]:
        head = remainder[0]
        if head in info.functions and len(remainder) == 1:
            return Resolution("function", info.functions[head].key)
        if head in info.classes:
            return self._resolve_in_class(info.classes[head], remainder[1:])
        if head in info.assigns and len(remainder) == 1:
            return Resolution("assign", f"{info.name}:{head}")
        if head in info.imports and _hops <= _MAX_REEXPORT_HOPS:
            # Re-export: the symbol is imported into this module.
            target = info.imports[head].split(".") + remainder[1:]
            return self._resolve_absolute(target, _hops + 1)
        return None

    def _resolve_in_class(
        self, cls: ClassInfo, remainder: Sequence[str]
    ) -> Optional[Resolution]:
        if not remainder:
            return Resolution("class", cls.key)
        if len(remainder) == 1:
            method = self.class_method(cls, remainder[0])
            if method is not None:
                return Resolution("function", method.key)
        return None

    def class_method(
        self, cls: ClassInfo, name: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Look up a method on a class or (best-effort) its bases."""
        if name in cls.methods:
            return cls.methods[name]
        if _depth >= _MAX_REEXPORT_HOPS:
            return None
        info = self.modules.get(cls.module)
        if info is None:
            return None
        for base in cls.bases:
            resolved = self.resolve_dotted(info, base.split("."))
            if resolved is not None and resolved.kind == "class":
                found = self.class_method(
                    self.classes[resolved.key], name, _depth + 1
                )
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # call graph

    def _build_edges(self, info: ModuleInfo) -> None:
        for fn in info.functions.values():
            self.call_graph[fn.key] = tuple(self._edges_for(info, fn))
        for cls in info.classes.values():
            for method in cls.methods.values():
                self.call_graph[method.key] = tuple(
                    self._edges_for(info, method, cls)
                )

    def _edges_for(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        cls: Optional[ClassInfo] = None,
    ) -> Iterator[str]:
        env = self.annotation_env(info, fn, cls)
        # Bind ``var = ClassName()`` locals in a first pass: the AST walk
        # is breadth-first, not source order, so a binding can otherwise
        # be visited after the call sites that depend on it.  The env is
        # flow-insensitive, so order within the pass does not matter.
        for node in walk_code(fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                resolved = self._resolve_node(info, node.value.func, env, cls)
                if resolved is not None and resolved.kind == "class":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            env[target.id] = resolved.key
        seen: Set[str] = set()
        for node in walk_code(fn.node):
            for callee in self._callees(info, node, env, cls):
                if callee not in seen:
                    seen.add(callee)
                    yield callee

    def _callees(
        self,
        info: ModuleInfo,
        node: ast.AST,
        env: Dict[str, str],
        cls: Optional[ClassInfo],
    ) -> Iterator[str]:
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            return
        resolved = self._resolve_node(info, node, env, cls)
        if resolved is None:
            return
        if resolved.kind == "function":
            yield resolved.key
        elif resolved.kind == "class":
            target = self.classes.get(resolved.key)
            if target is not None:
                for hook in ("__init__", "__post_init__"):
                    method = self.class_method(target, hook)
                    if method is not None:
                        yield method.key

    def _resolve_node(
        self,
        info: ModuleInfo,
        node: ast.AST,
        env: Dict[str, str],
        cls: Optional[ClassInfo],
    ) -> Optional[Resolution]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = parts[0]
        if cls is not None and head in ("self", "cls") and len(parts) == 2:
            method = self.class_method(cls, parts[1])
            if method is not None:
                return Resolution("function", method.key)
            return None
        if head in env and len(parts) == 2:
            target = self.classes.get(env[head])
            if target is not None:
                method = self.class_method(target, parts[1])
                if method is not None:
                    return Resolution("function", method.key)
            return None
        if head in env:
            return None
        return self.resolve_dotted(info, parts)

    def annotation_env(
        self,
        info: ModuleInfo,
        fn: FunctionInfo,
        cls: Optional[ClassInfo] = None,
    ) -> Dict[str, str]:
        """Map parameter names to project-class keys via annotations."""
        env: Dict[str, str] = {}
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return env
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
            parts = _annotation_parts(arg.annotation)
            if parts is None:
                continue
            resolved = self.resolve_dotted(info, parts)
            if resolved is not None and resolved.kind == "class":
                env[arg.arg] = resolved.key
        return env

    # ------------------------------------------------------------------
    # reachability

    def reachable_from(
        self, roots: Sequence[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS over the call graph: reachable key → path from its root.

        The path starts at the root function key and ends at the
        reachable key itself (shortest by hop count, deterministic by
        insertion order).
        """
        paths: Dict[str, Tuple[str, ...]] = {}
        frontier: List[str] = []
        for root in roots:
            if root not in paths:
                paths[root] = (root,)
                frontier.append(root)
        while frontier:
            next_frontier: List[str] = []
            for key in frontier:
                for callee in self.call_graph.get(key, ()):
                    if callee in paths:
                        continue
                    paths[callee] = paths[key] + (callee,)
                    next_frontier.append(callee)
            frontier = next_frontier
        return paths


# ----------------------------------------------------------------------
# module-info construction


def _build_module_info(module: Module) -> ModuleInfo:
    info = ModuleInfo(
        name=module_name_for(module.path), rel=module.rel, module=module
    )
    _collect_imports(info, module.tree, is_package=module.path.stem == "__init__")
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = _function_info(
                info.name, node, class_name=None
            )
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _class_info(info.name, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        info.exports = _parse_exports(value)
                    else:
                        info.assigns[target.id] = value
    info.referenced = frozenset(_referenced_identifiers(module.tree))
    return info


def _collect_imports(
    info: ModuleInfo, tree: ast.Module, *, is_package: bool
) -> None:
    # The package a relative import anchors to: the module itself for a
    # package __init__ (its dotted name *is* the package), the parent
    # for a plain module.
    package = info.name.split(".") if is_package else info.name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # level 1 = current package; each extra level pops one.
                anchor = package[: len(package) - (node.level - 1)]
                if node.level > len(package):
                    continue  # escapes the analyzed tree
                base = ".".join(anchor + ([node.module] if node.module else []))
                if not base:
                    continue
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


def _function_info(
    module_name: str,
    node: ast.FunctionDef,
    class_name: Optional[str],
) -> FunctionInfo:
    args = node.args
    posonly = tuple(a.arg for a in args.posonlyargs)
    positional = tuple(a.arg for a in args.args)
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    decorators = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        parts = _dotted_parts(target)
        if parts:
            decorators.append(".".join(parts))
    qual = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        key=f"{module_name}:{qual}",
        module=module_name,
        name=node.name,
        node=node,
        class_name=class_name,
        posonly=posonly,
        args=positional,
        kwonly=kwonly,
        decorators=tuple(decorators),
    )


def _class_info(module_name: str, node: ast.ClassDef) -> ClassInfo:
    methods: Dict[str, FunctionInfo] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = _function_info(
                module_name, stmt, class_name=node.name
            )
    bases = []
    for base in node.bases:
        parts = _dotted_parts(base)
        if parts:
            bases.append(".".join(parts))
    return ClassInfo(
        key=f"{module_name}:{node.name}",
        module=module_name,
        name=node.name,
        node=node,
        methods=methods,
        bases=tuple(bases),
    )


def _parse_exports(value: ast.expr) -> Optional[Tuple[Tuple[str, int], ...]]:
    if not isinstance(value, (ast.List, ast.Tuple)):
        return None
    exports = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            exports.append((element.value, element.lineno))
        else:
            return None  # dynamic __all__: don't guess
    return tuple(exports)


def _referenced_identifiers(tree: ast.Module) -> Iterator[str]:
    """Identifiers a module mentions — the liveness corpus for REPRO113.

    Counts loads of names, attribute accesses, imported names, and
    identifier-shaped string constants (``getattr``-style dispatch
    tables), so dead-export detection errs towards "alive".  ``__all__``
    lists are excluded: an export naming itself must not count as a
    reference, or no export could ever be reported dead.
    """
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        if (
            targets
            and node.value is not None
            and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            )
        ):
            for sub in ast.walk(node.value):
                skipped.add(id(sub))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def walk_code(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` minus annotation subtrees.

    Type annotations mention classes without calling them; excluding
    them keeps call-graph edges honest (a parameter annotated with a
    project class is tracked separately, via the annotation
    environment).
    """
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for field_name, value in ast.iter_fields(node):
            if field_name in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _annotation_parts(annotation: Optional[ast.expr]) -> Optional[List[str]]:
    """Extract a class-name chain from a parameter annotation.

    Handles plain names, dotted names, ``Optional[X]`` (unwrapped), and
    string annotations (forward references).
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip()
        if all(part.isidentifier() for part in text.split(".")) and text:
            return text.split(".")
        return None
    if isinstance(annotation, ast.Subscript):
        base = _dotted_parts(annotation.value)
        if base and base[-1] == "Optional":
            inner = annotation.slice
            return _annotation_parts(inner) if isinstance(inner, ast.expr) else None
        return None
    return _dotted_parts(annotation)
