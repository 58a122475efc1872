"""Per-module and cross-module analysis context.

Rules receive a :class:`Module` (one parsed file) and a
:class:`Project` (facts collected across *all* analyzed files in a
first pass).  The project-wide pass is what lets the unit-suffix rule
resolve positional arguments against function signatures defined in a
different module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.semantics import SemanticModel

__all__ = ["Module", "Project"]


@dataclass
class Module:
    """One Python source file under analysis."""

    path: Path
    rel: str
    source: str
    tree: ast.Module

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components, used by rules scoped to specific packages."""
        return self.path.parts

    def in_package(self, *names: str) -> bool:
        """True when any path component matches one of ``names``."""
        return any(part in names for part in self.parts)

    @property
    def basename(self) -> str:
        return self.path.name


@dataclass
class Project:
    """Facts gathered across every analyzed module (collection pass).

    ``signatures`` maps a bare callable name to its positional parameter
    names.  A name defined more than once with *different* parameter
    lists is ambiguous and mapped to ``None`` so rules never guess.
    Dataclasses contribute their field order as a constructor signature.

    ``semantics`` is the whole-program model
    (:class:`~repro.devtools.semantics.SemanticModel`) the engine builds
    before the collection pass — module graph, symbol tables, call
    graph — for the interprocedural rules (REPRO111-113).
    """

    signatures: Dict[str, Optional[Tuple[str, ...]]] = field(default_factory=dict)
    semantics: Optional["SemanticModel"] = None

    def record_signature(self, name: str, params: Sequence[str]) -> None:
        """Register a callable's positional parameter names.

        Conflicting re-registrations poison the entry (set it to
        ``None``) rather than keeping either variant.
        """
        candidate = tuple(params)
        if name not in self.signatures:
            self.signatures[name] = candidate
        elif self.signatures[name] != candidate:
            self.signatures[name] = None

    def lookup_signature(self, name: str) -> Optional[Tuple[str, ...]]:
        """Return the unambiguous parameter names for ``name``, if any."""
        return self.signatures.get(name)
