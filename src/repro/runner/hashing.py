"""Stable hashing for experiment task specs.

The cache in :mod:`repro.runner.cache` is content-addressed: a task's
on-disk location is a function of *what* it computes (its canonical
parameter document) and *which code* computes it (a salt derived from
the library sources).  Both halves must be reproducible across
processes, interpreter sessions, and dict orderings, so this module
defines one canonical JSON encoding and hashes it with SHA-256.

The module is a leaf like :mod:`repro.numerics`: it imports nothing
from the rest of :mod:`repro` except the exception types, so every
layer can hash specs without cycles.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence, Union

from repro.exceptions import ConfigurationError

__all__ = ["canonical_json", "stable_hash", "code_salt"]

#: JSON-representable parameter values (recursively).
ParamValue = Union[
    None, bool, int, float, str, Sequence["ParamValue"], Mapping[str, "ParamValue"]
]


def _canonicalize(value: ParamValue, path: str) -> object:
    """Reduce a parameter value to plain JSON types, rejecting the rest.

    Tuples become lists; mapping keys must already be strings (silently
    coercing arbitrary keys would let two distinct specs collide).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"task param {path}: non-finite float {value!r} is not cacheable"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [
            _canonicalize(item, f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, Mapping):
        result = {}
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"task param {path}: mapping keys must be str, got "
                    f"{type(key).__name__}"
                )
            result[key] = _canonicalize(value[key], f"{path}.{key}")
        return result
    raise ConfigurationError(
        f"task param {path}: {type(value).__name__} is not a JSON-encodable "
        "spec value (use plain scalars, lists, and string-keyed dicts)"
    )


def canonical_json(value: ParamValue) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace.

    Floats rely on ``repr``'s shortest-round-trip guarantee (Python 3),
    so the same float always encodes to the same text.
    """
    return json.dumps(
        _canonicalize(value, "$"), sort_keys=True, separators=(",", ":")
    )


def stable_hash(value: ParamValue, *, salt: str = "") -> str:
    """SHA-256 hex digest of a spec document under an optional salt."""
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_json(value).encode("utf-8"))
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Cache-invalidation salt derived from the library's source files.

    Any change to a ``repro`` module or C kernel source that can
    influence results (all of them except the :mod:`repro.devtools` lint
    tooling) produces a new salt, so stale cached results are never
    served across code versions.  Computed once per process (the tree is
    a few hundred KB).
    """
    import repro

    return _tree_salt(Path(repro.__file__).resolve().parent)


def _tree_salt(root: Path) -> str:
    """Hash of every ``*.py`` and ``*.c`` file under ``root`` but devtools."""
    digest = hashlib.sha256()
    paths = sorted(
        path for pattern in ("*.py", "*.c") for path in root.rglob(pattern)
    )
    for path in paths:
        relative = path.relative_to(root).as_posix()
        if relative.startswith("devtools/"):
            continue
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]
