"""Content-addressed on-disk result cache.

Every result is filed under the SHA-256 of its task spec salted with the
library's code version (:func:`repro.runner.hashing.code_salt`), so

* the same task always resolves to the same file, regardless of which
  benchmark, example, or test asked for it — regenerated traces and
  emulator results are shared across entry points and reruns;
* editing any result-affecting module changes the salt, which orphans
  (never corrupts) the old entries.

Layout: ``<root>/<kind>/<key[:2]>/<key>.pkl`` with a small ``.json``
sidecar carrying the spec for debuggability (``cat`` the sidecar to see
what produced an entry).  Writes go through a temp file plus
``os.replace`` so concurrent workers racing on the same task at worst
both compute it; readers never observe partial pickles.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.runner.hashing import code_salt
from repro.runner.task import ExperimentTask

__all__ = ["CacheStats", "ResultCache", "default_cache_dir", "CACHE_DIR_ENV"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable that disables the disk cache when set to 1
#: (reuse within one run stays on; see ``RunnerContext``).
NO_CACHE_ENV = "REPRO_NO_CACHE"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-runner``."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return Path(configured).expanduser()
    return Path("~/.cache/repro-runner").expanduser()


def cache_disabled() -> bool:
    """True when ``REPRO_NO_CACHE`` requests cache-free execution."""
    return os.environ.get(NO_CACHE_ENV, "").strip().lower() in ("1", "true", "yes")


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def describe(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.stores} stores"


class ResultCache:
    """Pickle-backed content-addressed store for task results.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first store).
    salt:
        Cache-key salt; defaults to the code-version salt so results
        never survive a source change.  Tests pin an explicit salt to
        exercise invalidation.
    """

    def __init__(
        self, root: Union[str, Path], *, salt: Optional[str] = None
    ) -> None:
        self.root = Path(root).expanduser()
        self.salt = code_salt() if salt is None else salt
        self.stats = CacheStats()

    def path_for(self, task: ExperimentTask) -> Path:
        key = task.cache_key(self.salt)
        return self.root / task.kind / key[:2] / f"{key}.pkl"

    def get(self, task: ExperimentTask) -> Tuple[object, bool]:
        """Look a task up; returns ``(result, hit)``.

        A corrupt or unreadable entry counts as a miss and is removed so
        the next store can heal it.
        """
        path = self.path_for(task)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None, False
        except Exception:
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None, False
        self.stats.hits += 1
        return result, True

    def put(self, task: ExperimentTask, result: object) -> Path:
        """Store a result atomically; returns the entry path."""
        path = self.path_for(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        sidecar = path.with_suffix(".json")
        try:
            sidecar.write_text(
                '{"spec":%s,"salt":"%s","stored_at":%.0f}'
                % (task.spec, self.salt, time.time()),
                encoding="utf-8",
            )
        except OSError:
            pass  # the sidecar is debugging aid only
        self.stats.stores += 1
        return path

    def entry_count(self) -> int:
        """Number of stored results under this root (all salts)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in list(self.root.rglob("*.pkl")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
            sidecar = path.with_suffix(".json")
            try:
                sidecar.unlink()
            except OSError:
                pass
        return removed
