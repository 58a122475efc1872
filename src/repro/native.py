"""Build, cache and load the library's C kernels through ctypes.

Two modules ship a C source that they compile on first use:
``workloads/_fastdraw.c`` (the generation draw kernel, in
:mod:`repro.workloads.fastdraw`) and ``core/_interval.c`` (the dynamic
planner's interval loop, in :mod:`repro.core.interval_kernel`).  Both go
through :class:`Kernel`: the source is compiled once per machine into a
shared object cached under ``$XDG_CACHE_HOME/repro-kernels`` (keyed by
the source, the compiler arguments and the numpy and Python versions),
opened with ctypes, then bound and checked against its Python twin by
its module, once per process.

A kernel that cannot be built, loaded or verified is off for the rest
of the process, and :func:`why_off` names the reason: no compiler, the
compiler's exit status with the last lines of its errors, a load
failure, a failed self-check.  Its module then runs the Python code,
which computes the same bits, so no result depends on which path ran.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Callable, Dict, Optional, Sequence

import numpy as np

__all__ = ["Kernel", "Unavailable", "why_off"]

# -ffp-contract=off forbids fused multiply-adds, which would round
# differently from numpy's and Python's own arithmetic; -ffast-math
# (re-association) stays off for the same reason.
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120
#: How much of a failed compiler's error output a reason keeps.
_STDERR_LINES = 5

_KERNELS: Dict[str, "Kernel"] = {}


class Unavailable(Exception):
    """Raised by a kernel's ``args`` when a prerequisite is missing."""


def why_off(name: str) -> Optional[str]:
    """Why the named kernel is off in this process.

    ``None`` while it is on or has not been tried yet.
    """
    return _KERNELS[name].reason


def _cache_dir() -> str:
    # Where the compiled objects land; never what they compute.  Task
    # results are bit-identical with or without a populated cache.
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(  # repro-lint: disable=REPRO111
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro-kernels")


class Kernel:
    """One C source, compiled on first use and loaded once per process.

    ``args`` gives the compiler arguments that follow the source
    (include paths, libraries to link), or raises :class:`Unavailable`.
    """

    def __init__(
        self,
        name: str,
        source: str,
        args: Callable[[], Sequence[str]] = tuple,
    ) -> None:
        self.name = name
        self.source = source
        self.args = args
        self.library: Optional[ctypes.CDLL] = None
        #: Why the kernel is off; ``None`` while on or not yet tried.
        self.reason: Optional[str] = None
        _KERNELS[name] = self

    def load(
        self,
        bind: Callable[[ctypes.CDLL], None],
        verify: Callable[[ctypes.CDLL], bool],
    ) -> Optional[ctypes.CDLL]:
        """The bound and verified library, or ``None`` once it is off.

        The first call builds (or finds the cached object), opens it,
        declares its functions with ``bind`` and runs ``verify``; later
        calls return that outcome.
        """
        if self.library is not None or self.reason is not None:
            return self.library
        library = self._open()
        if library is None:
            return None
        try:
            bind(library)
            verified = verify(library)
        except Exception as error:  # any fault turns the kernel off
            self.reason = f"binding or self-check raised {error!r}"
            return None
        if not verified:
            self.reason = "self-check against the Python code failed"
            return None
        self.library = library
        return library

    def _open(self) -> Optional[ctypes.CDLL]:
        target = self._build()
        if target is None:
            return None
        with contextlib.suppress(OSError):
            return ctypes.CDLL(target)
        # A cached object that does not load (truncated, say) would
        # otherwise turn the kernel off in every later process: build it
        # once more, and stay off only if the rebuild fails to load too.
        with contextlib.suppress(OSError):
            os.unlink(target)
        target = self._build()
        if target is None:
            return None
        try:
            return ctypes.CDLL(target)
        except OSError as error:
            self.reason = f"cannot load {target}: {error}"
            return None

    def _build(self) -> Optional[str]:
        """The cached shared object's path, compiling it if missing."""
        compiler = shutil.which("gcc") or shutil.which("cc")
        if compiler is None:
            self.reason = "no C compiler (gcc or cc) on PATH"
            return None
        try:
            args = list(self.args())
            with open(self.source, "rb") as handle:
                source = handle.read()
        except Unavailable as missing:
            self.reason = str(missing)
            return None
        except OSError as error:
            self.reason = f"cannot read {self.source}: {error}"
            return None
        key = hashlib.sha256(
            source
            + b"|".join(arg.encode() for arg in (*_FLAGS, *args))
            + np.__version__.encode()
            + sys.version.encode()
        ).hexdigest()[:16]
        directory = _cache_dir()
        stem = os.path.splitext(os.path.basename(self.source))[0]
        target = os.path.join(directory, f"{stem}-{key}.so")
        if os.path.exists(target):
            return target
        scratch = None
        try:
            os.makedirs(directory, exist_ok=True)
            handle, scratch = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(handle)
            result = subprocess.run(
                [compiler, *_FLAGS, self.source, *args, "-o", scratch],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=_BUILD_TIMEOUT_S,
            )
            if result.returncode == 0:
                os.replace(scratch, target)  # atomic against concurrent builds
                return target
            errors = (result.stderr or b"").decode(errors="replace")
            self.reason = (
                f"{compiler} exited with status {result.returncode}: "
                + " | ".join(errors.strip().splitlines()[-_STDERR_LINES:])
            )
        except subprocess.TimeoutExpired:
            self.reason = f"{compiler} ran past {_BUILD_TIMEOUT_S} s"
        except (OSError, subprocess.SubprocessError) as error:
            self.reason = f"cannot build into {directory}: {error}"
        # Every failed build (compiler error, timeout, failed rename)
        # removes its scratch object, so none accumulates in the cache.
        if scratch is not None:
            with contextlib.suppress(OSError):
                os.unlink(scratch)
        return None
