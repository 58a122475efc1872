"""On-demand compiled C draw kernel for the array generation engine.

The batched engine spends most of its time inside numpy's Generator
methods: at fleet scale the per-call python dispatch around each draw
costs as much as the draws themselves.  numpy ships its C distribution
implementations as a static library (``libnpyrandom.a``) with a public
header (``numpy/random/distributions.h``) precisely so extensions can
call them directly.  This module compiles ``_fastdraw.c`` against that
library at first use and loads it with ctypes (both through
:class:`repro.native.Kernel`, shared with the planner's interval
kernel), and exposes the per-block draw loop plus the AR(1)/EWMA
recurrences as single C calls.

Because the kernel calls the *same* compiled distribution functions
that ``Generator`` dispatches to, against the same PCG64 state struct
(installed per VM exactly like :class:`~.fastseed.FastSeeder`), its
variate stream is bit-identical to the reference per-VM Generator
calls.  Nothing is trusted: :func:`make_fast_drawer` runs a fixed draw
choreography through the library and replays it on a reference
``Generator`` (covering the lognormal/normal/uniform/pareto/poisson
paths, the Lemire bounded-integer path, and the buffered-uint32 reset),
and verifies the C filters against the numpy implementations.
Any mismatch — or a missing compiler — disables the kernel for the
process (``repro.native.why_off("fastdraw")`` names the reason) and
callers fall back to the pure-python draw loop.
"""

from __future__ import annotations

import ctypes
import os
import sysconfig
from typing import Optional, Tuple

import numpy as np

from repro.native import Kernel, Unavailable

from .fastseed import FastSeeder

__all__ = ["FastDrawKernel", "make_fast_drawer"]

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_fastdraw.c")


class DrawParams(ctypes.Structure):
    """Mirror of ``repro_draw_params`` in ``_fastdraw.c`` (same order)."""

    _fields_ = [
        ("count", ctypes.c_int64),
        ("n_hours", ctypes.c_int64),
        ("spread_mu", ctypes.c_double),
        ("spread_sigma", ctypes.c_double),
        ("peak_low", ctypes.c_double),
        ("peak_span", ctypes.c_double),
        ("ln_mu", ctypes.c_double),
        ("ln_sigma", ctypes.c_double),
        ("draw_gauss", ctypes.c_int64),
        ("mem_mu", ctypes.c_double),
        ("mem_sigma", ctypes.c_double),
        ("has_sched", ctypes.c_int64),
        ("sched_period", ctypes.c_int64),
        ("sched_jitter", ctypes.c_int64),
        ("sched_max_occ", ctypes.c_int64),
        ("sched_base_level", ctypes.c_double),
        ("level_low", ctypes.c_double),
        ("level_span", ctypes.c_double),
        ("do_spikes", ctypes.c_int64),
        ("spike_lam", ctypes.c_double),
        ("spike_alpha", ctypes.c_double),
        ("n_events", ctypes.c_int64),
        ("participation", ctypes.c_double),
        ("severity_low", ctypes.c_double),
        ("severity_span", ctypes.c_double),
    ]


class DrawBuffers(ctypes.Structure):
    """Mirror of ``repro_draw_buffers`` in ``_fastdraw.c`` (same order)."""

    _fields_ = [
        ("state_lo", ctypes.c_void_p),
        ("state_hi", ctypes.c_void_p),
        ("inc_lo", ctypes.c_void_p),
        ("inc_hi", ctypes.c_void_p),
        ("event_magnitudes", ctypes.c_void_p),
        ("spreads", ctypes.c_void_p),
        ("peaks", ctypes.c_void_p),
        ("ln_rows", ctypes.c_void_p),
        ("gauss", ctypes.c_void_p),
        ("mem_rows", ctypes.c_void_p),
        ("sched_starts", ctypes.c_void_p),
        ("sched_levels", ctypes.c_void_p),
        ("sched_jitters", ctypes.c_void_p),
        ("spike_counts", ctypes.c_void_p),
        ("spike_starts", ctypes.c_void_p),
        ("spike_paretos", ctypes.c_void_p),
        ("spike_durs", ctypes.c_void_p),
        ("spike_capacity", ctypes.c_int64),
        ("hit_events", ctypes.c_void_p),
        ("hit_rows", ctypes.c_void_p),
        ("hit_sevs", ctypes.c_void_p),
    ]


def _npyrandom_library() -> Optional[str]:
    path = os.path.join(
        os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a"
    )
    return path if os.path.exists(path) else None


def _build_args() -> Tuple[str, ...]:
    static_lib = _npyrandom_library()
    if static_lib is None:
        raise Unavailable("numpy ships no libnpyrandom.a to link against")
    return (
        "-I" + np.get_include(),
        "-I" + sysconfig.get_paths()["include"],
        static_lib,
        "-lm",
    )


# -O3 auto-vectorizes the elementwise passes.  That is safe here: every
# fused op keeps its per-element IEEE sequence (no reassociation of
# sums), and the only reduction is max, which is exactly order-free.
_KERNEL = Kernel("fastdraw", _SOURCE_PATH, _build_args)


def _bind(library: ctypes.CDLL) -> None:
    library.repro_draw_block.restype = ctypes.c_int64
    library.repro_draw_block.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.POINTER(DrawParams),
        ctypes.POINTER(DrawBuffers),
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int64),
    ]
    library.repro_draw_probe.restype = None
    library.repro_draw_probe.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    library.repro_ar1_filter.restype = None
    library.repro_ar1_filter.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.c_double,
        ctypes.c_double,
    ]
    library.repro_texture_fill.restype = None
    library.repro_texture_fill.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
    ]
    library.repro_row_scale.restype = None
    library.repro_row_scale.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
    ]
    library.repro_mem_finish.restype = None
    library.repro_mem_finish.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
    ] + [ctypes.c_double] * 7
    library.repro_clip_scale_div.restype = None
    library.repro_clip_scale_div.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
    ] + [ctypes.c_double] * 4


def _capsule_pointer(bit_generator: np.random.BitGenerator) -> Optional[int]:
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    try:
        pointer = get_pointer(bit_generator.capsule, b"BitGenerator")
    except Exception:  # pragma: no cover - depends on numpy internals
        return None
    return int(pointer) if pointer else None


class FastDrawKernel:
    """ctypes facade over the compiled draw kernel, bound to one seeder.

    The kernel draws through the seeder's reused bit generator: each
    ``draw_block`` call installs the caller-provided per-VM state words
    in C and pulls every variate without returning to python.
    """

    def __init__(self, library: ctypes.CDLL, seeder: FastSeeder) -> None:
        pointer = _capsule_pointer(seeder.bit_generator)
        if pointer is None:
            raise RuntimeError("BitGenerator capsule unavailable")
        self._library = library
        self.seeder = seeder
        self._bitgen = pointer
        words_address, flags_address = seeder.raw_addresses()
        self._words = words_address
        self._flags = flags_address

    def draw_block(
        self, params: DrawParams, buffers: DrawBuffers
    ) -> Tuple[int, int, int]:
        """Run the C draw loop; ``(overflowed, spikes_needed, hits)``."""
        spikes_needed = ctypes.c_int64(0)
        hits = ctypes.c_int64(0)
        overflowed = self._library.repro_draw_block(
            self._bitgen,
            self._words,
            self._flags,
            ctypes.byref(params),
            ctypes.byref(buffers),
            ctypes.byref(spikes_needed),
            ctypes.byref(hits),
        )
        return int(overflowed), int(spikes_needed.value), int(hits.value)

    def probe(self) -> Tuple[np.ndarray, np.ndarray]:
        """Run the fixed verification choreography on the current state."""
        floats = np.empty(6)
        integers = np.empty(5, dtype=np.int64)
        self._library.repro_draw_probe(
            self._bitgen,
            floats.ctypes.data,
            integers.ctypes.data,
        )
        return floats, integers

    def ar1_filter(
        self, gaussians: np.ndarray, phi: float, sigma: float
    ) -> np.ndarray:
        """C twin of :func:`~.models.ar1_filter_matrix` (bit-identical)."""
        gaussians = np.ascontiguousarray(gaussians, dtype=np.float64)
        count, n_hours = gaussians.shape
        out = np.empty_like(gaussians)
        stationary_std = sigma / np.sqrt(1.0 - phi**2)
        self._library.repro_ar1_filter(
            gaussians.ctypes.data,
            out.ctypes.data,
            count,
            n_hours,
            phi,
            sigma,
            stationary_std,
        )
        return out

    def texture_fill(
        self,
        util: np.ndarray,
        pattern: np.ndarray,
        start_hour: int,
        texture_a: Optional[np.ndarray],
        texture_b: Optional[np.ndarray],
        column: Optional[np.ndarray],
    ) -> None:
        """One pass: gather the periodic ``pattern`` row and multiply.

        Bit-identical to tiling ``pattern`` out to ``util`` and then
        multiplying by each given operand in turn (``util *= a; util *=
        b; util *= column``), without the expanded matrix; operands may
        be ``None``.
        """
        count, n_hours = util.shape
        pattern = np.ascontiguousarray(pattern, dtype=np.float64)

        def _address(array: Optional[np.ndarray]) -> int:
            return 0 if array is None else array.ctypes.data

        self._library.repro_texture_fill(
            util.ctypes.data,
            pattern.ctypes.data,
            pattern.shape[1],
            start_hour,
            _address(texture_a),
            _address(texture_b),
            _address(column),
            count,
            n_hours,
        )

    def row_scale(
        self,
        util: np.ndarray,
        numerator: np.ndarray,
        denominator: np.ndarray,
    ) -> None:
        """One-pass ``util *= numerator[:, None]; util /= denominator[:, None]``."""
        count, n_hours = util.shape
        self._library.repro_row_scale(
            util.ctypes.data,
            numerator.ctypes.data,
            denominator.ctypes.data,
            count,
            n_hours,
        )

    def mem_finish(
        self,
        committed: np.ndarray,
        noise: Optional[np.ndarray],
        *,
        alpha: float,
        dynamic_frac: float,
        base_frac: float,
        configured_gb: float,
        clip_low: float,
        clip_high: float,
    ) -> None:
        """Fused memory tail (EWMA, affine, noise, scale, clip) in place.

        Bit-identical to the reference pass sequence in
        ``generator._block_math``; ``committed`` holds the pow() result
        on entry and the final committed-GB matrix on return.
        """
        count, n_hours = committed.shape
        self._library.repro_mem_finish(
            committed.ctypes.data,
            0 if noise is None else noise.ctypes.data,
            count,
            n_hours,
            alpha,
            1.0 - alpha,
            dynamic_frac,
            base_frac,
            configured_gb,
            clip_low,
            clip_high,
        )

    def clip_scale_div(
        self,
        util: np.ndarray,
        rpe2: Optional[np.ndarray],
        committed: np.ndarray,
        *,
        clip_low: float,
        clip_high: float,
        scale: float,
        peak_floor: float,
    ) -> None:
        """Fused CPU/memory boundary: clip ``util`` in place, optionally
        write ``rpe2 = util * scale``, and set ``committed`` to each row
        divided by its (floored) row maximum.

        Bit-identical to ``np.clip`` + broadcast multiply + ``max(axis=1)``
        + ``np.maximum(..., floor)`` + row-wise divide.
        """
        count, n_hours = util.shape
        self._library.repro_clip_scale_div(
            util.ctypes.data,
            0 if rpe2 is None else rpe2.ctypes.data,
            committed.ctypes.data,
            count,
            n_hours,
            clip_low,
            clip_high,
            scale,
            peak_floor,
        )


def _verify(kernel: FastDrawKernel) -> bool:
    """Prove the library's draws and filters against numpy references."""
    seeder = kernel.seeder
    for seed, index in ((0, 1), (11, 5), (123456789123456789, 40001)):
        lists = seeder.seeded_state_lists(seed, index, index + 1)
        if lists is None:
            return False
        seeder.install(lists[0][0], lists[1][0], lists[2][0], lists[3][0])
        floats, integers = kernel.probe()
        reference = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
        )
        expected_floats = np.empty(6)
        expected_floats[0] = reference.lognormal(0.1, 0.9)
        expected_floats[1:4] = reference.standard_normal(3)
        expected_floats[4] = reference.random()
        expected_floats[5] = reference.pareto(2.5)
        expected_integers = np.empty(5, dtype=np.int64)
        expected_integers[0] = reference.integers(0, 24)
        expected_integers[1] = reference.poisson(5.04)
        expected_integers[2] = reference.integers(-3, 4)
        expected_integers[3:5] = reference.integers(1, 4, size=2)
        if not np.array_equal(floats, expected_floats):
            return False
        if not np.array_equal(integers, expected_integers):
            return False
        if seeder.bit_generator.state != reference.bit_generator.state:
            return False

    from . import models

    probe_rng = np.random.default_rng(2024)
    matrix = probe_rng.standard_normal((5, 17))
    for phi, sigma in ((0.6, 0.2), (-0.35, 1.1), (0.85, 0.12)):
        if not np.array_equal(
            kernel.ar1_filter(matrix, phi, sigma),
            models.ar1_filter_matrix(matrix, phi, sigma),
        ):
            return False

    texture_a = probe_rng.lognormal(0.0, 0.4, matrix.shape)
    texture_b = probe_rng.lognormal(0.0, 0.2, matrix.shape)
    column = probe_rng.lognormal(0.0, 0.3, matrix.shape[1])
    pattern = probe_rng.lognormal(0.0, 0.3, (matrix.shape[0], 7))
    for start_hour, use_b in ((0, False), (3, True)):
        tiled = np.concatenate(
            [np.roll(pattern, -start_hour, axis=1)]
            * (matrix.shape[1] // 7 + 1),
            axis=1,
        )[:, : matrix.shape[1]]
        reference = tiled * texture_a
        if use_b:
            reference *= texture_b
        reference *= column
        candidate = np.empty_like(reference)
        kernel.texture_fill(
            candidate,
            pattern,
            start_hour,
            texture_a,
            texture_b if use_b else None,
            column,
        )
        if not np.array_equal(reference, candidate):
            return False

    numerator = probe_rng.uniform(0.01, 0.5, matrix.shape[0])
    denominator = probe_rng.uniform(0.2, 2.0, matrix.shape[0])
    reference = np.abs(matrix) + 0.05
    candidate = reference.copy()
    reference *= numerator[:, None]
    reference /= denominator[:, None]
    kernel.row_scale(candidate, numerator, denominator)
    if not np.array_equal(reference, candidate):
        return False

    noise = probe_rng.lognormal(0.0, 0.05, matrix.shape)
    for use_noise in (False, True):
        for alpha, dynamic_frac, base_frac, gb in (
            (0.3, 0.2, 0.3, 64.0),
            (0.85, 0.35, 0.25, 192.0),
        ):
            start = np.abs(matrix) / (np.abs(matrix).max() + 1.0) + 0.01
            reference = models.ewma_smooth_matrix(start, alpha)
            reference = reference * dynamic_frac
            reference += base_frac
            if use_noise:
                reference *= noise
            reference *= gb
            np.clip(reference, 0.01 * gb, gb, out=reference)
            candidate = start.copy()
            kernel.mem_finish(
                candidate,
                noise if use_noise else None,
                alpha=alpha,
                dynamic_frac=dynamic_frac,
                base_frac=base_frac,
                configured_gb=gb,
                clip_low=0.01 * gb,
                clip_high=gb,
            )
            if not np.array_equal(reference, candidate):
                return False
    for with_rpe2, floor in ((False, 1e-9), (True, 1e-9), (True, 10.0)):
        util = np.abs(matrix) + 0.001
        expected_util = np.clip(util, 0.02, 1.0)
        expected_rpe2 = expected_util * 37.5
        peaks = np.maximum(expected_util.max(axis=1), floor)
        expected_committed = expected_util / peaks[:, None]
        candidate_util = util.copy()
        candidate_rpe2 = np.empty_like(util) if with_rpe2 else None
        candidate_committed = np.empty_like(util)
        kernel.clip_scale_div(
            candidate_util,
            candidate_rpe2,
            candidate_committed,
            clip_low=0.02,
            clip_high=1.0,
            scale=37.5,
            peak_floor=floor,
        )
        if not np.array_equal(expected_util, candidate_util):
            return False
        if not np.array_equal(expected_committed, candidate_committed):
            return False
        if with_rpe2 and not np.array_equal(expected_rpe2, candidate_rpe2):
            return False
    return True


def make_fast_drawer(seeder: Optional[FastSeeder]) -> Optional[FastDrawKernel]:
    """A verified :class:`FastDrawKernel` for ``seeder``, or ``None``.

    The compile + verify cost is paid once per process (``_KERNEL``, a
    :class:`~repro.native.Kernel`); later calls only bind the library to
    the caller's seeder.  A verified kernel and the python fallback
    produce bit-identical results, so cached task outputs do not depend
    on which path a process took; ``repro.native.why_off("fastdraw")``
    says why the kernel is off.
    """
    if seeder is None:
        return None
    library = _KERNEL.load(
        _bind, lambda library: _verify(FastDrawKernel(library, seeder))
    )
    if library is None:
        return None
    try:
        return FastDrawKernel(library, seeder)
    except RuntimeError:  # pragma: no cover - depends on numpy internals
        return None
