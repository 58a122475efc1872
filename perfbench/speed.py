"""CPU-speed correction for timings taken on a shared machine.

On the shared 2-CPU machines this benchmark was written on, each CPU
switches between speed levels about a third apart, for seconds at a
time, because of load the benchmark cannot see.  The same pass of a
workload can then take 30% longer from one minute to the next, and the
two CPUs change level independently.

A fixed calibration loop of Python and NumPy work measures the current
speed: its CPU time divided by :data:`REFERENCE_SECONDS` is the
*slowdown*.  :class:`SpeedSampler` runs the loop in a helper process
while a call runs, every :data:`SAMPLE_INTERVAL_S`, on each CPU the
caller may use, so the correction follows the speed of the CPUs the
work runs on through the whole call.  A time divided by the slowdown
measured while it was taken is the time at reference speed.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

__all__ = ["SpeedSampler"]

T = TypeVar("T")

#: CPU seconds one calibration loop takes on a CPU of the 2-CPU machine
#: the bounds were set on, at the faster of its speed levels.
REFERENCE_SECONDS = 0.0038

#: Seconds between two sampling rounds: sampling costs each sampled CPU
#: under 4% of its time.
SAMPLE_INTERVAL_S = 0.15


class _Counter:
    """A small object whose method the calibration loop calls."""

    def __init__(self) -> None:
        self.total = 0.0

    def add(self, value: float) -> float:
        self.total += value
        return self.total


def calibration_seconds(array, keys: List[str], vectors, rows) -> float:
    """CPU seconds of one calibration loop on the calling thread.

    The loop mixes the kinds of work the workloads do: interpreter
    arithmetic, dictionary updates and lookups, a NumPy sort, and many
    NumPy calls on tiny arrays between method calls.  The last part is
    the per-VM and per-sample work of the serial workloads, which the
    slow speed level stretches more than the other parts.
    """
    import numpy as np

    started = time.thread_time()
    total = 0
    for i in range(10_000):
        total += i * i
    table = {}
    for i, key in enumerate(keys):
        table[key] = i
    for key in reversed(keys):
        total += table[key]
    np.sort(array, axis=1)
    counter = _Counter()
    peak = vectors[0].copy()
    for i in range(400):
        vector = vectors[i % 8]
        np.maximum(peak, vector, out=peak)
        peak[rows[i % 8]] += 0.5
        counter.add(float(vector.sum()))
        vector[:3].max()
    return time.thread_time() - started


def _serve(connection, interval: float) -> None:
    """Helper process: sample the CPUs each start message names until
    the matching stop message, then send the samples back."""
    import numpy as np

    array = np.random.default_rng(0).random((64, 512))
    keys = [f"vm-{i:05d}" for i in range(10_000)]
    vectors = [np.random.default_rng(i).random(8) for i in range(8)]
    rows = [np.array([i, (i * 3) % 8]) for i in range(8)]
    connection.send("ready")
    while True:
        cpus = connection.recv()
        if cpus is None:
            break
        samples: List[float] = []
        while True:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                samples.append(calibration_seconds(array, keys, vectors, rows))
            if connection.poll(interval):
                connection.recv()
                break
        connection.send(samples)
    connection.close()


class SpeedSampler:
    """Times calls and measures the slowdown while they run.

    Use as a context manager; the helper process is stopped and joined
    on exit.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        # Forked, not spawned: spawning would also start multiprocessing's
        # resource-tracker process, which outlives the benchmark.
        context = multiprocessing.get_context("fork")
        self._connection, child = context.Pipe()
        self._process = context.Process(
            target=_serve, args=(child, interval), daemon=True
        )
        self._process.start()
        child.close()
        if self._connection.recv() != "ready":
            raise RuntimeError("speed sampler did not start")

    def measure(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """``(call(), seconds it took, mean slowdown while it ran)``.

        The CPUs sampled are the ones this process may use when called.
        """
        self._connection.send(sorted(os.sched_getaffinity(0)))
        try:
            started = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - started
        finally:
            self._connection.send("stop")
            samples = self._connection.recv()
        return result, seconds, statistics.fmean(samples) / REFERENCE_SECONDS

    def close(self) -> None:
        if self._process.is_alive():
            self._connection.send(None)
        self._process.join(timeout=30)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._connection.close()

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
