"""Parallel, cached experiment execution.

:class:`ExperimentRunner` fans a list of :class:`ExperimentTask` out
over a ``concurrent.futures`` process pool, consulting the
content-addressed cache before computing anything.  The guarantees:

* **Determinism** — results depend only on task specs (executors are
  pure, seeds live in the spec), so serial, parallel(2), parallel(4),
  and cache-warm runs of the same sweep return identical results, in
  input order.
* **Reuse** — within one run each distinct task spec is computed
  once, with or without the on-disk cache.  A serial run holds one
  :class:`~repro.runner.registry.RunnerContext`, which keeps every
  result it computes (nested sub-tasks included), so one generated
  trace set serves every task of the run and identical specs share one
  result object.  The parallel path submits each distinct spec once;
  each pooled task runs in its own context, so pooled tasks share
  sub-task results only through the disk cache.  Across runs every
  worker shares the on-disk cache: a warm rerun skips trace generation
  and emulation entirely.
* **Accounting** — per-task timing, cache-hit flags, sub-task hits,
  and worker ids come back in a :class:`RunReport` with a printable
  summary.

``serial=True`` (the ``--serial`` escape hatch everywhere) executes in
the calling process with identical semantics — useful under debuggers,
on platforms without fork, or to baseline the parallel speedup.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import ConfigurationError, RunnerError
from repro.runner.cache import ResultCache, cache_disabled, default_cache_dir
from repro.runner.registry import RunnerContext, current_context, execute
from repro.runner.task import ExperimentTask

__all__ = [
    "TaskStats",
    "RunReport",
    "ExperimentRunner",
    "default_cache",
    "execute_cached",
    "default_workers",
]

#: Cap on the default worker count; sweeps here are 4-30 tasks, and the
#: memory high-water mark scales with concurrent emulations.
_MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """Default pool size: CPU count, capped."""
    return max(1, min(_MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


def default_cache() -> Optional[ResultCache]:
    """The process-default cache, or None when ``REPRO_NO_CACHE`` is set."""
    if cache_disabled():
        return None
    return ResultCache(default_cache_dir())


def execute_cached(task: ExperimentTask) -> object:
    """Run one task in-process through the ambient cache.

    The single-task convenience the figure registry and CLI use; sweeps
    should go through :class:`ExperimentRunner`.  When called from
    inside a running task executor, the sub-task shares that task's
    context (cache and cycle guard) instead of opening the default
    cache — so a ``figure`` task resolving its comparison rows lands
    them in the same store its runner configured.
    """
    ctx = current_context()
    if ctx is not None:
        return ctx.run_task(task)
    result, _hit, _seconds = execute(task, default_cache())
    return result


@dataclass(frozen=True)
class TaskStats:
    """Execution record for one task.

    ``subtask_hits`` counts the task's sub-tasks served from the run's
    memo or the disk cache instead of being computed.
    """

    name: str
    kind: str
    seconds: float
    cached: bool
    worker: str
    subtask_hits: int = 0

    def row(self) -> Tuple[str, str, str, str, str]:
        return (
            self.name,
            f"{self.seconds:.2f}s",
            "hit" if self.cached else "miss",
            str(self.subtask_hits),
            self.worker,
        )


@dataclass(frozen=True)
class RunReport:
    """Everything one :meth:`ExperimentRunner.run` call produced.

    ``results`` is ordered like the submitted task list, independent of
    completion order.
    """

    results: Tuple[object, ...]
    stats: Tuple[TaskStats, ...]
    wall_seconds: float
    workers: int

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.stats if s.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for s in self.stats if not s.cached)

    @property
    def subtask_hits(self) -> int:
        """Sub-tasks served from a memo or the disk cache, summed."""
        return sum(s.subtask_hits for s in self.stats)

    @property
    def task_seconds(self) -> float:
        """Summed per-task compute time (> wall time when parallel)."""
        return sum(s.seconds for s in self.stats)

    @property
    def throughput_tasks_per_s(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.stats) / self.wall_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Ratio of summed task time to wall time (speedup achieved)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.task_seconds / self.wall_seconds

    def describe(self) -> str:
        """Printable run summary (per-task timing plus totals)."""
        from repro.experiments.formatting import format_table

        table = format_table(
            ["task", "time", "cache", "sub-hits", "worker"],
            [s.row() for s in self.stats],
        )
        return (
            f"{table}\n"
            f"{len(self.stats)} tasks in {self.wall_seconds:.2f}s wall "
            f"({self.task_seconds:.2f}s task time, "
            f"{self.throughput_tasks_per_s:.2f} tasks/s, "
            f"speedup {self.parallel_efficiency:.1f}x) — "
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses, "
            f"{self.subtask_hits} sub-task hits over {self.workers} worker(s)"
        )


def _execute_payload(
    payload: Tuple[str, dict, str, Optional[str], Optional[str]]
) -> Tuple[object, bool, float, str, int]:
    """Worker-side entry point: rebuild the task, execute through cache.

    Each pooled task gets its own context: a worker that kept every
    result it served would grow with the sweep, and which tasks share a
    worker depends on timing.
    """
    kind, params, label, cache_dir, salt = payload
    task = ExperimentTask(kind=kind, params=params, label=label)
    cache = (
        ResultCache(cache_dir, salt=salt) if cache_dir is not None else None
    )
    context = RunnerContext(cache)
    result, hit, seconds = execute(task, context=context)
    return result, hit, seconds, f"pid:{os.getpid()}", context.subtask_hits


class ExperimentRunner:
    """Fans experiment tasks out over a seeded, cached process pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to :func:`default_workers`.
    serial:
        Execute in-process instead (the ``--serial`` escape hatch).
    cache_dir:
        Cache root; defaults to ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro-runner``.  ``use_cache=False`` disables the
        disk cache; reuse within a run does not depend on it.
    salt:
        Cache-key salt override; defaults to the code-version salt.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        serial: bool = False,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        salt: Optional[str] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = default_workers() if workers is None else int(workers)
        self.serial = serial or self.workers == 1
        self._use_cache = use_cache and not cache_disabled()
        self._salt = salt
        self._cache_dir: Optional[Path]
        if not self._use_cache:
            self._cache_dir = None
        elif cache_dir is not None:
            self._cache_dir = Path(cache_dir).expanduser()
        else:
            self._cache_dir = default_cache_dir()

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._cache_dir

    def cache(self) -> Optional[ResultCache]:
        """A fresh cache handle for this runner's configuration."""
        if self._cache_dir is None:
            return None
        return ResultCache(self._cache_dir, salt=self._salt)

    def run(self, tasks: Sequence[ExperimentTask]) -> RunReport:
        """Execute tasks (parallel unless serial); results in input order."""
        task_list = list(tasks)
        for task in task_list:
            if not isinstance(task, ExperimentTask):
                raise ConfigurationError(
                    f"expected ExperimentTask, got {type(task).__name__}"
                )
        started = time.perf_counter()
        if self.serial or len(task_list) <= 1:
            results, stats = self._run_serial(task_list)
        else:
            results, stats = self._run_parallel(task_list)
        wall = time.perf_counter() - started
        return RunReport(
            results=tuple(results),
            stats=tuple(stats),
            wall_seconds=wall,
            workers=1 if self.serial else self.workers,
        )

    def run_one(self, task: ExperimentTask) -> object:
        """Execute a single task through this runner's cache."""
        return self.run([task]).results[0]

    def _run_serial(
        self, tasks: List[ExperimentTask]
    ) -> Tuple[List[object], List[TaskStats]]:
        """Run every task in one context.

        Identical specs, top-level or nested, are computed once and
        return the same object.
        """
        ctx = RunnerContext(self.cache())
        results: List[object] = []
        stats: List[TaskStats] = []
        for task in tasks:
            subtask_hits = ctx.subtask_hits
            result, hit, seconds = ctx.execute(task)
            results.append(result)
            stats.append(
                TaskStats(
                    name=task.name,
                    kind=task.kind,
                    seconds=seconds,
                    cached=hit,
                    worker="serial",
                    subtask_hits=ctx.subtask_hits - subtask_hits,
                )
            )
        return results, stats

    def _run_parallel(
        self, tasks: List[ExperimentTask]
    ) -> Tuple[List[object], List[TaskStats]]:
        """Submit each distinct spec once; fan results out in input order.

        A repeated spec gets the first copy's result object and a
        ``cached`` record with no time of its own.  A worker that dies
        raises :class:`~repro.exceptions.RunnerError` naming the tasks
        left unfinished.
        """
        cache_dir = None if self._cache_dir is None else str(self._cache_dir)
        first_of: Dict[str, int] = {}
        distinct: List[ExperimentTask] = []
        for task in tasks:
            if task.spec not in first_of:
                first_of[task.spec] = len(distinct)
                distinct.append(task)
        outcomes: List[Tuple[object, bool, float, str, int]] = []
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(distinct))
        ) as pool:
            futures = [
                pool.submit(
                    _execute_payload,
                    (task.kind, dict(task.params), task.label, cache_dir,
                     self._salt),
                )
                for task in distinct
            ]
            for future in futures:
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as error:
                    # The pool fails every unfinished future at once and
                    # cannot tell which one the dead worker held.
                    lost = [
                        task.name
                        for task, pending in zip(distinct, futures)
                        if isinstance(pending.exception(), BrokenProcessPool)
                    ]
                    raise RunnerError(
                        "a pool worker died abruptly; tasks left "
                        f"unfinished, in input order: {', '.join(lost)}"
                    ) from error
        results: List[object] = []
        stats: List[TaskStats] = []
        served: Set[int] = set()
        for task in tasks:
            index = first_of[task.spec]
            result, hit, seconds, worker, subtask_hits = outcomes[index]
            results.append(result)
            if index in served:
                hit, seconds, subtask_hits = True, 0.0, 0
            served.add(index)
            stats.append(
                TaskStats(
                    name=task.name,
                    kind=task.kind,
                    seconds=seconds,
                    cached=hit,
                    worker=worker,
                    subtask_hits=subtask_hits,
                )
            )
        return results, stats
