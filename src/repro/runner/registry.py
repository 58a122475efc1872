"""Task-kind registry and the execution context.

An executor is a pure function ``(params, ctx) -> result`` registered
under a task kind.  The :class:`RunnerContext` threaded into every
executor lets a task compute *sub-tasks through the same context* — the
mechanism by which one generated trace set is shared by the comparison,
sensitivity, and figure tasks that replay it, instead of each
regenerating it from scratch.  The context keeps every result it
computes or loads, so within one context each distinct spec is computed
at most once, with or without the on-disk cache.

Built-in kinds live in :mod:`repro.runner.tasks`; applications may
register their own with :func:`register_task_kind` (under a process
pool this relies on fork inheriting the registration, which is the
default start method on Linux — ``--serial`` is the portable fallback).
A kind may also register a cost estimate, a pure function of its
params; the parallel runner submits the tasks it can rank longest
first (:func:`estimated_cost`).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.task import ExperimentTask

__all__ = [
    "register_task_kind",
    "registered_kinds",
    "estimated_cost",
    "RunnerContext",
    "current_context",
    "execute",
]

TaskExecutor = Callable[[Mapping[str, object], "RunnerContext"], object]
TaskEstimate = Callable[[Mapping[str, object]], float]

_EXECUTORS: Dict[str, TaskExecutor] = {}
_ESTIMATES: Dict[str, TaskEstimate] = {}


def register_task_kind(
    kind: str,
    *,
    replace: bool = False,
    estimate: Optional[TaskEstimate] = None,
) -> Callable[[TaskExecutor], TaskExecutor]:
    """Decorator registering an executor for a task kind.

    ``estimate`` maps a task's params to its expected cost in any unit
    shared by the kind's peers (only the order of estimates matters);
    without one the kind's tasks keep their input order in a pool.
    """

    def decorate(executor: TaskExecutor) -> TaskExecutor:
        if not replace and kind in _EXECUTORS:
            raise ConfigurationError(
                f"task kind {kind!r} is already registered"
            )
        _EXECUTORS[kind] = executor
        if estimate is None:
            _ESTIMATES.pop(kind, None)
        else:
            _ESTIMATES[kind] = estimate
        return executor

    return decorate


def estimated_cost(task: ExperimentTask) -> Optional[float]:
    """The task's expected cost from its kind's estimate, or ``None``."""
    estimate = _ESTIMATES.get(task.kind)
    return None if estimate is None else float(estimate(task.params))


def executor_for(kind: str) -> TaskExecutor:
    """Resolve a kind to its executor, with a helpful error."""
    try:
        return _EXECUTORS[kind]
    except KeyError:
        known = ", ".join(sorted(_EXECUTORS)) or "(none)"
        raise ConfigurationError(
            f"unknown task kind {kind!r}; registered: {known}"
        ) from None


def registered_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_EXECUTORS))


class RunnerContext:
    """Execution context handed to every task executor.

    Carries the (optional) disk cache, a cycle guard for nested task
    execution, and the context's own memo: every result it computes or
    loads from disk, keyed by task spec, kept until the context is
    dropped.  Within one context each distinct spec — nested sub-tasks
    included — is therefore computed at most once, identical specs
    return the *same* object, and a disk hit is unpickled once.  This
    holds with the disk cache off too; failures are never kept.  Memory
    grows with the distinct results the context has served, so a
    context lives for one :meth:`ExperimentRunner.run
    <repro.runner.runner.ExperimentRunner.run>` (or one pooled task).

    ``subtask_hits`` counts the sub-tasks (tasks executed from inside
    another task) served from the memo or the disk cache.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        self.subtask_hits = 0
        self._in_progress: Set[str] = set()
        self._results: Dict[str, object] = {}

    def run_task(self, task: ExperimentTask) -> object:
        """Compute a (sub-)task through the context; returns its result."""
        result, _hit, _seconds = self.execute(task)
        return result

    def execute(self, task: ExperimentTask) -> Tuple[object, bool, float]:
        """Compute or reuse one task: ``(result, hit, seconds)``.

        ``hit`` is True when the result came from this context's memo or
        from the disk cache rather than from the executor.
        """
        spec = task.spec
        if spec in self._in_progress:
            raise ConfigurationError(
                f"task cycle detected at {task.name}: a task may not "
                "(transitively) depend on itself"
            )
        # Timing below is runner telemetry only: the seconds never enter
        # a cached payload or a result, so the wall-clock reads are safe.
        started = time.perf_counter()  # repro-lint: disable=REPRO111
        hit = spec in self._results
        if hit:
            result = self._results[spec]
        elif self.cache is not None:
            result, hit = self.cache.get(task)
            if hit:
                self._results[spec] = result
        if hit:
            if self._in_progress:
                self.subtask_hits += 1
            return result, True, time.perf_counter() - started  # repro-lint: disable=REPRO111
        executor = executor_for(task.kind)
        self._in_progress.add(spec)
        global _ACTIVE_CONTEXT
        previous = _ACTIVE_CONTEXT
        # The active-context swap is restored in the finally below; it
        # carries no task-visible state, only cache/cycle-guard routing.
        _ACTIVE_CONTEXT = self  # repro-lint: disable=REPRO111
        try:
            result = executor(task.params, self)
        finally:
            _ACTIVE_CONTEXT = previous  # repro-lint: disable=REPRO111
            self._in_progress.discard(spec)
        self._results[spec] = result
        if self.cache is not None:
            self.cache.put(task, result)
        return result, False, time.perf_counter() - started  # repro-lint: disable=REPRO111


#: The context of the task executing right now (one task at a time per
#: process).  Lets library code reached *from inside* an executor — the
#: figure registry calling back into the comparison sweep, say — route
#: its sub-tasks through the same context (memo, cache and cycle guard)
#: instead of a detached default cache.
_ACTIVE_CONTEXT: Optional[RunnerContext] = None


def current_context() -> Optional[RunnerContext]:
    """The context of the currently-executing task, if any."""
    return _ACTIVE_CONTEXT


def execute(
    task: ExperimentTask,
    cache: Optional[ResultCache] = None,
    *,
    context: Optional[RunnerContext] = None,
) -> Tuple[object, bool, float]:
    """Execute one task in this process: ``(result, hit, seconds)``.

    Runs in a fresh context over ``cache``, or in ``context`` (which
    carries its own cache) when the caller wants to read its
    :attr:`~RunnerContext.subtask_hits` afterwards.
    """
    if context is None:
        context = RunnerContext(cache)
    return context.execute(task)
