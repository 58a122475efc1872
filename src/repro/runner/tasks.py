"""Built-in experiment task kinds and sweep builders.

Task kinds map the repo's experiment entry points onto the runner:

* ``trace-set`` — calibrated datacenter trace generation (the shared
  sub-task every replay depends on; cached once, reused everywhere),
* ``comparison`` — the Section-5 three-scheme comparison (Figs. 7-12),
* ``sensitivity`` — the utilization-bound sweep (Figs. 13-16),
* ``figure`` — any registered figure/table report by id,
* ``planning-run`` — one constrained planner run (the engagement
  workflow of ``examples/datacenter_planning.py``).

The factory functions build canonical :class:`ExperimentTask` specs —
every workload parameter, emulator knob, and seed lands in ``params``
so the cache key covers it.  The sweep builders produce the task lists
the paper's reproduction fans out.  ``comparison`` and ``sensitivity``
register a cost estimate (the VMs they plan times their plans) for the
parallel runner's longest-first submission.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Mapping, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.settings import (
    UTILIZATION_BOUND_SWEEP,
    ExperimentSettings,
)
from repro.infrastructure.costs import PowerCostModel, SpaceCostModel
from repro.runner.registry import RunnerContext, register_task_kind
from repro.runner.task import ExperimentTask, derive_seed
from repro.workloads.datacenters import (
    ALL_DATACENTERS,
    STUDY_DAYS,
    datacenter_specs,
    get_datacenter_config,
)
from repro.workloads.trace import TraceSet

__all__ = [
    "settings_params",
    "settings_from_params",
    "trace_task",
    "comparison_task",
    "sensitivity_task",
    "figure_task",
    "planning_task",
    "comparison_sweep",
    "sensitivity_sweep",
]

KIND_TRACE_SET = "trace-set"
KIND_COMPARISON = "comparison"
KIND_SENSITIVITY = "sensitivity"
KIND_FIGURE = "figure"
KIND_PLANNING_RUN = "planning-run"


# ----------------------------------------------------------------------
# Settings <-> params

def settings_params(settings: ExperimentSettings) -> Dict[str, object]:
    """Canonical parameter document for an :class:`ExperimentSettings`."""
    return asdict(settings)


def settings_from_params(params: Mapping[str, object]) -> ExperimentSettings:
    """Rebuild :class:`ExperimentSettings` from its parameter document."""
    document = dict(params)
    return ExperimentSettings(
        evaluation_days=int(document["evaluation_days"]),
        interval_hours=float(document["interval_hours"]),
        reservation=float(document["reservation"]),
        scale=float(document["scale"]),
        space_cost=SpaceCostModel(**dict(document["space_cost"])),
        power_cost=PowerCostModel(**dict(document["power_cost"])),
        pool_fraction=float(document["pool_fraction"]),
    )


# ----------------------------------------------------------------------
# Task factories

def trace_task(
    datacenter: str,
    *,
    scale: float,
    days: int = STUDY_DAYS,
    seed: Optional[int] = None,
) -> ExperimentTask:
    """Trace-generation task for one datacenter preset.

    ``seed=None`` keeps the preset's calibrated seed (the paper
    reproduction); sweeps over alternative realizations derive explicit
    seeds via :func:`repro.runner.task.derive_seed`.
    """
    config = get_datacenter_config(datacenter)  # validates key early
    return ExperimentTask(
        kind=KIND_TRACE_SET,
        params={
            "datacenter": config.key,
            "scale": float(scale),
            "days": int(days),
            "seed": None if seed is None else int(seed),
        },
        label=f"traces:{config.key}",
    )


def comparison_task(
    datacenter: str,
    settings: ExperimentSettings,
    *,
    seed: Optional[int] = None,
) -> ExperimentTask:
    """Section-5 three-scheme comparison task for one datacenter."""
    config = get_datacenter_config(datacenter)
    return ExperimentTask(
        kind=KIND_COMPARISON,
        params={
            "datacenter": config.key,
            "settings": settings_params(settings),
            "seed": None if seed is None else int(seed),
        },
        label=f"comparison:{config.key}",
    )


def sensitivity_task(
    datacenter: str,
    settings: ExperimentSettings,
    *,
    bounds: Sequence[float] = UTILIZATION_BOUND_SWEEP,
    seed: Optional[int] = None,
) -> ExperimentTask:
    """Utilization-bound sensitivity task (Figs. 13-16) for one datacenter."""
    config = get_datacenter_config(datacenter)
    return ExperimentTask(
        kind=KIND_SENSITIVITY,
        params={
            "datacenter": config.key,
            "settings": settings_params(settings),
            "bounds": [float(b) for b in bounds],
            "seed": None if seed is None else int(seed),
        },
        label=f"sensitivity:{config.key}",
    )


def figure_task(
    figure_id: str, settings: ExperimentSettings
) -> ExperimentTask:
    """Task computing one registered figure/table's text report."""
    return ExperimentTask(
        kind=KIND_FIGURE,
        params={
            "figure_id": figure_id.lower(),
            "settings": settings_params(settings),
        },
        label=f"figure:{figure_id.lower()}",
    )


def planning_task(
    datacenter: str,
    *,
    scale: float,
    algorithm: str,
    utilization_bound: float = 0.8,
    interval_hours: float = 2.0,
    evaluation_days: int = 14,
    pool_hosts: int,
    hosts_per_rack: int = 14,
    constraints: Sequence[Mapping[str, object]] = (),
    days: int = STUDY_DAYS,
    seed: Optional[int] = None,
) -> ExperimentTask:
    """One constrained planner run (the engagement workflow).

    ``constraints`` are declarative specs — ``{"type": "anti-colocate",
    "vms": [a, b]}``, ``{"type": "pin", "vm": v, "host": h}``, or
    ``{"type": "same-subnet", "vms": [...]}`` — so the whole run stays a
    JSON-addressable, cacheable document.
    """
    config = get_datacenter_config(datacenter)
    if algorithm not in _ALGORITHM_FACTORIES:
        known = ", ".join(sorted(_ALGORITHM_FACTORIES))
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; known: {known}"
        )
    return ExperimentTask(
        kind=KIND_PLANNING_RUN,
        params={
            "datacenter": config.key,
            "scale": float(scale),
            "days": int(days),
            "seed": None if seed is None else int(seed),
            "algorithm": algorithm,
            "utilization_bound": float(utilization_bound),
            "interval_hours": float(interval_hours),
            "evaluation_days": int(evaluation_days),
            "pool_hosts": int(pool_hosts),
            "hosts_per_rack": int(hosts_per_rack),
            "constraints": [dict(spec) for spec in constraints],
        },
        label=f"plan:{config.key}:{algorithm}@{utilization_bound:.2f}",
    )


# ----------------------------------------------------------------------
# Sweep builders

def comparison_sweep(
    settings: ExperimentSettings,
    datacenters: Optional[Sequence[str]] = None,
) -> List[ExperimentTask]:
    """Comparison tasks for the requested datacenters (default: all four)."""
    keys = (
        [c.key for c in ALL_DATACENTERS]
        if datacenters is None
        else list(datacenters)
    )
    return [comparison_task(key, settings) for key in keys]


def sensitivity_sweep(
    settings: ExperimentSettings,
    datacenters: Optional[Sequence[str]] = None,
    *,
    bounds: Sequence[float] = UTILIZATION_BOUND_SWEEP,
    replicates: int = 1,
) -> List[ExperimentTask]:
    """Sensitivity tasks per datacenter, optionally over replicate seeds.

    Replicate 0 keeps each preset's calibrated seed (the paper numbers);
    replicate ``r > 0`` derives an independent seed from the preset seed
    and ``r``, deterministically and order-independently.
    """
    if replicates < 1:
        raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
    keys = (
        [c.key for c in ALL_DATACENTERS]
        if datacenters is None
        else list(datacenters)
    )
    tasks = []
    for key in keys:
        config = get_datacenter_config(key)
        for replicate in range(replicates):
            seed = (
                None
                if replicate == 0
                else derive_seed(config.seed, "sensitivity", replicate)
            )
            tasks.append(
                sensitivity_task(key, settings, bounds=bounds, seed=seed)
            )
    return tasks


# ----------------------------------------------------------------------
# Executors

@register_task_kind(KIND_TRACE_SET)
def _execute_trace_set(
    params: Mapping[str, object], ctx: RunnerContext
) -> TraceSet:
    from repro.workloads.datacenters import generate_datacenter

    seed = params.get("seed")
    return generate_datacenter(
        str(params["datacenter"]),
        scale=float(params["scale"]),  # type: ignore[arg-type]
        days=int(params["days"]),  # type: ignore[arg-type]
        seed=None if seed is None else int(seed),  # type: ignore[arg-type]
    )


def _trace_set_for(
    params: Mapping[str, object],
    ctx: RunnerContext,
    scale: float,
    days: int = STUDY_DAYS,
) -> TraceSet:
    """Resolve a task's trace set through the shared cache."""
    seed = params.get("seed")
    task = trace_task(
        str(params["datacenter"]),
        scale=scale,
        days=days,
        seed=None if seed is None else int(seed),  # type: ignore[arg-type]
    )
    result = ctx.run_task(task)
    assert isinstance(result, TraceSet)
    return result


def _vm_count(params: Mapping[str, object]) -> int:
    """VMs a comparison or sensitivity task plans, from its params."""
    settings = params["settings"]
    return sum(
        count
        for *_, count in datacenter_specs(
            str(params["datacenter"]),
            scale=float(settings["scale"]),  # type: ignore[index]
        )
    )


def _comparison_estimate(params: Mapping[str, object]) -> float:
    """VMs × plans: semi-static, stochastic and dynamic."""
    return 3 * _vm_count(params)


def _sensitivity_estimate(params: Mapping[str, object]) -> float:
    """VMs × plans: semi-static, stochastic and one dynamic per bound."""
    return (len(params["bounds"]) + 2) * _vm_count(params)  # type: ignore[arg-type]


@register_task_kind(KIND_COMPARISON, estimate=_comparison_estimate)
def _execute_comparison(
    params: Mapping[str, object], ctx: RunnerContext
) -> object:
    from repro.experiments.comparison import run_comparison

    settings = settings_from_params(params["settings"])  # type: ignore[arg-type]
    trace_set = _trace_set_for(params, ctx, settings.scale)
    return run_comparison(
        str(params["datacenter"]), settings, trace_set=trace_set
    )


@register_task_kind(KIND_SENSITIVITY, estimate=_sensitivity_estimate)
def _execute_sensitivity(
    params: Mapping[str, object], ctx: RunnerContext
) -> object:
    from repro.experiments.sensitivity import run_sensitivity

    settings = settings_from_params(params["settings"])  # type: ignore[arg-type]
    trace_set = _trace_set_for(params, ctx, settings.scale)
    return run_sensitivity(
        str(params["datacenter"]),
        settings,
        bounds=tuple(params["bounds"]),  # type: ignore[arg-type]
        trace_set=trace_set,
    )


@register_task_kind(KIND_FIGURE)
def _execute_figure(params: Mapping[str, object], ctx: RunnerContext) -> str:
    from repro.experiments.figures import run_figure

    settings = settings_from_params(params["settings"])  # type: ignore[arg-type]
    return run_figure(str(params["figure_id"]), settings)


_ALGORITHM_FACTORIES = {
    "semi-static": "SemiStaticConsolidation",
    "stochastic": "StochasticConsolidation",
    "dynamic": "DynamicConsolidation",
}


def _build_constraint(spec: Mapping[str, object]) -> object:
    from repro.constraints import AntiColocate, PinToHost, SameSubnet

    kind = spec.get("type")
    if kind == "anti-colocate":
        vms = list(spec["vms"])  # type: ignore[arg-type]
        return AntiColocate(*vms)
    if kind == "pin":
        return PinToHost(str(spec["vm"]), str(spec["host"]))
    if kind == "same-subnet":
        vms = list(spec["vms"])  # type: ignore[arg-type]
        return SameSubnet(*vms)
    raise ConfigurationError(f"unknown constraint spec type {kind!r}")


@register_task_kind(KIND_PLANNING_RUN)
def _execute_planning_run(
    params: Mapping[str, object], ctx: RunnerContext
) -> object:
    import repro.core as core
    from repro.constraints.manager import ConstraintSet
    from repro.core.base import PlanningConfig
    from repro.core.planner import ConsolidationPlanner
    from repro.infrastructure.datacenter import build_target_pool

    trace_set = _trace_set_for(
        params,
        ctx,
        float(params["scale"]),  # type: ignore[arg-type]
        days=int(params["days"]),  # type: ignore[arg-type]
    )
    pool = build_target_pool(
        f"{params['datacenter']}-pool",
        host_count=int(params["pool_hosts"]),  # type: ignore[arg-type]
        hosts_per_rack=int(params["hosts_per_rack"]),  # type: ignore[arg-type]
    )
    constraints = ConstraintSet(
        [_build_constraint(spec) for spec in params["constraints"]]  # type: ignore[union-attr]
    )
    planner = ConsolidationPlanner(
        traces=trace_set,
        datacenter=pool,
        constraints=constraints,
        config=PlanningConfig(
            utilization_bound=float(params["utilization_bound"]),  # type: ignore[arg-type]
            interval_hours=float(params["interval_hours"]),  # type: ignore[arg-type]
        ),
        evaluation_days=int(params["evaluation_days"]),  # type: ignore[arg-type]
    )
    algorithm_class = getattr(core, _ALGORITHM_FACTORIES[str(params["algorithm"])])
    return planner.run(algorithm_class())
