"""Matrix sizing == the per-VM reference sizing, bit for bit.

``estimate_all`` and ``estimate_matrix`` (with its one-cell view
``estimate_from_values``) are the library's one sizing path; every
produced demand must equal the per-trace / per-value arithmetic of
``tests/reference/sizing.py`` exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sizing.estimator import SizeEstimator, VirtualizationOverhead
from repro.sizing.functions import (
    BodyTailSizing,
    MaxSizing,
    MeanSizing,
    PercentileSizing,
)
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace
from tests.reference.sizing import (
    estimate_from_values_reference,
    estimate_reference,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

ESTIMATOR_VARIANTS = [
    SizeEstimator(),
    SizeEstimator(sizing=BodyTailSizing()),
    SizeEstimator(
        sizing=MaxSizing(),
        overhead=VirtualizationOverhead(
            cpu_overhead_frac=0.12,
            memory_overhead_gb=0.3,
            dedup_savings_frac=0.2,
        ),
        network=NetworkDemandModel(),
        disk=DiskDemandModel(),
    ),
    SizeEstimator(
        sizing=BodyTailSizing(body_percentile=95.0),
        network=NetworkDemandModel(),
        disk=DiskDemandModel(),
    ),
]


def _random_trace_set(rng: random.Random, n_vms: int, hours: int) -> TraceSet:
    traces = []
    classes = [None, "web-interactive", "steady-batch", "scheduled-batch"]
    for i in range(n_vms):
        trace = make_server_trace(
            f"vm{i:03d}",
            [rng.uniform(0.0, 0.9) for _ in range(hours)],
            [rng.uniform(0.1, 6.0) for _ in range(hours)],
            cpu_rpe2=3000.0,
        )
        workload_class = rng.choice(classes)
        if workload_class is not None:
            object.__setattr__(trace.vm, "workload_class", workload_class)
        traces.append(trace)
    return TraceSet("estmatrix", traces)


def _assert_same_demands(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a == b, (a, b)


@pytest.mark.parametrize(
    "estimator", ESTIMATOR_VARIANTS, ids=lambda e: type(e.sizing).__name__
)
def test_estimate_all_matrix_matches_scalar(estimator) -> None:
    rng = random.Random(repr(estimator.sizing))
    for _ in range(8):
        traces = _random_trace_set(
            rng, n_vms=rng.randint(1, 16), hours=rng.randint(1, 72)
        )
        _assert_same_demands(
            [estimate_reference(estimator, trace) for trace in traces],
            estimator.estimate_all(traces),
        )


@pytest.mark.parametrize(
    "sizing",
    [MeanSizing(), PercentileSizing(50.0), PercentileSizing(97.5)],
    ids=repr,
)
def test_any_sizing_runs_on_the_matrices(sizing) -> None:
    """Every sizing function reduces the store rows, also on windowed
    (column-sliced) store views, and equals sizing trace by trace."""
    rng = random.Random(f"rows-{sizing!r}")
    estimator = SizeEstimator(
        sizing=sizing, network=NetworkDemandModel(), disk=DiskDemandModel()
    )
    for _ in range(12):
        hours = rng.randint(2, 72)
        traces = _random_trace_set(rng, n_vms=rng.randint(1, 16), hours=hours)
        traces.store  # window the built store: a zero-copy column slice
        start = rng.randrange(hours - 1)
        window = traces.window(start, rng.randint(start + 1, hours))
        for trace_set in (traces, window):
            _assert_same_demands(
                [estimate_reference(estimator, t) for t in trace_set],
                estimator.estimate_all(trace_set),
            )


def test_unknown_engine_rejected(flat_trace_set) -> None:
    """Sizing picks its path by sizing function: no ``engine`` option."""
    with pytest.raises(TypeError):
        SizeEstimator().estimate_all(flat_trace_set, engine="matrix")


@pytest.mark.parametrize(
    "estimator", ESTIMATOR_VARIANTS, ids=lambda e: type(e.sizing).__name__
)
def test_estimate_matrix_matches_estimate_from_values(estimator) -> None:
    rng = random.Random(f"table-{estimator.sizing!r}")
    for _ in range(8):
        n_vms = rng.randint(1, 12)
        n_intervals = rng.randint(1, 10)
        vm_ids = [f"vm{i:03d}" for i in range(n_vms)]
        classes = [
            rng.choice([None, "web-interactive", "steady-batch"])
            for _ in range(n_vms)
        ]
        cpu = np.array(
            [[rng.uniform(0.0, 2500.0) for _ in range(n_intervals)]
             for _ in range(n_vms)]
        )
        memory = np.array(
            [[rng.uniform(0.0, 8.0) for _ in range(n_intervals)]
             for _ in range(n_vms)]
        )
        table = estimator.estimate_matrix(vm_ids, cpu, memory, classes)
        assert table.n_vms == n_vms and table.n_columns == n_intervals
        for column in range(n_intervals):
            for row in range(n_vms):
                args = (
                    vm_ids[row],
                    float(cpu[row, column]),
                    float(memory[row, column]),
                    classes[row],
                )
                scalar = estimate_from_values_reference(estimator, *args)
                assert table.demand(row, column) == scalar, (row, column)
                assert estimator.estimate_from_values(*args) == scalar


def test_estimate_matrix_rejects_negative_with_scalar_message() -> None:
    estimator = SizeEstimator()
    cpu = np.array([[10.0, 20.0], [5.0, -1.0]])
    memory = np.ones_like(cpu)
    with pytest.raises(ConfigurationError) as batched_error:
        estimator.estimate_matrix(["a", "b"], cpu, memory)
    with pytest.raises(ConfigurationError) as scalar_error:
        estimator.estimate_from_values("b", -1.0, 1.0)
    assert str(batched_error.value) == str(scalar_error.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("resource", ["cpu", "memory"])
def test_non_finite_peaks_rejected(bad, resource) -> None:
    """NaN and infinite peaks fail like negative ones, naming the VM."""
    estimator = SizeEstimator()
    cpu = np.array([[10.0, 20.0], [5.0, 6.0]])
    memory = np.ones_like(cpu)
    (cpu if resource == "cpu" else memory)[1, 1] = bad
    with pytest.raises(ConfigurationError, match="^b: predicted demand"):
        estimator.estimate_matrix(["a", "b"], cpu, memory)
    values = [5.0, 1.0]
    values[0 if resource == "cpu" else 1] = bad
    with pytest.raises(ConfigurationError, match="^b: predicted demand"):
        estimator.estimate_from_values("b", *values)


def test_estimate_matrix_shape_validation() -> None:
    estimator = SizeEstimator()
    with pytest.raises(ConfigurationError):
        estimator.estimate_matrix(["a"], np.ones((1, 2)), np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        estimator.estimate_matrix(["a", "b"], np.ones((1, 2)), np.ones((1, 2)))


if HAVE_HYPOTHESIS:

    @given(
        data=st.data(),
        n_vms=st.integers(1, 8),
        n_intervals=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_estimate_matrix_matches(data, n_vms, n_intervals):
        values = st.floats(0.0, 1e5, allow_nan=False)
        cpu = np.array(
            data.draw(
                st.lists(
                    st.lists(values, min_size=n_intervals, max_size=n_intervals),
                    min_size=n_vms,
                    max_size=n_vms,
                )
            )
        )
        memory = np.array(
            data.draw(
                st.lists(
                    st.lists(values, min_size=n_intervals, max_size=n_intervals),
                    min_size=n_vms,
                    max_size=n_vms,
                )
            )
        )
        estimator = data.draw(st.sampled_from(ESTIMATOR_VARIANTS))
        vm_ids = [f"vm{i}" for i in range(n_vms)]
        classes = data.draw(
            st.lists(
                st.sampled_from([None, "web-interactive", "steady-batch"]),
                min_size=n_vms,
                max_size=n_vms,
            )
        )
        table = estimator.estimate_matrix(vm_ids, cpu, memory, classes)
        for row in range(n_vms):
            for column in range(n_intervals):
                assert table.demand(row, column) == (
                    estimate_from_values_reference(
                        estimator,
                        vm_ids[row],
                        float(cpu[row, column]),
                        float(memory[row, column]),
                        workload_class=classes[row],
                    )
                )
