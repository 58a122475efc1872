"""Peak-table kernels == the scalar reference predictors, bit for bit.

``build_peak_table`` runs each predictor's one kernel,
``predict_peak_table``, over a whole ``(n_vms, n_points)`` series.  The
equivalence contract is exact equality with
``tests/reference/prediction.py`` on every row and interval start, not
closeness.  Driven by seeded stdlib sweeps that always run, plus
hypothesis when available.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.sizing import prediction
from repro.sizing.prediction import (
    EwmaPredictor,
    LastIntervalPredictor,
    OraclePredictor,
    PeriodicPeakPredictor,
    build_peak_table,
)
from tests.reference.prediction import (
    peak_table_reference,
    predict_peak_reference,
)

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

PREDICTORS = [
    LastIntervalPredictor(),
    EwmaPredictor(),
    EwmaPredictor(alpha=1.0),
    PeriodicPeakPredictor(period=12, lookback_days=3),
]


def _random_matrix(rng: random.Random, n_rows: int, n_points: int):
    base = np.array(
        [[rng.uniform(0.0, 500.0) for _ in range(n_points)] for _ in range(n_rows)]
    )
    return base


def _predict_rows(predictor, history, horizon, future=None):
    """Every row's prediction at the end of ``history``: a one-start table."""
    full = history if future is None else np.hstack([history, future])
    return build_peak_table(predictor, full, horizon, [history.shape[1]])[:, 0]


def _assert_matrix_matches_scalar(predictor, history, horizon, future=None):
    batched = _predict_rows(predictor, history, horizon, future)
    for row in range(history.shape[0]):
        scalar = predict_peak_reference(
            predictor,
            history[row],
            horizon,
            actual_future=None if future is None else future[row],
        )
        assert batched[row] == scalar, (type(predictor).__name__, row)


@pytest.mark.parametrize("predictor", PREDICTORS, ids=lambda p: repr(p))
def test_matrix_matches_scalar_random(predictor) -> None:
    rng = random.Random(repr(predictor))
    for _ in range(20):
        n_rows = rng.randint(1, 12)
        n_points = rng.randint(2, 80)
        horizon = rng.randint(1, n_points)
        history = _random_matrix(rng, n_rows, n_points)
        _assert_matrix_matches_scalar(predictor, history, horizon)


def test_oracle_matrix_matches_scalar() -> None:
    rng = random.Random("oracle")
    predictor = OraclePredictor()
    for _ in range(20):
        n_rows = rng.randint(1, 12)
        horizon = rng.randint(1, 24)
        history = _random_matrix(rng, n_rows, rng.randint(2, 40))
        future = _random_matrix(rng, n_rows, horizon + rng.randint(0, 10))
        _assert_matrix_matches_scalar(
            predictor, history, horizon, future=future
        )


@pytest.mark.parametrize(
    "predictor",
    PREDICTORS + [OraclePredictor()],
    ids=lambda p: repr(p),
)
def test_peak_table_matches_per_interval_loop(predictor) -> None:
    """The full table equals interval-by-interval scalar prediction."""
    rng = random.Random(f"table-{predictor!r}")
    for _ in range(10):
        n_rows = rng.randint(1, 8)
        horizon = rng.randint(1, 12)
        history_points = horizon * rng.randint(1, 4)
        n_intervals = rng.randint(1, 6)
        n_points = history_points + horizon * n_intervals
        full = _random_matrix(rng, n_rows, n_points)
        starts = [history_points + i * horizon for i in range(n_intervals)]
        table = build_peak_table(predictor, full, horizon, starts)
        assert table.shape == (n_rows, n_intervals)
        np.testing.assert_array_equal(
            table, peak_table_reference(predictor, full, horizon, starts)
        )


def _irregular_predictor(rng: random.Random, kind: str):
    if kind == "oracle":
        return OraclePredictor()
    if kind == "last":
        return LastIntervalPredictor()
    if kind == "ewma":
        return EwmaPredictor(alpha=rng.choice([0.05, 0.3, 0.7, 1.0]))
    return PeriodicPeakPredictor(
        period=rng.randint(1, 12),
        lookback_days=rng.randint(1, 4),
        safety_margin=rng.choice([0.0, 0.1, 0.25]),
    )


@pytest.mark.parametrize("kind", ["oracle", "last", "ewma", "periodic"])
def test_irregular_starts_match_reference(kind) -> None:
    """Any start list: unsorted, repeated, mixed phases, short history.

    The planners ask for regular starts (``history + i * horizon``);
    this sweep reaches the branches they never do, including a periodic
    predictor whose period is shorter than the horizon.
    """
    rng = random.Random(f"irregular-{kind}")
    seen = {"unsorted": 0, "repeated": 0, "mixed_phase": 0, "short": 0,
            "period_lt_horizon": 0}
    for _ in range(300):
        predictor = _irregular_predictor(rng, kind)
        horizon = rng.randint(1, 10)
        n_points = rng.randint(horizon + 1, 60)
        full = _random_matrix(rng, rng.randint(1, 5), n_points)
        last_start = n_points - horizon if kind == "oracle" else n_points
        starts = [rng.randint(1, last_start) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            starts.append(rng.choice(starts))
        table = build_peak_table(predictor, full, horizon, starts)
        assert table.shape == (full.shape[0], len(starts))
        np.testing.assert_array_equal(
            table, peak_table_reference(predictor, full, horizon, starts)
        )
        seen["unsorted"] += starts != sorted(starts)
        seen["repeated"] += len(set(starts)) < len(starts)
        seen["mixed_phase"] += len({s % horizon for s in starts}) > 1
        seen["short"] += any(s < horizon for s in starts)
        seen["period_lt_horizon"] += (
            isinstance(predictor, PeriodicPeakPredictor)
            and predictor.period < horizon
        )
    if kind != "periodic":
        del seen["period_lt_horizon"]
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "predictor", PREDICTORS + [OraclePredictor()], ids=lambda p: repr(p)
)
@pytest.mark.parametrize("n_points, horizon", [(10, 4), (2, 5)])
def test_empty_starts_give_empty_table(predictor, n_points, horizon) -> None:
    full = np.arange(3.0 * n_points).reshape(3, n_points)
    table = build_peak_table(predictor, full, horizon, [])
    assert table.shape == (3, 0)


@pytest.mark.parametrize("block_cells", [1, 7, 150])
@pytest.mark.parametrize("kind", ["oracle", "last", "periodic"])
def test_window_kernels_across_row_blocks(
    monkeypatch, kind, block_cells
) -> None:
    """The window kernels work through the rows in blocks; small blocks
    (one row, several rows with a partial last block) give the same
    table as the reference."""
    monkeypatch.setattr(prediction, "_WINDOW_BLOCK_CELLS", block_cells)
    rng = random.Random(f"blocks-{kind}-{block_cells}")
    for _ in range(20):
        predictor = _irregular_predictor(rng, kind)
        horizon = rng.randint(1, 9)
        n_points = rng.randint(horizon + 1, 40)
        full = _random_matrix(rng, rng.randint(1, 11), n_points)
        last_start = n_points - horizon if kind == "oracle" else n_points
        starts = [rng.randint(1, last_start) for _ in range(6)]
        np.testing.assert_array_equal(
            build_peak_table(predictor, full, horizon, starts),
            peak_table_reference(predictor, full, horizon, starts),
        )


@pytest.mark.parametrize(
    "predictor, horizon, n_points, starts",
    [
        # No horizon-wide window fits the series: prefixes only.
        (LastIntervalPredictor(), 9, 5, [1, 3, 5]),
        (PeriodicPeakPredictor(period=2, lookback_days=3), 9, 5, [2, 5]),
        # Starts past one period but short of the horizon: the recency
        # window is a prefix while lookback days exist, and days whose
        # window would end at the start are covered by it.
        (PeriodicPeakPredictor(period=3, lookback_days=4), 8, 30,
         [3, 4, 7, 8, 20, 30]),
        # A prefix exactly one horizon wide, and lookback days no start
        # reaches.
        (PeriodicPeakPredictor(period=10, lookback_days=9), 4, 25,
         [4, 9, 12, 25]),
        # Horizons around powers of two for the doubling passes.
        (LastIntervalPredictor(), 1, 12, [1, 6, 12]),
        (LastIntervalPredictor(), 5, 40, [5, 17, 40]),
        (LastIntervalPredictor(), 8, 40, [8, 9, 40]),
        (OraclePredictor(), 7, 40, [1, 16, 33]),
    ],
)
def test_window_shapes_the_planners_never_ask_for(
    predictor, horizon, n_points, starts
) -> None:
    full = _random_matrix(random.Random(n_points), 4, n_points)
    np.testing.assert_array_equal(
        build_peak_table(predictor, full, horizon, starts),
        peak_table_reference(predictor, full, horizon, starts),
    )


def test_flat_history_predicts_flat() -> None:
    history = np.full((3, 48), 0.25)
    for predictor in PREDICTORS:
        batched = _predict_rows(predictor, history, 12)
        assert np.all(
            batched == predict_peak_reference(predictor, history[0], 12)
        )


if HAVE_HYPOTHESIS:

    @given(
        data=st.data(),
        n_rows=st.integers(1, 6),
        n_points=st.integers(2, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_matrix_matches_scalar(data, n_rows, n_points):
        history = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(0.0, 1e4, allow_nan=False),
                        min_size=n_points,
                        max_size=n_points,
                    ),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            )
        )
        horizon = data.draw(st.integers(1, n_points))
        predictor = data.draw(st.sampled_from(PREDICTORS))
        _assert_matrix_matches_scalar(predictor, history, horizon)
