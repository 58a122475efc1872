"""Tests for dynamic-placement candidate scoring (Bobroff-style)."""

import numpy as np
import pytest

from repro.analysis.candidates import rank_candidates, score_candidate
from repro.exceptions import TraceError
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _diurnal_bursty(vm_id, days=14, base=0.05, peak=0.8):
    hours = days * 24
    util = np.full(hours, base)
    for day in range(days):
        util[day * 24 + 12] = peak  # same hour every day: predictable
        util[day * 24 + 13] = peak * 0.8
    return make_server_trace(vm_id, util, np.full(hours, 1.0))


def _flat(vm_id, days=14, level=0.3):
    hours = days * 24
    return make_server_trace(
        vm_id, np.full(hours, level), np.full(hours, 1.0)
    )


def _random_spiky(vm_id, days=14, seed=0):
    rng = np.random.default_rng(seed)
    hours = days * 24
    util = np.full(hours, 0.05)
    util[rng.choice(hours, size=10, replace=False)] = 0.9
    return make_server_trace(vm_id, util, np.full(hours, 1.0))


class TestScoreCandidate:
    def test_predictable_bursty_server_is_good(self):
        score = score_candidate(_diurnal_bursty("good"))
        assert score.is_good_candidate
        assert score.reclaimable_fraction > 0.5
        assert score.predictability > 0.5

    def test_flat_server_has_nothing_to_reclaim(self):
        score = score_candidate(_flat("flat"))
        assert score.reclaimable_fraction == pytest.approx(0.0)
        assert not score.is_good_candidate

    def test_unpredictable_spikes_are_poor_candidates(self):
        # Big reclaimable gap, but no periodic structure to act on.
        score = score_candidate(_random_spiky("spiky"))
        assert score.reclaimable_fraction > 0.5
        assert score.predictability < 0.4
        assert not score.is_good_candidate

    def test_zero_demand_server(self):
        # All-zero CPU cannot gain anything; must not divide by zero.
        hours = 14 * 24
        trace = make_server_trace(
            "idle", np.zeros(hours) + 0.0, np.full(hours, 1.0)
        )
        score = score_candidate(trace)
        assert score.score == 0.0

    def test_percentile_validation(self):
        with pytest.raises(TraceError):
            score_candidate(_flat("x"), body_percentile=100.0)


class TestRankCandidates:
    def test_ordering(self):
        ts = TraceSet(
            "rank", [_flat("flat"), _diurnal_bursty("good"), _random_spiky("spiky")]
        )
        ranked = rank_candidates(ts)
        assert ranked[0].vm_id == "good"
        assert ranked[-1].vm_id == "flat"

    def test_every_server_scored(self, generated_trace_set):
        ranked = rank_candidates(generated_trace_set)
        assert {s.vm_id for s in ranked} == set(generated_trace_set.vm_ids)

    def test_scores_monotone(self, generated_trace_set):
        ranked = rank_candidates(generated_trace_set)
        scores = [s.score for s in ranked]
        assert scores == sorted(scores, reverse=True)
