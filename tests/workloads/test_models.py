"""Tests for the statistical trace building blocks."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workloads import models
from tests.reference.generation import (
    diurnal_profile,
    ewma_smooth,
    pareto_spikes,
    scheduled_jobs,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestCalendars:
    def test_hour_of_day_wraps(self):
        hod = models.hour_of_day(50, start_hour=22)
        assert hod[0] == 22
        assert hod[2] == 0
        assert hod.max() == 23

    def test_day_of_week_cycles(self):
        dow = models.day_of_week(24 * 8)
        assert dow[0] == 0
        assert dow[24 * 7] == 0
        assert set(dow) == set(range(7))


class TestDiurnalProfile:
    def test_peak_at_peak_hour(self):
        profile = diurnal_profile(24, peak_hour=14.0, amplitude=2.0)
        assert np.argmax(profile) == 14
        assert profile.max() == pytest.approx(3.0)

    def test_zero_amplitude_is_flat(self):
        profile = diurnal_profile(48, amplitude=0.0)
        assert np.allclose(profile, 1.0)

    def test_circular_distance(self):
        # Peak at 23:00 should spill into hour 0.
        profile = diurnal_profile(
            24, peak_hour=23.0, amplitude=1.0, width_hours=2.0
        )
        assert profile[0] > profile[12]


class TestWeeklyProfile:
    def test_weekend_dipped(self):
        profile = models.weekly_profile(24 * 7, weekend_factor=0.4)
        assert np.allclose(profile[: 24 * 5], 1.0)
        assert np.allclose(profile[24 * 5:], 0.4)


class TestLognormalNoise:
    def test_mean_approximately_one(self, rng):
        noise = models.lognormal_noise(200_000, 0.8, rng)
        assert noise.mean() == pytest.approx(1.0, rel=0.02)

    def test_sigma_zero_is_ones(self, rng):
        assert np.allclose(models.lognormal_noise(10, 0.0, rng), 1.0)

    def test_heavier_sigma_heavier_tail(self, rng):
        light = models.lognormal_noise(50_000, 0.3, rng)
        heavy = models.lognormal_noise(50_000, 1.2, rng)
        assert heavy.max() > light.max()


class TestAr1Noise:
    def test_stationary_variance(self, rng):
        phi, sigma = 0.8, 0.5
        series = models.ar1_noise(100_000, phi, sigma, rng)
        expected_std = sigma / np.sqrt(1 - phi**2)
        assert series.std() == pytest.approx(expected_std, rel=0.05)

    def test_autocorrelation_sign(self, rng):
        series = models.ar1_noise(50_000, 0.9, 0.3, rng)
        lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert lag1 == pytest.approx(0.9, abs=0.05)

    def test_invalid_phi(self, rng):
        with pytest.raises(ConfigurationError):
            models.ar1_noise(10, 1.0, 0.1, rng)


class TestParetoSpikes:
    def test_zero_rate_gives_zeros(self, rng):
        spikes = pareto_spikes(
            100, rate_per_hour=0.0, alpha=1.5, scale=0.1, max_spike=1.0,
            rng=rng,
        )
        assert not spikes.any()

    def test_spikes_bounded(self, rng):
        spikes = pareto_spikes(
            2000, rate_per_hour=0.1, alpha=1.2, scale=0.3, max_spike=0.7,
            rng=rng,
        )
        assert spikes.max() <= 0.7
        assert spikes.min() >= 0.0
        assert spikes.any()

    def test_spike_decay_within_duration(self, rng):
        # With duration forced to 1 there is no decay tail to check, so
        # use a longer duration and verify values never exceed the start.
        spikes = pareto_spikes(
            500, rate_per_hour=0.05, alpha=1.5, scale=0.5, max_spike=0.9,
            rng=rng, max_duration_hours=3,
        )
        assert spikes.max() <= 0.9


class TestScheduledJobs:
    def test_daily_schedule(self):
        load = scheduled_jobs(
            72, period_hours=24, start_hour=2, duration_hours=2, level=0.5
        )
        for day in range(3):
            assert load[day * 24 + 2] == 0.5
            assert load[day * 24 + 3] == 0.5
            assert load[day * 24 + 5] == 0.0

    def test_jitter_requires_rng(self):
        with pytest.raises(ConfigurationError, match="rng"):
            scheduled_jobs(
                24, period_hours=24, start_hour=2, duration_hours=1,
                level=0.5, jitter_hours=1,
            )

    def test_jitter_moves_but_preserves_level(self):
        rng = np.random.default_rng(3)
        load = scheduled_jobs(
            24 * 10, period_hours=24, start_hour=12, duration_hours=1,
            level=0.4, jitter_hours=2, rng=rng,
        )
        assert load.max() == pytest.approx(0.4)
        assert (load > 0).sum() >= 8  # roughly one slot per day


class TestEwmaSmooth:
    def test_alpha_one_is_identity(self):
        values = np.array([1.0, 5.0, 2.0])
        assert np.allclose(ewma_smooth(values, 1.0), values)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        values = rng.random(1000)
        smoothed = ewma_smooth(values, 0.2)
        assert smoothed.std() < values.std()

    def test_preserves_constant(self):
        values = np.full(10, 3.0)
        assert np.allclose(ewma_smooth(values, 0.3), 3.0)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            ewma_smooth(np.ones(3), 0.0)


class TestFilterMatrices:
    """The batched AR(1) and EWMA recurrences: the generator's fallback
    and the oracle the C kernel verifies itself against."""

    @pytest.mark.parametrize("n_rows", [0, 3])
    @pytest.mark.parametrize(
        "smooth",
        [
            lambda matrix: models.ar1_filter_matrix(matrix, 0.5, 0.1),
            lambda matrix: models.ewma_smooth_matrix(matrix, 0.3),
        ],
        ids=["ar1", "ewma"],
    )
    def test_zero_hours_give_an_empty_matrix(self, smooth, n_rows):
        out = smooth(np.ones((n_rows, 0)))
        assert out.shape == (n_rows, 0)

    @pytest.mark.parametrize("n_hours", [1, 2, 200])
    @pytest.mark.parametrize("phi, sigma", [(0.6, 0.2), (-0.35, 1.1)])
    def test_ar1_rows_match_the_per_vm_helper(self, phi, sigma, n_hours):
        seeds = range(6)
        gaussians = np.stack(
            [np.random.default_rng(s).standard_normal(n_hours) for s in seeds]
        )
        out = models.ar1_filter_matrix(gaussians, phi, sigma)
        for row, seed in enumerate(seeds):
            expected = models.ar1_noise(
                n_hours, phi, sigma, np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(out[row], expected)

    @pytest.mark.parametrize("n_hours", [1, 2, 200])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.85])
    def test_ewma_rows_match_the_per_vm_helper(self, alpha, n_hours):
        values = np.random.default_rng(5).lognormal(0.0, 0.8, (6, n_hours))
        out = models.ewma_smooth_matrix(values, alpha)
        for row in range(values.shape[0]):
            np.testing.assert_array_equal(
                out[row], ewma_smooth(values[row], alpha)
            )
