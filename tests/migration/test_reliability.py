"""Tests for the reservation/reliability study (Observation 4)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.paper_targets import MIGRATION_RESERVATION
from repro.migration.reliability import (
    recommended_reservation,
    reliability_sweep,
)


class TestReliabilitySweep:
    def test_success_degrades_with_utilization(self):
        points = reliability_sweep([0.5, 0.8, 0.95], n_migrations=80)
        rates = [p.success_rate for p in points]
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[0] == 1.0
        assert rates[2] < 0.5

    def test_duration_grows_with_utilization(self):
        points = reliability_sweep([0.5, 0.9], n_migrations=80)
        assert points[1].mean_duration_s > points[0].mean_duration_s

    def test_deterministic_given_seed(self):
        a = reliability_sweep([0.7], n_migrations=50, seed=3)
        b = reliability_sweep([0.7], n_migrations=50, seed=3)
        assert a == b

    def test_memory_tracking_toggle(self):
        tracked = reliability_sweep(
            [0.95], n_migrations=80, memory_tracks_cpu=True
        )[0]
        untracked = reliability_sweep(
            [0.95], n_migrations=80, memory_tracks_cpu=False
        )[0]
        assert untracked.host_memory_util == 0.5
        assert tracked.success_rate <= untracked.success_rate

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            reliability_sweep([1.5])
        with pytest.raises(ConfigurationError):
            reliability_sweep([0.5], n_migrations=0)


#: ``reliability_sweep`` at its defaults (200 migrations per level, seed
#: 7): level -> (success_rate, mean_duration_s, p99_duration_s,
#: mean_downtime_s).  These points are the evidence for Observation 4's
#: 20% reservation, so a change to any of them must be deliberate.
PINNED_POINTS = {
    0.5: (1.0, 27.60882907559324, 110.56842998200884, 0.27974085789275216),
    0.55: (1.0, 30.250806817610492, 148.3088861048644, 0.27527816243522824),
    0.6: (1.0, 32.841804902090814, 146.68060730364456, 0.27478867637558246),
    0.65: (1.0, 34.74147081975474, 144.93050802358275, 0.2980538917173345),
    0.7: (1.0, 30.5369227888969, 106.03504883324847, 0.2885028002353122),
    0.75: (1.0, 32.88315323959569, 181.37315312956355, 0.3041454640261666),
    0.8: (0.97, 43.06856730349077, 155.77095383722366, 1.004768788150601),
    0.85: (0.91, 63.758303896955994, 301.7864588611186, 2.715555145932139),
    0.9: (0.525, 144.3954286781418, 402.8682638526436, 33.43784740946102),
    0.95: (0.05, 403.5214862363765, 1497.7439441220524, 261.63404901147294),
}


class TestPinnedPoints:
    def test_default_sweep_matches_recorded_points(self):
        points = reliability_sweep(list(PINNED_POINTS))
        assert len(points) == len(PINNED_POINTS)
        for point, (level, expected) in zip(points, PINNED_POINTS.items()):
            success_rate, *durations = expected
            assert point.host_cpu_util == point.host_memory_util == level
            assert point.success_rate == success_rate, level
            # The slack absorbs only last-bit libm differences between
            # machines; every float here is reproducible from the seed.
            assert [
                point.mean_duration_s,
                point.p99_duration_s,
                point.mean_downtime_s,
            ] == pytest.approx(durations, rel=1e-12), level


class TestObservation4:
    def test_recommended_reservation_matches_paper(self):
        reservation = recommended_reservation()
        low, high = MIGRATION_RESERVATION
        assert low <= reservation <= high

    def test_stricter_bar_reserves_more(self):
        lenient = recommended_reservation(max_p99_duration_s=400.0)
        strict = recommended_reservation(max_p99_duration_s=120.0)
        assert strict >= lenient

    def test_granularity_validation(self):
        with pytest.raises(ConfigurationError):
            recommended_reservation(granularity=0.0)
