"""Tests for the migration-technology what-if study (paper §7)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.migration.whatif import (
    MIGRATION_VARIANTS,
    get_variant,
    reservation_for_variant,
    reservation_ladder,
)


class TestVariants:
    def test_ladder_covers_papers_suggestions(self):
        keys = {v.key for v in MIGRATION_VARIANTS}
        assert {"baseline-1gbe", "10gbe", "target-offload", "rdma"} <= keys

    def test_get_variant(self):
        assert get_variant("rdma").config.cpu_demand_frac < (
            get_variant("baseline-1gbe").config.cpu_demand_frac
        )
        with pytest.raises(ConfigurationError):
            get_variant("quantum-teleport")


class TestReservationLadder:
    @pytest.fixture(scope="class")
    def ladder(self):
        return dict(reservation_ladder())

    def test_recorded_ladder(self, ladder):
        assert list(ladder.items()) == [
            ("baseline-1gbe", 0.2),
            ("10gbe", 0.05),
            ("target-offload", 0.15),
            ("rdma", 0.05),
        ]

    def test_baseline_matches_observation4(self, ladder):
        assert 0.15 <= ladder["baseline-1gbe"] <= 0.30

    def test_every_improvement_reduces_or_holds(self, ladder):
        baseline = ladder["baseline-1gbe"]
        for key in ("10gbe", "target-offload", "rdma"):
            assert ladder[key] <= baseline

    def test_rdma_is_best_or_tied(self, ladder):
        assert ladder["rdma"] == min(ladder.values())

    def test_single_variant_query_consistent(self, ladder):
        assert reservation_for_variant("10gbe") == ladder["10gbe"]
