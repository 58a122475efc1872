"""Tests for the migration cost model."""

import pytest

from repro.exceptions import ConfigurationError
from repro.migration.cost import MigrationCostModel


class TestMigrationCostModel:
    def test_cost_positive_and_grows_with_memory(self):
        model = MigrationCostModel()
        small = model.cost_wh(1.0)
        big = model.cost_wh(8.0)
        assert 0 < small < big

    def test_duration_grows_with_memory(self):
        model = MigrationCostModel()
        assert model.migration_duration_s(8.0) > model.migration_duration_s(
            1.0
        )

    def test_cost_magnitude_sensible(self):
        # One 2 GB migration should cost far less than running an idle
        # HS23 blade (160 W) for a 2 h interval (320 Wh) — otherwise
        # dynamic consolidation could never pay for itself.
        model = MigrationCostModel()
        assert model.cost_wh(2.0) < 320.0 / 10

    def test_sla_component_dominates_when_priced_high(self):
        cheap = MigrationCostModel(sla_cost_per_second=0.0)
        pricey = MigrationCostModel(sla_cost_per_second=1.0)
        assert pricey.cost_wh(2.0) > cheap.cost_wh(2.0) * 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MigrationCostModel(migration_power_watts=-1.0)
        with pytest.raises(ConfigurationError):
            MigrationCostModel(sla_cost_per_second=-0.1)

    def test_costs_wh_matches_cost_wh(self):
        model = MigrationCostModel()
        memories = [0.0, 0.5, 2.0, 7.5, 64.0]
        costs = model.costs_wh(memories)
        assert costs == [model.cost_wh(m) for m in memories]
        assert model.costs_wh([]) == []
