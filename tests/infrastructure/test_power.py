"""Tests for the linear power model."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.base import PlanningConfig
from repro.core.dynamic_vector import _HostArrays
from repro.core.powercap import _Workspace
from repro.emulator.emulator import ConsolidationEmulator
from repro.exceptions import ConfigurationError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.power import LinearPowerModel
from repro.infrastructure.server import PhysicalServer, ServerSpec
from repro.metrics.catalog import HS23_ELITE


class TestLinearPowerModel:
    def test_idle_and_peak_endpoints(self):
        model = LinearPowerModel(idle_watts=100.0, peak_watts=300.0)
        assert model.power_watts(0.0) == 100.0
        assert model.power_watts(1.0) == 300.0

    def test_linear_midpoint(self):
        model = LinearPowerModel(idle_watts=100.0, peak_watts=300.0)
        assert model.power_watts(0.5) == 200.0

    def test_utilization_clipped(self):
        model = LinearPowerModel(idle_watts=100.0, peak_watts=300.0)
        # Contended demand cannot draw more than the loaded server.
        assert model.power_watts(1.7) == 300.0
        assert model.power_watts(-0.2) == 100.0

    def test_vectorized_matches_scalar(self):
        model = LinearPowerModel(idle_watts=100.0, peak_watts=300.0)
        utils = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
        vector = model.power_watts_array(utils)
        scalar = [model.power_watts(u) for u in utils]
        assert np.allclose(vector, scalar)

    def test_from_model(self):
        model = LinearPowerModel.from_model(HS23_ELITE)
        assert model.idle_watts == HS23_ELITE.idle_watts
        assert model.peak_watts == HS23_ELITE.peak_watts

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LinearPowerModel(idle_watts=-1.0, peak_watts=100.0)
        with pytest.raises(ConfigurationError):
            LinearPowerModel(idle_watts=200.0, peak_watts=100.0)


class TestForHost:
    """One rule prices a host: its catalog model, else 160 W / 400 W."""

    def test_catalog_model_used(self):
        host = PhysicalServer(
            host_id="blade",
            spec=ServerSpec.from_model(HS23_ELITE),
            model=HS23_ELITE,
        )
        assert LinearPowerModel.for_host(host) == (
            LinearPowerModel.from_model(HS23_ELITE)
        )

    def test_uncatalogued_host_same_figures_everywhere(self):
        host = PhysicalServer(
            host_id="bare", spec=ServerSpec(cpu_rpe2=1000.0, memory_gb=10.0)
        )
        assert host.model is None
        model = LinearPowerModel.for_host(host)
        assert (model.idle_watts, model.peak_watts) == (160.0, 400.0)
        pool = Datacenter(name="bare")
        pool.add_host(host)
        context = SimpleNamespace(datacenter=pool, config=PlanningConfig())
        # The emulator's power per host-hour at 0%, 50% and 100% CPU.
        emulated = ConsolidationEmulator._power_matrix(
            [host],
            np.array([[0.0, 500.0, 1000.0]]),
            np.array([1000.0]),
            np.ones((1, 3), dtype=bool),
        )
        assert emulated.tolist() == [[160.0, 280.0, 400.0]]
        # The dynamic planner's cost gate weighs the idle draw.
        assert _HostArrays(
            pool.hosts, context.config.utilization_bound
        ).idle_watts == [model.idle_watts]
        # The power budget's estimate at the same three loads.
        workspace = _Workspace(context, ())
        assert workspace.power == [model]
        assert [
            workspace.planned_power([load], [0])
            for load in (0.0, 500.0, 1000.0)
        ] == emulated[0].tolist()
