"""Tests for the link-bandwidth demand model and its sizing integration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sizing.estimator import SizeEstimator, VirtualizationOverhead
from repro.sizing.network import NetworkDemandModel
from tests.conftest import make_server_trace, size_one


class TestNetworkDemandModel:
    def test_web_heavier_than_batch(self):
        model = NetworkDemandModel()
        web = model.demand_mbps("web-interactive", 1000.0)
        batch = model.demand_mbps("steady-batch", 1000.0)
        assert web > batch

    def test_base_chatter_at_zero_cpu(self):
        model = NetworkDemandModel(base_mbps=3.0)
        assert model.demand_mbps("web", 0.0) == 3.0

    def test_linear_in_cpu(self):
        model = NetworkDemandModel(base_mbps=0.0, web_mbps_per_rpe2=0.5)
        assert model.demand_mbps("web", 100.0) == pytest.approx(50.0)
        assert model.demand_mbps("web", 200.0) == pytest.approx(100.0)

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkDemandModel().demand_mbps("quantum", 10.0)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkDemandModel().demand_mbps("web", -1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkDemandModel(web_mbps_per_rpe2=-0.1)
        with pytest.raises(ConfigurationError):
            NetworkDemandModel(base_mbps=-1.0)


class TestEstimatorIntegration:
    def test_no_model_means_zero_network(self):
        trace = make_server_trace("vm", [0.5] * 4, [1.0] * 4)
        demand = size_one(SizeEstimator(), trace)
        assert demand.network_mbps == 0.0

    def test_model_fills_network_demand(self):
        trace = make_server_trace("vm", [0.5] * 4, [1.0] * 4, cpu_rpe2=1000)
        estimator = SizeEstimator(
            overhead=VirtualizationOverhead(cpu_overhead_frac=0.0),
            network=NetworkDemandModel(
                base_mbps=1.0, web_mbps_per_rpe2=0.1
            ),
        )
        demand = size_one(estimator, trace)
        # Sized CPU = 500 RPE2 -> 1 + 0.1 * 500 = 51 Mbps.
        assert demand.network_mbps == pytest.approx(51.0)

    def test_estimate_from_values_needs_class(self):
        estimator = SizeEstimator(network=NetworkDemandModel())
        anonymous = estimator.estimate_from_values("vm", 100.0, 1.0)
        classified = estimator.estimate_from_values(
            "vm", 100.0, 1.0, "web-interactive"
        )
        assert anonymous.network_mbps == 0.0
        assert classified.network_mbps > 0.0
