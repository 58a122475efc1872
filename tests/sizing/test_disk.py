"""Tests for the disk-throughput demand model (§3.1's second constraint)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sizing.estimator import SizeEstimator, VirtualizationOverhead
from repro.sizing.network import DiskDemandModel
from tests.conftest import make_server_trace, size_one


class TestDiskDemandModel:
    def test_batch_heavier_than_web(self):
        # The skew flips relative to network: batch streams data.
        model = DiskDemandModel()
        web = model.demand_mbps("web-interactive", 1000.0)
        batch = model.demand_mbps("steady-batch", 1000.0)
        assert batch > web

    def test_base_churn_at_zero_cpu(self):
        model = DiskDemandModel(base_mbps=2.0)
        assert model.demand_mbps("batch", 0.0) == 2.0

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskDemandModel().demand_mbps("gpu", 10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiskDemandModel(batch_mbps_per_rpe2=-0.1)


class TestEstimatorIntegration:
    def test_no_model_means_zero_disk(self):
        trace = make_server_trace("vm", [0.5] * 4, [1.0] * 4)
        assert size_one(SizeEstimator(), trace).disk_mbps == 0.0

    def test_model_fills_disk_demand(self):
        trace = make_server_trace("vm", [0.5] * 4, [1.0] * 4, cpu_rpe2=1000)
        estimator = SizeEstimator(
            overhead=VirtualizationOverhead(cpu_overhead_frac=0.0),
            disk=DiskDemandModel(base_mbps=1.0, web_mbps_per_rpe2=0.02),
        )
        demand = size_one(estimator, trace)
        # Sized CPU 500 RPE2, web intensity 0.02 -> 1 + 10 = 11 Mbps.
        assert demand.disk_mbps == pytest.approx(11.0)

    def test_both_io_models_together(self):
        from repro.sizing.network import NetworkDemandModel

        trace = make_server_trace("vm", [0.5] * 4, [1.0] * 4, cpu_rpe2=1000)
        estimator = SizeEstimator(
            network=NetworkDemandModel(),
            disk=DiskDemandModel(),
        )
        demand = size_one(estimator, trace)
        assert demand.network_mbps > 0
        assert demand.disk_mbps > 0
