"""Tests for VM abstractions and sized demands."""

import pytest

from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import VirtualMachine, VMDemand, WorkloadClass


class TestWorkloadClass:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("web", "web"),
            ("web-interactive", "web"),
            ("batch", "batch"),
            ("steady-batch", "batch"),
            ("scheduled-batch", "batch"),
            ("idle", "batch"),
        ],
    )
    def test_top_level_mapping(self, label, expected):
        assert WorkloadClass.top_level(label) == expected

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadClass.top_level("quantum")


class TestVirtualMachine:
    def test_labels_default_empty(self):
        vm = VirtualMachine(vm_id="vm1", memory_config_gb=4.0)
        assert dict(vm.labels) == {}

    def test_invalid_workload_class_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(
                vm_id="vm1", memory_config_gb=4.0, workload_class="bogus"
            )

    @pytest.mark.parametrize("mem", [0.0, -1.0])
    def test_invalid_memory(self, mem):
        with pytest.raises(ConfigurationError):
            VirtualMachine(vm_id="vm1", memory_config_gb=mem)

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(vm_id="", memory_config_gb=4.0)


class TestVMDemand:
    def test_totals_include_tail(self):
        demand = VMDemand(
            vm_id="vm1",
            cpu_rpe2=100.0,
            memory_gb=2.0,
            tail_cpu_rpe2=50.0,
            tail_memory_gb=0.5,
        )
        assert demand.total_cpu_rpe2 == 150.0
        assert demand.total_memory_gb == 2.5

    def test_tail_defaults_to_zero(self):
        demand = VMDemand(vm_id="vm1", cpu_rpe2=100.0, memory_gb=2.0)
        assert demand.total_cpu_rpe2 == demand.cpu_rpe2
        assert demand.total_memory_gb == demand.memory_gb

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            VMDemand(vm_id="vm1", cpu_rpe2=-1.0, memory_gb=2.0)
        with pytest.raises(ConfigurationError):
            VMDemand(vm_id="vm1", cpu_rpe2=1.0, memory_gb=2.0,
                     tail_memory_gb=-0.1)

    @pytest.mark.parametrize(
        "field",
        [
            "cpu_rpe2", "memory_gb", "tail_cpu_rpe2", "tail_memory_gb",
            "network_mbps", "disk_mbps",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_demand_rejected(self, field, value):
        sizes = dict(cpu_rpe2=100.0, memory_gb=1.0)
        sizes[field] = value
        with pytest.raises(ConfigurationError, match=f"a: {field} must be"):
            VMDemand("a", **sizes)
