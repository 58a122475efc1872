"""Tests for the §1.3 potential-savings deflation study."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.potential import potential_gain
from repro.workloads import generate_datacenter
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


class TestPotentialGainMechanics:
    def test_flat_workload_has_no_potential(self):
        ts = TraceSet(
            "flat",
            [make_server_trace(f"v{i}", [0.2] * 48, [2.0] * 48) for i in range(4)],
        )
        gain = potential_gain(ts)
        assert gain.per_server_cpu_gain == pytest.approx(1.0)
        assert gain.realized_gain == pytest.approx(1.0)

    def test_bursty_cpu_quiet_memory_is_the_paper_story(self):
        # Per-server CPU promises a lot; flat memory caps the realized
        # gain when memory binds on the reference blade.
        traces = []
        hours = 48
        for i in range(6):
            util = np.full(hours, 0.05)
            util[(i * 7) % hours] = 0.9            # 18x per-server P2A
            traces.append(
                make_server_trace(
                    f"v{i}", util, np.full(hours, 60.0),
                    cpu_rpe2=4000.0, configured_gb=64.0,
                )
            )
        gain = potential_gain(TraceSet("story", traces))
        assert gain.per_server_cpu_gain > 5.0
        # 360 GB aggregate flat memory needs ~2.8 HS23 blades always:
        # memory binds, so the realized gain collapses toward 1.
        assert gain.realized_gain < 1.5
        assert gain.deflation_factor > 3.0

    def test_misaligned_interval_rejected(self):
        ts = TraceSet("x", [make_server_trace("a", [0.1] * 48, [1.0] * 48)])
        with pytest.raises(ConfigurationError, match="align"):
            potential_gain(ts, interval_hours=1.5)


class TestHeadlineClaim:
    def test_mean_realized_gain_near_1_5(self):
        # The paper's §1.3 headline: potential drops "from 10X to a much
        # more modest 1.5X" across the studied estates.
        gains = []
        for key in ("banking", "airlines", "natural-resources", "beverage"):
            ts = generate_datacenter(key, scale=0.1)
            gain = potential_gain(ts)
            gains.append(gain.realized_gain)
            # Per-server promise always dwarfs the realized gain.
            assert gain.per_server_cpu_gain > gain.realized_gain, key
        assert 1.2 <= float(np.mean(gains)) <= 2.0

    def test_banking_promises_most_per_server(self):
        gains = {
            key: potential_gain(generate_datacenter(key, scale=0.1))
            for key in ("banking", "natural-resources")
        }
        assert (
            gains["banking"].per_server_cpu_gain
            > gains["natural-resources"].per_server_cpu_gain
        )
