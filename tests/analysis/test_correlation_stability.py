"""Tests for correlation stability (Observation 5's premise)."""

import numpy as np
import pytest

from repro.analysis.correlation import correlation_stability
from repro.exceptions import TraceError
from repro.workloads import generate_datacenter
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


class TestCorrelationStability:
    def test_perfectly_stable_structure(self):
        # Three servers whose relationships repeat exactly each half.
        base = np.tile([0.1, 0.5, 0.2, 0.8], 10)
        ts = TraceSet(
            "s",
            [
                make_server_trace("a", base, np.ones(40)),
                make_server_trace("b", base * 0.5 + 0.05, np.ones(40)),
                make_server_trace("c", 0.9 - base, np.ones(40)),
            ],
        )
        assert correlation_stability(ts) == pytest.approx(1.0, abs=1e-6)

    def test_generated_datacenters_are_stable(self):
        # The paper: "correlation between workloads is stable over time"
        # — the property PCP banks on (Observation 5).
        for key in ("banking", "natural-resources"):
            ts = generate_datacenter(key, scale=0.08)
            assert correlation_stability(ts) > 0.3, key

    def test_uncorrelated_noise_is_unstable(self):
        rng = np.random.default_rng(0)
        ts = TraceSet(
            "noise",
            [
                make_server_trace(
                    f"n{i}", rng.random(200) * 0.5 + 0.01, np.ones(200)
                )
                for i in range(10)
            ],
        )
        assert abs(correlation_stability(ts)) < 0.4

    def test_validation(self):
        ts = TraceSet(
            "tiny",
            [
                make_server_trace("a", [0.1] * 8, [1.0] * 8),
                make_server_trace("b", [0.2] * 8, [1.0] * 8),
            ],
        )
        with pytest.raises(TraceError, match="3 servers"):
            correlation_stability(ts)
