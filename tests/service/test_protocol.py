"""NDJSON protocol surface, exercised without any sockets."""

from __future__ import annotations

import json
import time

import pytest

from repro.service.protocol import handle_request

from tests.service.conftest import build_controller


@pytest.fixture
def controller():
    return build_controller(n_hosts=3, n_vms=4)


class TestOps:
    def test_ping(self, controller):
        response = handle_request(controller, '{"op": "ping"}')
        assert response == {"ok": True, "op": "ping"}

    def test_place(self, controller):
        response = handle_request(
            controller, json.dumps({"op": "place", "vm_id": "vm1"})
        )
        assert response["ok"]
        assert response["host"] == controller.host_of("vm1")

    def test_place_unassigned_is_null(self):
        controller = build_controller(bootstrap=False)
        response = handle_request(
            controller, '{"op": "place", "vm_id": "vm0"}'
        )
        assert response["ok"]
        assert response["host"] is None

    def test_assignment(self, controller):
        response = handle_request(controller, '{"op": "assignment"}')
        assert response["assignment"] == controller.plan.assignment()

    def test_ingest_far_ahead_returns_promptly(self):
        """A tick 10**9 ahead must not stall the server's event loop."""
        controller = build_controller(n_hosts=1, n_vms=1)
        tick = controller.store.total_points + 10**9
        started = time.perf_counter()
        response = handle_request(
            controller,
            json.dumps(
                {
                    "op": "ingest",
                    "tick": tick,
                    "vm_id": "vm0",
                    "cpu_util": 0.5,
                    "memory_gb": 2.0,
                }
            ),
        )
        elapsed = time.perf_counter() - started
        assert response["ok"] and response["accepted"]
        assert elapsed < 1.0
        assert controller.store.total_points == tick + 1
        assert controller.store.last_cpu_util()[0] == 0.5

    def test_ingest_roundtrip(self, controller):
        tick = controller.store.total_points
        for vm_id in controller.store.vm_ids:
            response = handle_request(
                controller,
                json.dumps(
                    {
                        "op": "ingest",
                        "tick": tick,
                        "vm_id": vm_id,
                        "cpu_util": 0.5,
                        "memory_gb": 2.0,
                    }
                ),
            )
            assert response["ok"] and response["accepted"]
        assert controller.store.total_points == tick + 1
        # Duplicate: acknowledged, not accepted (tick already flushed →
        # late path).
        response = handle_request(
            controller,
            json.dumps(
                {
                    "op": "ingest",
                    "tick": tick,
                    "vm_id": "vm0",
                    "cpu_util": 0.5,
                    "memory_gb": 2.0,
                }
            ),
        )
        assert response["ok"] and not response["accepted"]

    def test_replan(self, controller):
        response = handle_request(controller, '{"op": "replan"}')
        assert response["ok"]
        assert response["cycle"] == 1
        assert isinstance(response["migrations"], list)
        assert "latency_seconds" in response
        # The payload is JSON-serializable end to end.
        json.dumps(response)

    def test_stats(self, controller):
        handle_request(controller, '{"op": "replan"}')
        response = handle_request(controller, '{"op": "stats"}')
        assert response["ok"]
        assert response["stats"]["cycles"] == 1
        assert response["n_vms"] == 4
        assert response["n_hosts"] == 3
        json.dumps(response)


class TestErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"no_op": 1}',
            '{"op": "warp"}',
            '{"op": 7}',
            '{"op": "place"}',
            '{"op": "place", "vm_id": 5}',
            '{"op": "place", "vm_id": "ghost"}',
            '{"op": "ingest", "tick": "x", "vm_id": "vm0",'
            ' "cpu_util": 0.5, "memory_gb": 1.0}',
            '{"op": "ingest", "tick": 1, "vm_id": "vm0",'
            ' "cpu_util": -2.0, "memory_gb": 1.0}',
        ],
    )
    def test_bad_requests_return_error_responses(self, controller, line):
        response = handle_request(controller, line)
        assert response["ok"] is False
        assert isinstance(response["error"], str) and response["error"]

    def test_bool_is_not_an_int_tick(self, controller):
        response = handle_request(
            controller,
            '{"op": "ingest", "tick": true, "vm_id": "vm0",'
            ' "cpu_util": 0.5, "memory_gb": 1.0}',
        )
        assert response["ok"] is False

    def test_errors_do_not_mutate_state(self, controller):
        before = controller.plan.assignment()
        samples_before = controller.stats.samples_ingested
        handle_request(controller, '{"op": "warp"}')
        handle_request(controller, '{"op": "place", "vm_id": "ghost"}')
        assert controller.plan.assignment() == before
        assert controller.stats.samples_ingested == samples_before
