"""NDJSON protocol surface, exercised without any sockets.

Besides the per-op cases, a fuzz (hypothesis when available, plus a
seeded stdlib sweep that always runs) feeds arbitrary text and
``ingest`` / ``place`` objects with arbitrary JSON values through
:func:`handle_request`: it must never raise, and an error response
must leave the ingest counter and the assignment as they were.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.service.protocol import handle_request

from tests.service.conftest import build_controller

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False


def _ingest_line(**fields: str) -> str:
    """An ingest request whose field values are raw JSON text."""
    values = {
        "tick": "1",
        "vm_id": '"vm0"',
        "cpu_util": "0.5",
        "memory_gb": "1.0",
        **fields,
    }
    body = ", ".join(f'"{key}": {value}' for key, value in values.items())
    return '{"op": "ingest", ' + body + "}"


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
            # An integer too large for a float in a float field.
            pytest.param(
                _ingest_line(cpu_util="1" + "0" * 400), id="float-overflow"
            ),
            pytest.param(
                _ingest_line(memory_gb="-" + "9" * 400),
                id="negative-float-overflow",
            ),
            # An integer literal past the interpreter's 4300-digit limit.
            pytest.param(
                _ingest_line(tick="9" * 5000), id="int-digit-limit"
            ),
            # Nesting past the recursion limit.
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-array"),
            pytest.param(
                _ingest_line(vm_id="[" * 100_000 + "]" * 100_000),
                id="deep-field",
            ),
            # A bool is not a number, in a float field either.
            pytest.param(_ingest_line(cpu_util="true"), id="bool-float"),
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


def _check_never_raises(line: str) -> None:
    controller = build_controller(n_hosts=2, n_vms=1)
    assignment = controller.plan.assignment()
    samples = controller.stats.samples_ingested
    response = handle_request(controller, line)
    json.dumps(response)
    if response["ok"]:
        return
    assert isinstance(response["error"], str) and response["error"]
    assert controller.stats.samples_ingested == samples
    assert controller.plan.assignment() == assignment


def _random_json(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, -1, 7, 10**20, -(10**300), 10**400])
    if kind == 3:
        return rng.choice(
            [0.5, -0.0, 1e308, -2.5, float("nan"), float("inf")]
        )
    if kind == 4:
        return rng.choice(["", "vm0", "ghost", "0.5", "\u00e9\x00"])
    if kind in (5, 6):
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(3))]
    return {
        rng.choice(["tick", "vm_id", "op", "x"]): _random_json(rng, depth + 1)
        for _ in range(rng.randrange(3))
    }


_VALID_FIELDS = {"tick": 3, "vm_id": "vm0", "cpu_util": 0.25, "memory_gb": 1.5}


def _random_request(rng: random.Random) -> str:
    """Each field valid, arbitrary or missing, so that some requests get
    past the early checks."""
    request = {"op": rng.choice(["ingest", "place"])}
    for key, valid in _VALID_FIELDS.items():
        roll = rng.random()
        if roll < 0.5:
            request[key] = valid
        elif roll < 0.95:
            request[key] = _random_json(rng)
    return json.dumps(request)


class TestFuzz:
    def test_seeded_requests(self):
        rng = random.Random(20261017)
        for _ in range(300):
            _check_never_raises(_random_request(rng))

    def test_seeded_text(self):
        rng = random.Random(1017)
        alphabet = '{}[]",:0123456789.eE+-truefalsnl opingest\\ \n'
        for _ in range(300):
            line = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(40))
            )
            _check_never_raises(line)

    if HAVE_HYPOTHESIS:

        _json = st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.sampled_from([10**400, -(10**400)])
            | st.floats()
            | st.text(),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(), children, max_size=3),
            max_leaves=6,
        )
        _field = st.one_of(
            _json,
            st.sampled_from(["vm0", "ghost"]),
            st.floats(0.0, 2.0),
            st.integers(-3, 10**9),
        )

        @settings(max_examples=200, deadline=None)
        @given(
            op=st.sampled_from(["ingest", "place"]),
            fields=st.fixed_dictionaries(
                {},
                optional={
                    "tick": _field,
                    "vm_id": _field,
                    "cpu_util": _field,
                    "memory_gb": _field,
                },
            ),
        )
        def test_hypothesis_requests(self, op, fields):
            _check_never_raises(json.dumps({"op": op, **fields}))

        @settings(max_examples=200, deadline=None)
        @given(line=st.text())
        def test_hypothesis_text(self, line):
            _check_never_raises(line)
