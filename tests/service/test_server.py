"""Asyncio front-end: placement queries answered mid-firehose.

The acceptance property from the issue: ``repro-serve`` must keep
answering NDJSON placement queries over the socket *while* a simulated
monitoring firehose streams updates through the same controller.  The
tests run a real ``asyncio.start_server`` on an ephemeral port and a
real firehose task on the same loop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import numpy as np
import pytest

from repro.service.harness import FaultInjector, FaultSpec
from repro.service.server import run_firehose, serve_controller

from tests.service.conftest import (
    assert_plan_consistent,
    build_controller,
    scripted_feed_for,
)


async def _request(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def _churny_feed(controller, n_ticks: int, seed: int):
    rng = np.random.default_rng(seed)
    n_vms = controller.store.n_servers
    return scripted_feed_for(
        controller,
        np.clip(
            rng.uniform(0.05, 0.6, (n_vms, n_ticks))
            + 0.5 * (rng.random((n_vms, n_ticks)) < 0.1),
            0.0,
            1.0,
        ),
        rng.uniform(1.0, 6.0, (n_vms, n_ticks)),
    )


class TestServer:
    def test_queries_answered_while_firehose_streams(self):
        async def scenario():
            controller = build_controller(n_hosts=4, n_vms=8, seed=11)
            feed = _churny_feed(controller, 40, seed=11)
            server = await serve_controller(controller, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            firehose = asyncio.ensure_future(
                run_firehose(
                    controller,
                    feed,
                    injector=FaultInjector(
                        FaultSpec(
                            drop_rate=0.1,
                            duplicate_rate=0.1,
                            delay_rate=0.1,
                            seed=11,
                        )
                    ),
                    tick_seconds=0.001,
                    replan_every=2,
                )
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            answered_mid_stream = 0
            while not firehose.done():
                response = await _request(
                    reader, writer, {"op": "place", "vm_id": "vm3"}
                )
                assert response["ok"]
                assert response["host"] is not None
                answered_mid_stream += 1
                await asyncio.sleep(0.001)
            delivered = await firehose
            stats = await _request(reader, writer, {"op": "stats"})
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return answered_mid_stream, delivered, stats, controller

        answered, delivered, stats, controller = asyncio.run(scenario())
        assert delivered == 40
        assert answered >= 5, "queries must be served during the stream"
        assert stats["stats"]["cycles"] >= delivered // 2
        assert stats["stats"]["ticks_flushed"] > 0
        assert_plan_consistent(controller)

    def test_multiple_concurrent_clients(self):
        async def scenario():
            controller = build_controller(n_hosts=3, n_vms=6, seed=2)
            server = await serve_controller(controller, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]

            async def client(vm_id: str) -> dict:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                response = await _request(
                    reader, writer, {"op": "place", "vm_id": vm_id}
                )
                writer.close()
                await writer.wait_closed()
                return response

            responses = await asyncio.gather(
                *(client(f"vm{i}") for i in range(6))
            )
            server.close()
            await server.wait_closed()
            return responses, controller

        responses, controller = asyncio.run(scenario())
        for i, response in enumerate(responses):
            assert response["ok"]
            assert response["host"] == controller.host_of(f"vm{i}")

    def test_bad_requests_keep_connection_alive(self):
        async def scenario():
            controller = build_controller(n_hosts=3, n_vms=4, seed=2)
            server = await serve_controller(controller, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            bad = await _request(reader, writer, {"op": "warp"})
            # Same connection still serves good requests afterwards.
            good = await _request(reader, writer, {"op": "ping"})
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return bad, good

        bad, good = asyncio.run(scenario())
        assert bad["ok"] is False
        assert good == {"ok": True, "op": "ping"}


async def _send_then_close(port: int) -> None:
    """Sends a request and closes without reading the answer."""
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(json.dumps({"op": "place", "vm_id": "vm3"}).encode() + b"\n")
    await writer.drain()
    writer.close()
    await writer.wait_closed()


async def _close_mid_line(port: int) -> None:
    """Closes halfway through a request line."""
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "place", "vm_')
    await writer.drain()
    writer.close()
    await writer.wait_closed()


async def _abort(port: int) -> None:
    """Resets the connection with a request in flight."""
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
    await writer.drain()
    # Zero linger: the close sends RST instead of FIN.
    writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    writer.transport.abort()


class TestClientDisconnects:
    """Clients that vanish mid-firehose cost the service nothing."""

    @pytest.mark.parametrize(
        "rude_client",
        [_send_then_close, _close_mid_line, _abort],
        ids=["send-then-close", "close-mid-line", "abort"],
    )
    def test_firehose_and_service_survive(self, rude_client):
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _, context: errors.append(context)
            )
            controller = build_controller(n_hosts=4, n_vms=8, seed=5)
            feed = _churny_feed(controller, 30, seed=5)
            server = await serve_controller(controller, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            firehose = asyncio.ensure_future(
                run_firehose(
                    controller, feed, tick_seconds=0.001, replan_every=2
                )
            )
            disconnects = 0
            while not firehose.done():
                await rude_client(port)
                disconnects += 1
                await asyncio.sleep(0.001)
            delivered = await firehose
            # The server's side of the last dropped connections.
            await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            answer = await _request(
                reader, writer, {"op": "place", "vm_id": "vm3"}
            )
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            return delivered, disconnects, answer, errors, controller

        delivered, disconnects, answer, errors, controller = asyncio.run(
            scenario()
        )
        assert delivered == 30
        assert disconnects >= 5
        assert answer["ok"]
        assert answer["host"] == controller.host_of("vm3")
        assert errors == []
        assert_plan_consistent(controller)


class TestCli:
    def test_build_demo_controller_is_seeded(self):
        from repro.service.cli import build_demo_controller

        first = build_demo_controller(4, 10, seed=5)
        second = build_demo_controller(4, 10, seed=5)
        assert first.plan.assignment() == second.plan.assignment()
        assert_plan_consistent(first)

    def test_parser_defaults(self):
        from repro.service.cli import _build_parser

        args = _build_parser().parse_args([])
        assert args.port == 7077
        assert args.n_hosts == 8
        assert args.n_vms == 24
