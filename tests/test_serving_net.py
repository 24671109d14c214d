"""Tests for the asyncio TCP serving front-end and its retrying client.

Everything runs against real sockets on loopback: round trips,
pipelined multiplexing, framing violations (oversized lines, torn
frames), backpressure mapping at both the service queue and the
per-connection cap, client reconnect/backoff, idle timeouts, and the
graceful-drain contract (drained snapshot bit-identical to an offline
``TDAC.run`` replay, WAL committed, restore replays nothing), and a
SIGKILL of a live ``repro serve --listen --store-dir`` under concurrent
writers that must lose no acked claim.
"""

import asyncio
import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import TDAC, MajorityVote, TruthService
from repro.core import TDACConfig
from repro.data import Claim
from repro.datasets import make_synthetic
from repro.serving import ServiceConfig
from repro.serving import (
    AsyncTruthClient,
    RetryPolicy,
    TruthClientError,
    TruthServer,
)
from repro.serving.net import parse_listen

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def dataset():
    return make_synthetic("DS1", n_objects=12, seed=5).dataset


def wire_claims(dataset, tag, count):
    """``count`` non-conflicting claims in wire (dict) format."""
    return [
        {
            "source": dataset.sources[0],
            "object": f"net-{tag}-{i}",
            "attribute": dataset.attributes[0],
            "value": f"v-{tag}-{i}",
        }
        for i in range(count)
    ]


@contextlib.asynccontextmanager
async def serving_stack(dataset, **knobs):
    """A started service + bound server under one ServiceConfig.

    ``knobs`` override the fast defaults; the server reads its network
    limits from the service's config.  Drains both on exit.
    """
    service = TruthService(
        MajorityVote(),
        dataset,
        config=TDACConfig(seed=0),
        service_config=ServiceConfig(
            **{"max_wait_ms": 1.0, "drain_timeout": 10.0, **knobs}
        ),
    )
    service.start()
    server = TruthServer(service)
    await server.start()
    try:
        yield service, server
    finally:
        await server.drain()


async def raw_connection(server):
    return await asyncio.open_connection(server.host, server.port)


async def send_line(writer, payload) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def read_response(reader) -> dict:
    return json.loads(await asyncio.wait_for(reader.readline(), 10.0))


class TestRoundTrip:
    def test_ingest_query_snapshot_stats(self, dataset):
        async def scenario():
            async with serving_stack(dataset) as (service, server):
                async with AsyncTruthClient(
                    server.host, server.port
                ) as client:
                    response = await client.ingest(
                        wire_claims(dataset, "rt", 3)
                    )
                    assert response["ok"] is True
                    assert response["applied"] == 3
                    assert response["watermark"] == 3

                    answer = await client.query(
                        "net-rt-0", dataset.attributes[0]
                    )
                    assert answer["found"] is True
                    assert answer["value"] == "v-rt-0"

                    snapshot = await client.snapshot()
                    assert (
                        snapshot["snapshot"]
                        == service.snapshot().to_dict()
                    )

                    stats = await client.server_stats()
                    net = stats["stats"]["net"]
                    assert net["net.conn.opened"] >= 1
                    assert net["net.requests"] >= 4
            return service

        service = asyncio.run(scenario())
        # Drain left a snapshot bit-identical to the offline replay.
        snapshot = service.snapshot()
        offline = TDAC(MajorityVote(), config=service.config).run(
            service.replay_dataset(snapshot.watermark)
        )
        assert dict(snapshot.predictions) == dict(
            offline.result.predictions
        )
        assert dict(snapshot.source_trust) == dict(
            offline.result.source_trust
        )
        assert snapshot.partition == offline.partition

    def test_pipelined_requests_multiplex_by_id(self, dataset):
        async def scenario():
            async with serving_stack(dataset) as (_, server):
                reader, writer = await raw_connection(server)
                for i in range(5):
                    await send_line(
                        writer,
                        {
                            "op": "query",
                            "object": "missing",
                            "attribute": dataset.attributes[0],
                            "id": f"req-{i}",
                        },
                    )
                seen = {(await read_response(reader))["id"] for _ in range(5)}
                writer.close()
                return seen

        assert asyncio.run(scenario()) == {f"req-{i}" for i in range(5)}

    def test_unknown_op_over_network(self, dataset):
        async def scenario():
            async with serving_stack(dataset) as (_, server):
                async with AsyncTruthClient(
                    server.host, server.port
                ) as client:
                    return await client.request({"op": "frobnicate"})

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert "unknown op" in response["error"]


class TestFraming:
    def test_malformed_line_keeps_connection_usable(self, dataset):
        async def scenario():
            async with serving_stack(dataset) as (_, server):
                reader, writer = await raw_connection(server)
                writer.write(b"{nope\n")
                await writer.drain()
                bad = await read_response(reader)
                assert bad["ok"] is False
                await send_line(writer, {"op": "stats"})
                good = await read_response(reader)
                writer.close()
                assert good["ok"] is True
                return good["stats"]["net"]

        net = asyncio.run(scenario())
        assert net["net.malformed"] == 1

    def test_oversized_line_rejected_loudly_and_dropped(self, dataset):
        async def scenario():
            async with serving_stack(
                dataset, max_line_bytes=256
            ) as (_, server):
                reader, writer = await raw_connection(server)
                writer.write(b'{"op": "x", "pad": "' + b"a" * 1024 + b'"}\n')
                await writer.drain()
                rejection = await read_response(reader)
                assert rejection["ok"] is False
                assert "max_line_bytes" in rejection["error"]
                # The connection is then closed server-side.
                rest = await asyncio.wait_for(reader.read(), 10.0)
                assert rest == b""
                writer.close()
                # ... but the listener still accepts fresh connections.
                reader2, writer2 = await raw_connection(server)
                await send_line(writer2, {"op": "stats"})
                response = await read_response(reader2)
                writer2.close()
                return response

        assert asyncio.run(scenario())["ok"] is True

    def test_mid_frame_disconnect_counts_torn_frame(self, dataset):
        async def scenario():
            async with serving_stack(dataset) as (_, server):
                _, writer = await raw_connection(server)
                writer.write(b'{"op": "ingest", "claims": [{"sou')
                await writer.drain()
                writer.close()
                deadline = time.monotonic() + 5.0
                while (
                    server.stats["net.torn_frames"] == 0
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.02)
                # The server survives: a new connection still works.
                reader2, writer2 = await raw_connection(server)
                await send_line(writer2, {"op": "stats"})
                response = await read_response(reader2)
                writer2.close()
                return server.stats["net.torn_frames"], response

        torn, response = asyncio.run(scenario())
        assert torn == 1
        assert response["ok"] is True


class TestBackpressure:
    def test_service_queue_overload_maps_to_response(self, dataset):
        async def scenario():
            async with serving_stack(
                dataset,
                queue_capacity=2,
                max_wait_ms=5_000.0,
                max_batch_size=1_000,
            ) as (service, server):
                source = dataset.sources[0]
                attribute = dataset.attributes[0]
                # Occupy the whole queue while the batcher lingers.
                service.ingest(
                    [
                        Claim(source, "hog-1", attribute, "v1"),
                        Claim(source, "hog-2", attribute, "v2"),
                    ]
                )
                reader, writer = await raw_connection(server)
                await send_line(
                    writer,
                    {"op": "ingest", "claims": wire_claims(dataset, "x", 1)},
                )
                response = await read_response(reader)
                writer.close()
                return response, server.stats["net.overloaded"]

        response, overloaded = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"] == "overloaded"
        assert 0 < response["retry_after_seconds"] < float("inf")
        assert overloaded == 1

    def test_per_connection_inflight_cap(self, dataset):
        async def scenario():
            async with serving_stack(
                dataset,
                max_wait_ms=5_000.0,
                max_batch_size=1_000,
                max_inflight_per_connection=1,
            ) as (_, server):
                reader, writer = await raw_connection(server)
                # First ingest occupies the connection's single slot
                # (the lingering batcher keeps it in flight) ...
                await send_line(
                    writer,
                    {
                        "op": "ingest",
                        "claims": wire_claims(dataset, "a", 1),
                        "id": "first",
                    },
                )
                # ... so the pipelined second one must be shed.
                await send_line(
                    writer,
                    {
                        "op": "ingest",
                        "claims": wire_claims(dataset, "b", 1),
                        "id": "second",
                    },
                )
                try:
                    shed = await read_response(reader)
                    assert shed["id"] == "second"
                    assert shed["error"] == "overloaded"
                    assert shed["retry_after_seconds"] > 0
                    # The batcher applies the first one once its linger
                    # ends; its ack arrives intact.
                    first = await read_response(reader)
                    assert first["id"] == "first"
                    assert first["ok"] is True
                    assert first["offset"] == 0
                    assert first["applied"] == 1
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())

    def test_client_honours_retry_after(self, dataset):
        async def scenario():
            async with serving_stack(
                dataset,
                queue_capacity=2,
                max_wait_ms=20.0,
                max_batch_size=1_000,
            ) as (service, server):
                source = dataset.sources[0]
                attribute = dataset.attributes[0]
                service.ingest(
                    [
                        Claim(source, "hog-1", attribute, "v1"),
                        Claim(source, "hog-2", attribute, "v2"),
                    ]
                )
                async with AsyncTruthClient(
                    server.host, server.port,
                    retry=RetryPolicy(max_attempts=20),
                ) as client:
                    response = await client.ingest(
                        wire_claims(dataset, "retry", 1)
                    )
                    assert response["ok"] is True
                    return client.stats

        stats = asyncio.run(scenario())
        # The first attempt was shed; the client slept the hint and won.
        assert stats["overloaded"] >= 1
        assert stats["responses"] == 1


class TestClientReconnect:
    def test_exhausted_retries_raise(self):
        async def scenario():
            # Nothing listens on this freshly closed port.
            server_sock = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = server_sock.sockets[0].getsockname()[1]
            server_sock.close()
            await server_sock.wait_closed()
            client = AsyncTruthClient(
                "127.0.0.1",
                port,
                connect_timeout=0.5,
                retry=RetryPolicy(
                    max_attempts=2, base_backoff_seconds=0.01
                ),
            )
            with pytest.raises(TruthClientError):
                await client.request({"op": "stats"})
            return client.stats

        stats = asyncio.run(scenario())
        assert stats["failures"] == 1
        assert stats["retries"] == 1

    def test_reconnects_after_server_restart(self, dataset):
        async def scenario():
            service = TruthService(
                MajorityVote(), dataset,
                service_config=ServiceConfig(
                    max_wait_ms=1.0, drain_timeout=5.0
                ),
            )
            service.start()
            first = TruthServer(service)
            host, port = await first.start()
            client = AsyncTruthClient(
                host,
                port,
                retry=RetryPolicy(
                    max_attempts=30, base_backoff_seconds=0.02
                ),
            )
            assert (await client.server_stats())["ok"] is True
            await first.drain()  # the server goes away mid-session
            # The first drain stopped the service; stats still answer.
            second = TruthServer(service, host=host, port=port)
            await second.start()
            response = await client.server_stats()
            await client.close()
            await second.drain()
            return response, client.stats

        response, stats = asyncio.run(scenario())
        assert response["ok"] is True
        assert stats["reconnects"] >= 2


class TestTimeouts:
    def test_idle_connection_closed(self, dataset):
        async def scenario():
            async with serving_stack(
                dataset, idle_timeout=0.2
            ) as (_, server):
                reader, writer = await raw_connection(server)
                eof = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                return eof, server.stats["net.conn.idle_closed"]

        eof, idle_closed = asyncio.run(scenario())
        assert eof == b""
        assert idle_closed == 1


async def until(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` on the loop until it holds (bounded)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


class TestDroppedConnection:
    def test_a_dropped_await_cannot_cancel_the_admitted_batch(
        self, dataset, monkeypatch
    ):
        # The connection's close cancels its in-flight ingest task after
        # drain_timeout; the cancel reaches the ticket's future through
        # asyncio.wrap_future, and must not drop a batch the batcher
        # holds (settling a cancelled future would kill the batcher).
        entered, gate = threading.Event(), threading.Event()

        async def scenario():
            async with serving_stack(dataset, drain_timeout=0.1) as (
                service, server
            ):
                apply = service._apply

                def held(claims):
                    entered.set()
                    gate.wait(30)
                    return apply(claims)

                monkeypatch.setattr(service, "_apply", held)
                try:
                    reader, writer = await raw_connection(server)
                    await send_line(writer, {
                        "op": "ingest",
                        "claims": wire_claims(dataset, "held", 1),
                    })
                    await until(entered.is_set)
                    writer.close()
                    await writer.wait_closed()
                    await until(lambda: server.stats["net.conn.closed"] == 1)
                finally:
                    gate.set()
                await until(lambda: service.snapshot().watermark == 1)
                reader, writer = await raw_connection(server)
                await send_line(writer, {
                    "op": "ingest", "claims": wire_claims(dataset, "next", 1),
                })
                response = await read_response(reader)
                writer.close()
                assert response["ok"] is True
                assert response["watermark"] == 2
                assert service.stats["batch_errors"] == 0

        asyncio.run(scenario())


class TestOneServiceConfig:
    def test_server_takes_its_limits_from_the_service(self, dataset):
        async def scenario():
            async with serving_stack(
                dataset, max_line_bytes=256, idle_timeout=0.2
            ) as (service, server):
                assert server.service_config is service.service_config
                reader, writer = await raw_connection(server)
                writer.write(b'{"op": "x", "pad": "' + b"a" * 1024 + b'"}\n')
                await writer.drain()
                rejection = await read_response(reader)
                writer.close()
                # A silent peer is closed after the service's idle_timeout.
                idle_reader, idle_writer = await raw_connection(server)
                eof = await asyncio.wait_for(idle_reader.read(), 10.0)
                idle_writer.close()
                return rejection, eof, server.stats["net.conn.idle_closed"]

        rejection, eof, idle_closed = asyncio.run(scenario())
        assert rejection["error"] == (
            "request line exceeds max_line_bytes=256"
        )
        assert eof == b""
        assert idle_closed == 1


class TestDrain:
    def test_drain_commits_store_and_matches_offline(
        self, dataset, tmp_path
    ):
        store_dir = tmp_path / "store"

        async def scenario():
            service = TruthService(
                MajorityVote(),
                dataset,
                config=TDACConfig(seed=0),
                service_config=ServiceConfig(
                    max_wait_ms=1.0, drain_timeout=10.0
                ),
                store=str(store_dir),
            )
            service.start()
            server = TruthServer(service)
            await server.start()
            async with AsyncTruthClient(
                server.host, server.port
            ) as client:
                for tag in ("d1", "d2"):
                    response = await client.ingest(
                        wire_claims(dataset, tag, 2)
                    )
                    assert response["ok"] is True
            await server.drain()
            # Drain stopped the service: WAL committed, final
            # checkpoint cut, sockets closed.
            with pytest.raises(OSError):
                await asyncio.wait_for(
                    asyncio.open_connection(server.host, server.port),
                    2.0,
                )
            return service

        service = asyncio.run(scenario())
        snapshot = service.snapshot()
        assert snapshot.watermark == 4
        offline = TDAC(MajorityVote(), config=service.config).run(
            service.replay_dataset(snapshot.watermark)
        )
        assert dict(snapshot.predictions) == dict(
            offline.result.predictions
        )
        assert snapshot.partition == offline.partition
        # A clean drain leaves nothing to replay on restore.
        restored = TruthService.restore(str(store_dir))
        try:
            assert restored.snapshot().watermark == 4
            assert dict(restored.snapshot().predictions) == dict(
                snapshot.predictions
            )
        finally:
            restored.stop()

    def test_drain_is_idempotent_and_stop_safe(self, dataset):
        async def scenario():
            async with serving_stack(dataset) as (service, server):
                await server.drain()
                await server.drain()  # second drain is a no-op
                service.stop()  # as is stopping an already-stopped service
            return True

        assert asyncio.run(scenario())


class TestParseListen:
    def test_valid(self):
        assert parse_listen("127.0.0.1:7411") == ("127.0.0.1", 7411)
        assert parse_listen(":0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["", "7411", "host:", "host:port"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_listen(bad)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def launch_server(port, store_dir, stderr):
    """``repro serve --listen`` over ``store_dir``; returns once it listens."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "MajorityVote", "DS1",
            "--scale", "0.05", "--listen", f"127.0.0.1:{port}",
            "--store-dir", str(store_dir), "--max-wait-ms", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        assert ready, "server never announced its listening port"
        event = json.loads(proc.stdout.readline())
        assert event["event"] == "listening", event
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc


async def stream_writer(k, port, count, acked):
    """``count`` distinct single-claim ingests of new objects, retried
    through reconnects; appends every claim answered ``{"ok": true}``."""
    retry = RetryPolicy(
        max_attempts=60, base_backoff_seconds=0.05, max_backoff_seconds=0.5
    )
    async with AsyncTruthClient(
        "127.0.0.1", port, connect_timeout=2.0, retry=retry
    ) as client:
        for i in range(count):
            claim = {
                "source": f"stream/writer-{k}",
                "object": f"stream/{k}-{i}",
                "attribute": "stream/a",
                "value": f"v-{k}-{i}",
            }
            response = await client.ingest([claim])
            assert response["ok"] is True, response
            acked.append(claim)
    return client.stats


async def torn_frame(port):
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "ingest", "claims": [{"sou')
    await writer.drain()
    writer.transport.abort()


async def truncated_line(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    line = json.dumps(
        {"op": "ingest", "claims": [{"source": "stream/fault"}]}
    ).encode()
    writer.write(line[: len(line) // 2] + b"\n")
    await writer.drain()
    response = await read_response(reader)
    writer.close()
    return response


class TestCliEndToEnd:
    def test_listen_sigterm_drains_cleanly(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "MajorityVote",
                "DS1",
                "--scale",
                "0.05",
                "--listen",
                "127.0.0.1:0",
                "--max-wait-ms",
                "1",
                "--drain-timeout",
                "10",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            text=True,
        )
        try:
            line = proc.stdout.readline()
            event = json.loads(line)
            assert event["event"] == "listening"
            port = event["port"]

            async def round_trip():
                async with AsyncTruthClient("127.0.0.1", port) as client:
                    return await client.server_stats()

            stats = asyncio.run(round_trip())
            assert stats["ok"] is True
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            drained = json.loads(out.splitlines()[-1])
            assert drained["event"] == "drained"
            assert drained["net"]["net.conn.opened"] >= 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    @pytest.mark.slow
    def test_sigkill_under_live_writers_loses_no_acked_claim(self, tmp_path):
        store_dir = tmp_path / "store"
        port = free_port()
        n_writers, per_writer = 6, 15
        total = n_writers * per_writer
        acked: list[dict] = []
        procs = []

        def relaunch(stderr):
            procs[-1].kill()  # no drain, no final checkpoint
            procs[-1].wait(timeout=30)
            procs.append(launch_server(port, store_dir, stderr))

        async def kill_and_relaunch(stderr):
            while len(acked) < total // 3:
                await asyncio.sleep(0.005)
            await asyncio.to_thread(relaunch, stderr)

        async def scenario(stderr):
            return await asyncio.gather(
                torn_frame(port),
                truncated_line(port),
                kill_and_relaunch(stderr),
                *(
                    stream_writer(k, port, per_writer, acked)
                    for k in range(n_writers)
                ),
            )

        with open(tmp_path / "server-stderr.log", "a") as stderr:
            try:
                procs.append(launch_server(port, store_dir, stderr))
                _, malformed, _, *writer_stats = asyncio.run(
                    scenario(stderr)
                )
                procs[-1].send_signal(signal.SIGTERM)
                out, _ = procs[-1].communicate(timeout=30)
            finally:
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.communicate()
        assert procs[-1].returncode == 0
        assert json.loads(out.splitlines()[-1])["event"] == "drained"
        assert len(procs) == 2
        assert malformed["ok"] is False
        assert len(acked) == total
        # Every writer reconnected to the relaunched server.
        assert all(stats["reconnects"] >= 2 for stats in writer_stats)

        service = TruthService.restore(str(store_dir))
        try:
            snapshot = service.snapshot()
            corpus = {
                (c.source, c.object, c.attribute): c.value
                for c in service.replay_dataset().iter_claims()
            }
            for claim in acked:
                key = (claim["source"], claim["object"], claim["attribute"])
                assert corpus.get(key) == claim["value"], claim
            offline = TDAC(MajorityVote(), config=service.config).run(
                service.replay_dataset(snapshot.watermark)
            )
            assert dict(snapshot.predictions) == dict(
                offline.result.predictions
            )
            assert dict(snapshot.source_trust) == dict(
                offline.result.source_trust
            )
            assert snapshot.partition == offline.partition
            assert dict(snapshot.silhouette_by_k) == dict(
                offline.silhouette_by_k
            )
        finally:
            service.stop()
