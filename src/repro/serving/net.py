"""Asyncio TCP front-end: the network face of :class:`TruthService`.

``repro serve --listen host:port`` binds a :class:`TruthServer` that
speaks the same JSON-lines protocol as the stdin/stdout front-end
(``ingest`` / ``query`` / ``snapshot`` / ``stats`` — see
:mod:`repro.serving.frontend`) over persistent TCP connections, with two
additions that only matter on a real network:

* requests may carry an ``"id"`` field, echoed verbatim in the matching
  response.  Requests on one connection are served concurrently (up to
  ``max_inflight_per_connection``), so a client that tags its requests
  can pipeline them and match responses out of order;
* overload — a full service admission queue *or* a connection at its
  in-flight cap — answers ``{"ok": false, "error": "overloaded",
  "retry_after_seconds": ...}`` instead of queueing unboundedly.  The
  bundled :class:`~repro.serving.client.AsyncTruthClient` honours the
  hint.

The design is robustness-first:

* **Framing limits.**  Lines longer than ``max_line_bytes`` are
  rejected loudly (one error response, then the connection is dropped);
  a connection that vanishes mid-line is counted as a torn frame and
  closed without disturbing anyone else.
* **Event-loop isolation.**  Ingest admissions run on a small
  executor (the admit path can touch the WAL), and ticket completion is
  bridged back via :meth:`IngestTicket.add_done_callback
  <repro.serving.service.IngestTicket.add_done_callback>` +
  ``call_soon_threadsafe`` — a deep queue parks zero threads, so
  hundreds of in-flight ingests cannot starve the loop.
* **Bounded writes.**  Each connection's transport gets a
  :data:`WRITE_BUFFER_BYTES` write buffer and every response waits for
  ``drain()`` under :data:`WRITE_TIMEOUT`; a slow-loris consumer is
  dropped (counted in ``net.conn.dropped``) instead of buffering the
  server into the ground.
* **Idle timeouts.**  A connection with no complete request for
  ``idle_timeout`` seconds is closed.
* **Graceful drain.**  :meth:`TruthServer.drain` (wired to SIGINT /
  SIGTERM by :func:`serve_network`) stops accepting, answers new
  requests with ``"draining"``, flushes every in-flight request, stops
  the service — which applies the remaining queue, commits the WAL and
  cuts a final checkpoint — and only then closes the sockets.  A
  drained server's last snapshot is therefore bit-identical to an
  offline ``TDAC.run`` over the acked claim log, exactly like the
  in-process service.

Every other limit — framing, in-flight cap, idle and drain timeouts —
comes from the served service's
:class:`~repro.serving.config.ServiceConfig`, so a stack has one config.
Decoding, tenant routing and the ingest envelopes are
:mod:`repro.serving.frontend`'s; this module adds only what is
asynchronous.

Everything observable lands on the service's tracer as ``net.*``
counters and gauges (``net.conn.{opened,closed,dropped}``,
``net.requests``, ``net.malformed``, ``net.conn.active``, ...) and in
the ``stats`` op response under ``stats["net"]``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import IO

from repro.serving.frontend import (
    decode_request,
    handle_request,
    ingest_ack,
    overloaded,
    parse_claims,
    route,
    unknown_tenant,
)
from repro.serving.schema import envelope_error
from repro.serving.service import (
    IngestTicket,
    ServiceOverloadedError,
    TruthService,
)

#: Seconds a response may wait for the peer to drain it; a slower
#: consumer is dropped as a slow loris.
WRITE_TIMEOUT = 10.0

#: High-water mark of each connection's transport write buffer.
WRITE_BUFFER_BYTES = 256 * 1024

#: Counter names the server maintains (and mirrors onto the tracer).
_COUNTERS = (
    "net.conn.opened",
    "net.conn.closed",
    "net.conn.dropped",
    "net.conn.idle_closed",
    "net.requests",
    "net.responses",
    "net.overloaded",
    "net.malformed",
    "net.torn_frames",
    "net.request_errors",
    "net.draining_rejected",
)


def parse_listen(listen: str) -> tuple[str, int]:
    """Split ``"host:port"`` (host may be empty ⇒ localhost)."""
    host, sep, port = listen.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"--listen expects HOST:PORT (e.g. 127.0.0.1:7411), got {listen!r}"
        )
    return host or "127.0.0.1", int(port)


def _encode(response: dict) -> bytes:
    return (json.dumps(response, sort_keys=True, default=str) + "\n").encode(
        "utf-8"
    )


class _Connection:
    """One accepted socket: bounded reads, serialized bounded writes."""

    def __init__(
        self,
        server: "TruthServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.tasks: set[asyncio.Task] = set()
        self.write_lock = asyncio.Lock()
        self.dropped = False
        transport = writer.transport
        with contextlib.suppress(AttributeError, RuntimeError):
            transport.set_write_buffer_limits(high=WRITE_BUFFER_BYTES)

    async def run(self) -> None:
        server = self.server
        limits = server.service_config
        while not self.dropped:
            try:
                line = await asyncio.wait_for(
                    self.reader.readline(), limits.idle_timeout
                )
            except asyncio.TimeoutError:
                server._count("net.conn.idle_closed")
                break
            except ValueError:
                # readline() overran the streams limit: the frame exceeds
                # max_line_bytes.  Reject loudly, then drop the peer.
                server._count("net.malformed")
                await self.send(
                    envelope_error(
                        "request line exceeds "
                        f"max_line_bytes={limits.max_line_bytes}"
                    )
                )
                break
            except (ConnectionError, OSError):
                break
            if not line:
                break  # clean EOF
            if not line.endswith(b"\n"):
                # EOF mid-frame: the peer vanished between bytes.
                server._count("net.torn_frames")
                break
            raw = line.strip()
            if not raw:
                continue
            try:
                request = decode_request(raw)
            except ValueError as exc:
                server._count("net.malformed")
                if not await self.send(
                    envelope_error(f"malformed request: {exc}")
                ):
                    break
                continue
            if server._draining:
                server._count("net.draining_rejected")
                await self.send(
                    self._tag(
                        request,
                        envelope_error(
                            "draining",
                            retry_after_seconds=limits.drain_timeout,
                        ),
                    )
                )
                break
            if len(self.tasks) >= limits.max_inflight_per_connection:
                # Connection-level backpressure: same contract as the
                # service's queue, so clients need one retry path only.
                server._count("net.overloaded")
                if not await self.send(
                    self._tag(request, server._overloaded_response())
                ):
                    break
                continue
            task = asyncio.create_task(self._process(request))
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)
        if self.tasks:
            # Let in-flight requests finish and flush (bounded).
            await asyncio.wait(self.tasks, timeout=limits.drain_timeout)

    async def _process(self, request: dict) -> None:
        server = self.server
        server._count("net.requests")
        server._gauge_inflight(+1)
        try:
            response = await server._handle_async(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a bad request must not stop serving
            server._count("net.request_errors")
            response = envelope_error(str(exc))
        finally:
            server._gauge_inflight(-1)
        await self.send(self._tag(request, response))

    @staticmethod
    def _tag(request: dict, response: dict) -> dict:
        if "id" in request:
            response = dict(response)
            response["id"] = request["id"]
        return response

    async def send(self, response: dict) -> bool:
        """Write one response line; False once the peer is unusable."""
        if self.dropped:
            return False
        data = _encode(response)
        async with self.write_lock:
            if self.dropped:
                return False
            try:
                self.writer.write(data)
                await asyncio.wait_for(self.writer.drain(), WRITE_TIMEOUT)
            except asyncio.TimeoutError:
                # Slow-loris consumer: the bounded write buffer never
                # drained.  Cut it off rather than buffer unboundedly.
                self.drop()
                return False
            except (ConnectionError, OSError):
                self.drop(count=False)
                return False
        self.server._count("net.responses")
        return True

    def drop(self, count: bool = True) -> None:
        """Abort the transport (server-initiated when ``count``)."""
        if self.dropped:
            return
        self.dropped = True
        if count:
            self.server._count("net.conn.dropped")
        with contextlib.suppress(Exception):
            self.writer.transport.abort()

    async def close(self) -> None:
        for task in list(self.tasks):
            task.cancel()
        if self.tasks:
            await asyncio.gather(*self.tasks, return_exceptions=True)
        if not self.dropped:
            with contextlib.suppress(ConnectionError, OSError):
                self.writer.close()
                await self.writer.wait_closed()


class TruthServer:
    """Asyncio TCP server bridging JSON-lines clients into a service.

    Parameters
    ----------
    service:
        A **started** :class:`TruthService` (the server never starts
        it), or any object with the same duck type — e.g. a
        :class:`~repro.serving.tenancy.TenantRegistry`, whose
        ``resolve_tenant`` routes requests carrying a ``tenant`` field.
        Its ``service_config`` supplies every network limit
        (``max_line_bytes``, ``max_inflight_per_connection``,
        ``idle_timeout``, ``drain_timeout``), ``net.*`` counters land
        on its tracer, and :meth:`drain` stops it.
    host, port:
        Bind address; port 0 picks a free port (reported by
        :meth:`start`).
    """

    def __init__(
        self,
        service: TruthService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.service_config = service.service_config
        self.host = host
        self.port = port
        self._tracer = service._tracer
        self._counters = dict.fromkeys(_COUNTERS, 0)
        self._inflight = 0
        self._conns: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._drain_requested: asyncio.Event | None = None
        self._draining = False
        self._drained = False

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n
        if self._tracer is not None:
            self._tracer.count(name, n)

    def _gauge(self, name: str, value: float) -> None:
        if self._tracer is not None:
            self._tracer.gauge(name, value)

    def _gauge_inflight(self, delta: int) -> None:
        self._inflight += delta
        self._gauge("net.requests.inflight", self._inflight)

    @property
    def stats(self) -> dict:
        """Connection/backpressure counters plus live gauges."""
        out = dict(self._counters)
        out["connections_active"] = len(self._conns)
        out["requests_inflight"] = self._inflight
        out["listen"] = f"{self.host}:{self.port}"
        out["draining"] = self._draining
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._drain_requested = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="tdac-net"
        )
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=self.service_config.max_line_bytes,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def request_drain(self) -> None:
        """Ask the server to drain; callable from loop signal handlers."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def serve_until_drained(self) -> None:
        """Accept and serve until :meth:`request_drain`, then drain."""
        if self._server is None:
            await self.start()
        assert self._drain_requested is not None
        try:
            await self._drain_requested.wait()
        finally:
            await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: accept → flush → stop service → close.

        1. stop accepting new connections and answer further requests on
           live ones with ``"draining"``;
        2. wait (bounded by ``drain_timeout``) for every in-flight
           request to finish and flush its response;
        3. stop the service — applies everything admitted, commits the
           WAL and cuts the final checkpoint;
        4. close the remaining sockets.
        """
        if self._drained:
            return
        self._drained = True
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()
        if self._server is not None:
            self._server.close()
            # Python <3.12 wait_closed() may return before handlers
            # finish; connection shutdown is tracked explicitly below.
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        deadline = time.monotonic() + self.service_config.drain_timeout
        tasks = {task for conn in self._conns for task in conn.tasks}
        if tasks:
            await asyncio.wait(
                tasks, timeout=max(0.0, deadline - time.monotonic())
            )
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        await loop.run_in_executor(self._executor, self.service.stop)
        for conn in list(self._conns):
            await conn.close()
        while self._conns and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        conn = _Connection(self, reader, writer)
        self._conns.add(conn)
        self._count("net.conn.opened")
        self._gauge("net.conn.active", len(self._conns))
        try:
            await conn.run()
        finally:
            await conn.close()
            self._conns.discard(conn)
            self._count("net.conn.closed")
            self._gauge("net.conn.active", len(self._conns))

    def _overloaded_response(self) -> dict:
        # Mirror ServiceOverloadedError's hint: roughly how long until
        # the batcher works off what is currently ahead of the caller.
        return overloaded(
            max(getattr(self.service, "_last_batch_seconds", 0.05), 1e-3)
        )

    async def _handle_async(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ingest":
            return await self._handle_ingest(request)
        response = handle_request(self.service, request)
        if op == "stats" and response.get("ok"):
            response["stats"]["net"] = self.stats
        return response

    async def _handle_ingest(self, request: dict) -> dict:
        try:
            target, tenant = route(self.service, request)
        except KeyError as exc:
            return unknown_tenant(exc)
        claims = parse_claims(request.get("claims"))
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        try:
            # Admission can touch the WAL (fsync), so it runs off-loop;
            # waiting for application costs no thread at all.
            ticket = await loop.run_in_executor(
                self._executor, target.ingest, claims
            )
        except ServiceOverloadedError as exc:
            self._count("net.overloaded")
            return overloaded(
                exc.retry_after_seconds, op="ingest", tenant=tenant
            )
        snapshot = await self._await_ticket(ticket)
        return ingest_ack(ticket, snapshot, tenant)

    @staticmethod
    async def _await_ticket(ticket: IngestTicket):
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def settle() -> None:
            if future.cancelled():
                return
            try:
                future.set_result(ticket.wait(0))
            except BaseException as exc:  # ticket failure -> caller
                future.set_exception(exc)

        ticket.add_done_callback(
            lambda: loop.call_soon_threadsafe(settle)
        )
        return await future


def serve_network(
    service: TruthService,
    listen: str | tuple[str, int],
    *,
    announce: IO[str] | None = None,
) -> int:
    """Run a :class:`TruthServer` until SIGINT/SIGTERM drains it.

    The blocking entry point behind ``repro serve --listen``.  Emits a
    ``{"event": "listening", "host": ..., "port": ...}`` JSON line on
    ``announce`` once bound (harnesses launching the server as a
    subprocess parse it to learn the bound port) and an
    ``{"event": "drained", ...}`` line with the final counters on exit.
    """
    if isinstance(listen, str):
        host, port = parse_listen(listen)
    else:
        host, port = listen

    def _announce(payload: dict) -> None:
        if announce is None:
            return
        try:
            announce.write(
                json.dumps(payload, sort_keys=True, default=str) + "\n"
            )
            announce.flush()
        except (BrokenPipeError, ValueError):
            pass  # the launcher is gone; keep serving/draining anyway

    async def _main() -> int:
        server = TruthServer(service, host=host, port=port)
        bound_host, bound_port = await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, server.request_drain)
        _announce(
            {"event": "listening", "host": bound_host, "port": bound_port}
        )
        await server.serve_until_drained()
        _announce({"event": "drained", "net": server.stats})
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        # Loops without signal-handler support (e.g. non-main threads on
        # some platforms) land here; the service still stops cleanly.
        service.stop()
        return 0
