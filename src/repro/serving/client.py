"""Retrying asyncio client for the :mod:`repro.serving.net` protocol.

:class:`AsyncTruthClient` is the client half of the network serving
contract:

* **Reconnect with capped exponential backoff.**  Connection refusals,
  resets, timeouts and torn responses tear the socket down and retry
  after ``base_backoff_seconds * multiplier**attempt`` (capped), so a
  server restart costs clients a burst of reconnects, not their
  workload.
* **Overload honoured.**  An ``{"ok": false, "error": "overloaded"}``
  response makes the client sleep the server's ``retry_after_seconds``
  hint (capped by the policy) before retrying; ``"draining"`` responses
  additionally reconnect, because the serving process is going away.
* **Request/response matching.**  Every request is tagged with a
  monotonically increasing ``id``; responses with a stale ``id`` (from
  an attempt that timed out client-side but was still answered) are
  skipped instead of being mis-delivered.

Retried ingests are safe by construction: re-admitting a claim batch
whose ack was lost re-asserts identical (source, object, attribute,
value) rows, which the dataset builder treats as no-ops, so the
accumulated corpus — and therefore every snapshot — is unaffected.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.data.types import Claim
from repro.serving.config import DEFAULT_MAX_LINE_BYTES


class TruthClientError(RuntimeError):
    """The request could not be completed within the retry policy."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped-exponential-backoff retry knobs for the client."""

    #: Total attempts per request (first try included).
    max_attempts: int = 8
    #: Backoff before retry ``n`` is ``base * multiplier**(n-1)`` ...
    base_backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    #: ... capped here, so long outages poll steadily instead of never.
    max_backoff_seconds: float = 2.0
    #: Cap on honoured server ``retry_after_seconds`` hints.
    max_retry_after_seconds: float = 5.0

    def backoff(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based over *re*-tries)."""
        return min(
            self.max_backoff_seconds,
            self.base_backoff_seconds * self.backoff_multiplier**attempt,
        )


def claim_payload(claims: Iterable[Claim | dict]) -> list[dict]:
    """Coerce :class:`Claim` rows (or ready dicts) to wire format."""
    out = []
    for claim in claims:
        if isinstance(claim, Claim):
            out.append(
                {
                    "source": claim.source,
                    "object": claim.object,
                    "attribute": claim.attribute,
                    "value": claim.value,
                }
            )
        else:
            out.append(dict(claim))
    return out


class AsyncTruthClient:
    """One persistent connection with reconnect/backoff/retry-after.

    Requests are serialized per client instance (one in flight at a
    time); concurrency comes from running many clients.  Safe to use as
    an async context manager.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        tenant: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_line_bytes = max_line_bytes
        #: When set, stamped as the ``tenant`` field on every request
        #: (unless the payload already carries one), so a multi-tenant
        #: server routes this client's traffic to that tenant's handle.
        self.tenant = tenant
        self.stats = {
            "requests": 0,
            "responses": 0,
            "retries": 0,
            "reconnects": 0,
            "overloaded": 0,
            "failures": 0,
        }
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()
        self._next_id = 0

    async def __aenter__(self) -> "AsyncTruthClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _teardown(self) -> None:
        await self.close()

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(
                self.host, self.port, limit=self.max_line_bytes
            ),
            self.connect_timeout,
        )
        self.stats["reconnects"] += 1

    async def request(self, payload: dict) -> dict:
        """Send one request, retrying per the policy; returns the response.

        Raises :class:`TruthClientError` once the policy is exhausted.
        Non-retryable error responses (malformed request, unknown op,
        refit rejection, ...) are returned as-is — only transport
        failures, ``overloaded`` and ``draining`` are retried.
        """
        async with self._lock:
            self.stats["requests"] += 1
            last_error: object = None
            for attempt in range(self.retry.max_attempts):
                if attempt:
                    self.stats["retries"] += 1
                    await asyncio.sleep(self.retry.backoff(attempt - 1))
                try:
                    if self._writer is None:
                        await self._connect()
                    response = await self._roundtrip(payload)
                except (
                    ConnectionError,
                    OSError,
                    EOFError,
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                ) as exc:
                    last_error = exc
                    await self._teardown()
                    continue
                error = response.get("error")
                if error in ("overloaded", "draining"):
                    self.stats["overloaded"] += 1
                    last_error = error
                    hint = response.get("retry_after_seconds")
                    try:
                        hint = float(hint)
                    except (TypeError, ValueError):
                        hint = self.retry.backoff(attempt)
                    if error == "draining":
                        # The serving process is going away; reconnect
                        # (likely to its successor) rather than re-ask.
                        await self._teardown()
                    await asyncio.sleep(
                        min(
                            max(hint, 0.0),
                            self.retry.max_retry_after_seconds,
                        )
                    )
                    continue
                self.stats["responses"] += 1
                return response
            self.stats["failures"] += 1
            raise TruthClientError(
                f"request failed after {self.retry.max_attempts} attempts; "
                f"last error: {last_error!r}"
            )

    async def _roundtrip(self, payload: dict) -> dict:
        assert self._reader is not None and self._writer is not None
        request_id = self._next_id
        self._next_id += 1
        message = dict(payload)
        if self.tenant is not None:
            message.setdefault("tenant", self.tenant)
        message["id"] = request_id
        self._writer.write(
            (json.dumps(message, sort_keys=True, default=str) + "\n").encode(
                "utf-8"
            )
        )
        await asyncio.wait_for(self._writer.drain(), self.request_timeout)
        while True:
            line = await asyncio.wait_for(
                self._reader.readline(), self.request_timeout
            )
            if not line or not line.endswith(b"\n"):
                raise ConnectionResetError("server closed mid-response")
            response = json.loads(line)
            if not isinstance(response, dict):
                raise ConnectionResetError("non-object response frame")
            if response.get("id") == request_id:
                return response
            # A response to an attempt we already gave up on: skip it.

    # ------------------------------------------------------------------
    # Op helpers
    # ------------------------------------------------------------------

    async def ingest(self, claims: Sequence[Claim | dict]) -> dict:
        return await self.request(
            {"op": "ingest", "claims": claim_payload(claims)}
        )

    async def query(self, obj: Any, attribute: Any) -> dict:
        return await self.request(
            {"op": "query", "object": obj, "attribute": attribute}
        )

    async def snapshot(self) -> dict:
        return await self.request({"op": "snapshot"})

    async def server_stats(self) -> dict:
        return await self.request({"op": "stats"})
