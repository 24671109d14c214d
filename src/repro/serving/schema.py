"""The ``tdac-serve/v1`` wire envelope.

Before 1.5.0 the serving stack answered with ad-hoc JSON shapes — an
``ingest`` ack, a ``stats`` payload, an ``overloaded`` or ``draining``
rejection each carried a slightly different set of keys and nothing
identified the protocol version.  Every response now carries one
envelope::

    {"schema": "tdac-serve/v1", "ok": true, "op": "ingest", ...}

with optional routing context (``tenant``) stamped when the responding
stack knows it.  The change is **additive**: every key a
pre-1.5 client read (``applied``, ``offset``, ``version``,
``watermark``, ``error``, ``retry_after_seconds``, ``stats``,
``snapshot``, ``id`` ...) is still present with the same meaning, so
old clients keep working and new clients can dispatch on ``schema``.

:class:`ServeEnvelope` is the typed view: :func:`serve_envelope_from_dict`
parses any wire response into envelope fields plus a ``body`` of
op-specific keys, and :meth:`ServeEnvelope.to_dict` flattens it back —
a lossless round trip (modulo key order) for every response the stack
emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Wire schema identifier stamped on every serving response.
SERVE_SCHEMA = "tdac-serve/v1"

#: Envelope-level keys; everything else in a response is op body.
SERVE_ENVELOPE_KEYS = (
    "schema",
    "ok",
    "op",
    "error",
    "retry_after_seconds",
    "tenant",
)


@dataclass(frozen=True)
class ServeEnvelope:
    """One parsed serving response: envelope fields plus op body.

    ``ok`` is the only mandatory field.  ``op`` names the operation the
    response answers (absent on transport-level rejections such as a
    malformed frame); ``error`` / ``retry_after_seconds`` carry the
    failure contract; ``tenant`` is routing context the multi-tenant
    stack stamps when it knows it.  ``body`` holds
    every op-specific key (``applied``, ``version``, ``stats``,
    ``snapshot``, the echoed ``id``, ...), untouched.
    """

    ok: bool
    op: str | None = None
    error: str | None = None
    retry_after_seconds: float | None = None
    tenant: str | None = None
    body: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flatten back to the wire shape (envelope keys + body keys)."""
        out: dict = {"schema": SERVE_SCHEMA, "ok": self.ok}
        for key in ("op", "error", "retry_after_seconds", "tenant"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key, value in self.body.items():
            if key in SERVE_ENVELOPE_KEYS:
                raise ValueError(
                    f"body key {key!r} collides with an envelope key"
                )
            out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServeEnvelope":
        """Parse a wire response; rejects foreign/missing schemas."""
        schema = payload.get("schema")
        if schema != SERVE_SCHEMA:
            raise ValueError(
                f"expected schema {SERVE_SCHEMA!r}, got {schema!r}"
            )
        if "ok" not in payload:
            raise ValueError("envelope is missing the 'ok' field")
        body = {
            key: value
            for key, value in payload.items()
            if key not in SERVE_ENVELOPE_KEYS
        }
        return cls(
            ok=bool(payload["ok"]),
            op=payload.get("op"),
            error=payload.get("error"),
            retry_after_seconds=payload.get("retry_after_seconds"),
            tenant=payload.get("tenant"),
            body=body,
        )


def serve_envelope_from_dict(payload: Mapping[str, Any]) -> ServeEnvelope:
    """Module-level spelling of :meth:`ServeEnvelope.from_dict`."""
    return ServeEnvelope.from_dict(payload)


def envelope_tag(
    response: dict,
    *,
    tenant: str | None = None,
) -> dict:
    """Stamp the ``tdac-serve/v1`` envelope onto a response dict.

    Adds ``schema`` (and routing context when given) without disturbing
    any existing key — the additive-compatibility workhorse used by the
    front-ends on every response they emit.  Returns ``response`` (the
    same dict) for call-site convenience.
    """
    response.setdefault("schema", SERVE_SCHEMA)
    if tenant is not None:
        response.setdefault("tenant", tenant)
    return response


def envelope_error(
    error: str,
    *,
    op: str | None = None,
    retry_after_seconds: float | None = None,
    tenant: str | None = None,
    **body: Any,
) -> dict:
    """Build a rejection response under the v1 envelope.

    Used for overload, draining, malformed-frame and unknown-op
    rejections so every failure a client can see carries the same
    ``schema`` / ``ok`` / ``error`` (+ optional ``retry_after_seconds``)
    contract.
    """
    out: dict = {"schema": SERVE_SCHEMA, "ok": False, "error": error}
    if op is not None:
        out["op"] = op
    if retry_after_seconds is not None:
        out["retry_after_seconds"] = retry_after_seconds
    if tenant is not None:
        out["tenant"] = tenant
    out.update(body)
    return out
