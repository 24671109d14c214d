"""Frozen configuration object for the serving stack.

:class:`ServiceConfig` is to the serving layer what
:class:`~repro.core.config.TDACConfig` is to the pipeline: one
immutable, validated, fingerprintable value holding every serving limit
— batch sizing, queue bounds, checkpoint cadence, and the network
framing / timeout / backpressure limits.

A :class:`~repro.serving.service.TruthService` (or a
:class:`~repro.serving.tenancy.TenantRegistry`, for all of its engines)
takes it as ``service_config=ServiceConfig(...)``; the network
front-end reads its limits from the service it serves, so each serving
stack has exactly one config.  None of these knobs affects *what* a
snapshot contains — every snapshot is bit-identical to offline
``TDAC.run`` — so the :meth:`fingerprint` is an operational identity
(benchmark provenance), not a result key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from dataclasses import dataclass

#: Accepted ``refit`` spellings.  Every batch takes the exact delta
#: path whatever the value; ``"full"`` is deprecated and ignored.
REFIT_MODES = ("full", "incremental")

#: Default per-line framing bound (1 MiB of JSON is already a huge batch).
DEFAULT_MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob, validated and frozen.

    Service-side (micro-batching / admission / durability):

    refit:
        Deprecated, and ignored.  Every batch goes through the exact
        delta path of :meth:`IncrementalTDAC.update`, whose snapshots
        are bit-identical to offline ``TDAC.run``; a restore fits its
        committed WAL tail with the initial fit.  ``"incremental"``
        (default) is accepted silently, ``"full"`` with a
        :class:`DeprecationWarning`; any other value raises.
    max_batch_size / max_wait_ms:
        Micro-batch claim target and straggler linger.
    queue_capacity:
        Bound on pending (admitted, unapplied) claims per service.
    snapshot_every:
        Applied batches between periodic checkpoints (with a store).

    Network-side (:class:`~repro.serving.net.TruthServer`):

    max_line_bytes:
        Request-line framing bound.
    max_inflight_per_connection:
        Concurrent-request cap per connection.
    idle_timeout / drain_timeout:
        Connection lifecycle bounds (idle close, graceful-drain flush
        window).  The write-side bounds are constants of
        :mod:`repro.serving.net`.
    """

    refit: str = "incremental"
    max_batch_size: int = 64
    max_wait_ms: float = 10.0
    queue_capacity: int = 1024
    snapshot_every: int = 8
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    max_inflight_per_connection: int = 32
    idle_timeout: float = 300.0
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.refit not in REFIT_MODES:
            raise ValueError(
                f"refit must be one of {REFIT_MODES}, got {self.refit!r}"
            )
        if self.refit == "full":
            warnings.warn(
                'ServiceConfig(refit="full") is deprecated and ignored: '
                "every batch takes the exact delta path, whose snapshots "
                "equal a full refit's",
                DeprecationWarning,
                stacklevel=3,
            )
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.max_line_bytes < 64:
            raise ValueError("max_line_bytes must be at least 64")
        if self.max_inflight_per_connection < 1:
            raise ValueError("max_inflight_per_connection must be >= 1")
        for name in ("idle_timeout", "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def fingerprint(self) -> str:
        """Stable digest over every knob (operational identity).

        Unlike :meth:`TDACConfig.fingerprint` this is not a result key —
        no serving knob changes what a snapshot contains — it identifies
        the serving *configuration* a benchmark run recorded.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
