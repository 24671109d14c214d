"""Frozen configuration object for the serving stack.

:class:`ServiceConfig` is to the serving layer what
:class:`~repro.core.config.TDACConfig` is to the pipeline: one
immutable, validated, fingerprintable value holding every serving knob
that used to sprawl across the :class:`~repro.serving.service.TruthService`,
:class:`~repro.serving.net.TruthServer` and
:func:`~repro.serving.net.serve_network` constructors — batch sizing,
queue bounds, refit modes, checkpoint cadence, and the network framing /
timeout / backpressure limits.

Every constructor takes it as ``service_config=ServiceConfig(...)``.
None of these knobs affects *what* a snapshot contains — every refit
mode is bit-identical to offline ``TDAC.run`` — so the
:meth:`fingerprint` is an operational identity (used by the tenant
registry and the admin surface), not a result key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: Refit strategies: both are bit-identical to offline ``TDAC.run``;
#: ``"full"`` recomputes every stage per batch, ``"incremental"``
#: reuses whatever the batch provably could not have changed.
REFIT_MODES = ("full", "incremental")

#: Default per-line framing bound (1 MiB of JSON is already a huge batch).
DEFAULT_MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob, validated and frozen.

    Service-side (micro-batching / admission / durability):

    refit:
        ``"full"`` (default) re-runs the whole pipeline per batch;
        ``"incremental"`` applies the exact delta path of
        :meth:`IncrementalTDAC.update`.  Snapshots are bit-identical to
        offline ``TDAC.run`` either way.
    replay_refit:
        Refit mode used while :meth:`TruthService.restore` replays the
        WAL tail; defaults to ``"incremental"``.
    repartition_fraction:
        Forwarded to :class:`~repro.core.incremental.IncrementalTDAC`.
    warm_window:
        Half-width of the ``k`` window of the warm-started
        partition-drift probe.
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
    idle_timeout / write_timeout / write_buffer_bytes / drain_timeout:
        Connection lifecycle bounds (idle close, slow-loris cutoff,
        bounded write buffers, graceful-drain flush window).

    Sharding / tenancy (:class:`~repro.serving.sharding.ShardRouter`):

    merge_every:
        Applied shard batches between automatic merged-view refreshes
        (``0`` refreshes only on demand — ``snapshot()`` / ``drain`` /
        ``stop``).
    rebalance_threshold:
        Shard skew ratio (max/mean applied claims) above which
        :meth:`ShardRouter.maybe_rebalance` re-partitions the attribute
        space; ``0`` disables automatic rebalancing.
    """

    refit: str = "full"
    replay_refit: str = "incremental"
    repartition_fraction: float = 0.2
    warm_window: int = 1
    max_batch_size: int = 64
    max_wait_ms: float = 10.0
    queue_capacity: int = 1024
    snapshot_every: int = 8
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    max_inflight_per_connection: int = 32
    idle_timeout: float = 300.0
    write_timeout: float = 10.0
    write_buffer_bytes: int = 256 * 1024
    drain_timeout: float = 30.0
    merge_every: int = 0
    rebalance_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.refit not in REFIT_MODES:
            raise ValueError(
                f"refit must be one of {REFIT_MODES}, got {self.refit!r}"
            )
        if self.replay_refit not in REFIT_MODES:
            raise ValueError(
                f"replay_refit must be one of {REFIT_MODES}, "
                f"got {self.replay_refit!r}"
            )
        if not 0.0 < self.repartition_fraction <= 1.0:
            raise ValueError("repartition_fraction must be in (0, 1]")
        if self.warm_window < 0:
            raise ValueError("warm_window must be >= 0")
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
        for name in ("idle_timeout", "write_timeout", "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.write_buffer_bytes < 1:
            raise ValueError("write_buffer_bytes must be positive")
        if self.merge_every < 0:
            raise ValueError("merge_every must be >= 0")
        if self.rebalance_threshold < 0:
            raise ValueError("rebalance_threshold must be >= 0")

    # ------------------------------------------------------------------

    def replace(self, **changes) -> "ServiceConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable digest over every knob (operational identity).

        Unlike :meth:`TDACConfig.fingerprint` this is not a result key —
        no serving knob changes what a snapshot contains — it identifies
        the serving *configuration* for the tenant registry and the
        admin surface.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        """JSON-ready view of every knob plus the fingerprint."""
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }
        out["fingerprint"] = self.fingerprint()
        return out


def service_config_from_dict(payload: dict) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig` from its :meth:`~ServiceConfig.to_dict`.

    A recorded ``fingerprint`` is validated against the rebuilt config,
    so a hand-edited payload cannot silently run under the wrong knobs.
    """
    data = dict(payload)
    recorded = data.pop("fingerprint", None)
    config = ServiceConfig(**data)
    if recorded is not None and config.fingerprint() != recorded:
        raise ValueError(
            f"stored service-config fingerprint {recorded} does not match "
            f"its knobs (recomputed {config.fingerprint()})"
        )
    return config
