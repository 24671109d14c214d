"""Frozen configuration object for TD-AC.

:class:`TDACConfig` consolidates every tuning knob of
:class:`~repro.core.tdac.TDAC` — the distance mode, the sweep bounds and
the k-means restart budget and seed — into one immutable, hashable
value, passed as ``TDAC(base, config=...)``.  Every field changes what
TD-AC computes.

A config also knows its :meth:`~TDACConfig.fingerprint`: a short stable
digest over those knobs.  Together with the dataset fingerprint it is
exactly the pair that determines the selected partition: the store
content-addresses checkpoints by it, snapshots carry it, and the
tenant registry keys its shared engines on it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: Config fields that change *what* TD-AC computes.  They feed
#: :meth:`TDACConfig.fingerprint`.
RESULT_AFFECTING_FIELDS = ("distance", "k_min", "k_max", "n_init", "seed")


@dataclass(frozen=True)
class TDACConfig:
    """Every knob of a TD-AC run, validated and frozen.

    Parameters
    ----------
    distance:
        ``"hamming"`` (Eq. 2, the paper's choice) or ``"masked"`` — the
        missing-data-aware variant of the paper's perspective (i).
    k_min / k_max:
        Sweep bounds; defaults follow Algorithm 1's ``[2, |A| - 1]``.
    n_init / seed:
        k-means restart count and determinism seed (non-negative, as
        :func:`numpy.random.default_rng` requires).
    """

    distance: str = "hamming"
    k_min: int = 2
    k_max: int | None = None
    n_init: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distance not in ("hamming", "masked"):
            raise ValueError(f"unknown distance mode {self.distance!r}")
        if self.k_min < 2:
            raise ValueError("k_min must be at least 2")
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    # ------------------------------------------------------------------

    def replace(self, **changes) -> "TDACConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable digest of the result-affecting knobs.

        Two configs with equal fingerprints select the same partition
        and produce the same merged result on the same dataset.  The
        payload is the one older releases hashed for every float64
        config, so the fingerprints their checkpoints recorded keep
        validating.
        """
        payload = {
            name: getattr(self, name) for name in RESULT_AFFECTING_FIELDS
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        """JSON-ready view of every knob plus the fingerprint."""
        payload = dataclasses.asdict(self)
        payload["fingerprint"] = self.fingerprint()
        return payload


def config_from_dict(payload: dict) -> TDACConfig:
    """Rebuild a :class:`TDACConfig` from its :meth:`~TDACConfig.to_dict`.

    Used by the durable store to resume a service under the exact config
    it checkpointed with.  A key that is neither a field nor
    ``fingerprint`` raises :class:`ValueError`.  When the payload carries
    a ``fingerprint`` it is checked against the rebuilt config, so a
    hand-edited checkpoint cannot silently serve results under the wrong
    knobs.
    """
    fields = dict(payload)
    recorded = fields.pop("fingerprint", None)
    names = {field.name for field in dataclasses.fields(TDACConfig)}
    unknown = sorted(set(fields) - names)
    if unknown:
        raise ValueError(f"stored config has unknown keys {unknown}")
    config = TDACConfig(**fields)
    if recorded is not None and config.fingerprint() != recorded:
        raise ValueError(
            f"stored config fingerprint {recorded} does not match its "
            f"knobs (recomputed {config.fingerprint()})"
        )
    return config
