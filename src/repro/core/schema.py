"""The versioned ``tdac-result/v1`` result serialization schema.

Before this module existed every surface serialized results its own
way: :class:`~repro.core.tdac.TDACResult` exposed raw mappings, the
incremental engine returned a bare
:class:`~repro.algorithms.base.TruthDiscoveryResult`, and the CLI
printed ASCII tables only.  ``result_to_dict`` is now the single
JSON-ready rendering shared by all of them — ``TDACResult.to_dict()``,
``TruthDiscoveryResult.to_dict()``, the serving layer's
:class:`~repro.serving.snapshot.TruthSnapshot` and the CLI's
``run --json`` all emit this schema, so downstream consumers parse one
format regardless of which engine produced the result.

Schema contract (pinned by the API-stability tests):

* ``schema`` — the literal :data:`RESULT_SCHEMA` tag;
* ``predictions`` — a list sorted by (object, attribute), each entry a
  ``{"object", "attribute", "value", "confidence"}`` record;
* ``source_trust`` — source → trust, keys stringified and sorted;
* ``partition`` / ``silhouette_by_k`` — present but ``None`` / empty
  when the producing engine has no partition provenance.

Additive keys are allowed within v1; removing or renaming any of
:data:`RESULT_SCHEMA_KEYS` requires a version bump.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.algorithms.base import TruthDiscoveryResult
    from repro.core.partition import Partition

#: Version tag embedded in every serialized result.
RESULT_SCHEMA = "tdac-result/v1"

#: Keys every serialized result carries, in emission order.
RESULT_SCHEMA_KEYS = (
    "schema",
    "algorithm",
    "iterations",
    "elapsed_seconds",
    "predictions",
    "source_trust",
    "partition",
    "silhouette_by_k",
    "extras",
)


def result_from_dict(payload: Mapping[str, Any]) -> "TruthDiscoveryResult":
    """Rebuild a :class:`TruthDiscoveryResult` from its v1 rendering.

    The inverse of :func:`result_to_dict` up to JSON's type erasure:
    tuple-valued predictions come back as tuples (JSON arrays are
    frozen), object/attribute identifiers come back as the strings the
    serializer emitted, and facts whose serialized confidence was
    ``None`` are omitted from the ``confidence`` mapping.  Partition
    provenance (``partition`` / ``silhouette_by_k``) is not part of the
    result object itself; callers that need it read those keys
    directly.
    """
    from repro.algorithms.base import TruthDiscoveryResult
    from repro.data.types import Fact, freeze_value

    if payload.get("schema") != RESULT_SCHEMA:
        raise ValueError(
            f"payload does not carry the {RESULT_SCHEMA} schema "
            f"(got {payload.get('schema')!r})"
        )
    predictions: dict[Any, Any] = {}
    confidence: dict[Any, float] = {}
    for entry in payload.get("predictions", ()):
        fact = Fact(entry["object"], entry["attribute"])
        predictions[fact] = freeze_value(entry["value"])
        if entry.get("confidence") is not None:
            confidence[fact] = float(entry["confidence"])
    return TruthDiscoveryResult(
        algorithm=str(payload.get("algorithm", "")),
        predictions=predictions,
        confidence=confidence,
        source_trust={
            str(source): float(trust)
            for source, trust in (payload.get("source_trust") or {}).items()
        },
        iterations=int(payload.get("iterations", 0)),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        extras=dict(payload.get("extras") or {}),
    )


def result_to_dict(
    result: "TruthDiscoveryResult",
    partition: "Partition | None" = None,
    silhouette_by_k: Mapping[int, float] | None = None,
) -> dict[str, Any]:
    """Render ``result`` (plus optional partition provenance) as v1.

    Predictions are sorted by (object, attribute) and trust by source, so
    serializing the same result twice yields byte-identical JSON.
    """
    ordered = sorted(
        result.predictions.items(),
        key=lambda kv: (str(kv[0].object), str(kv[0].attribute)),
    )
    return {
        "schema": RESULT_SCHEMA,
        "algorithm": result.algorithm,
        "iterations": result.iterations,
        "elapsed_seconds": result.elapsed_seconds,
        "predictions": [
            {
                "object": str(fact.object),
                "attribute": str(fact.attribute),
                "value": value,
                "confidence": (
                    None
                    if result.confidence.get(fact) is None
                    else float(result.confidence[fact])
                ),
            }
            for fact, value in ordered
        ],
        "source_trust": {
            str(source): float(trust)
            for source, trust in sorted(
                result.source_trust.items(), key=lambda kv: str(kv[0])
            )
        },
        "partition": (
            None
            if partition is None
            else [[str(a) for a in block] for block in partition.blocks]
        ),
        "silhouette_by_k": {
            str(k): float(v)
            for k, v in sorted((silhouette_by_k or {}).items())
        },
        "extras": {str(k): str(v) for k, v in result.extras.items()},
    }
