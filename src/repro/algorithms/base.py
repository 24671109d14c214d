"""Common interface and result type for truth discovery algorithms.

Every algorithm consumes a :class:`~repro.data.dataset.Dataset` (or a
pre-compiled :class:`~repro.data.index.DatasetIndex`) and produces a
:class:`TruthDiscoveryResult`: one predicted value per fact, the final
per-source trust estimates, plus bookkeeping (iterations, wall time) that
the paper reports in its tables.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.data.dataset import Dataset
from repro.data.index import DatasetIndex
from repro.data.types import AttributeId, Fact, SourceId, Value


@dataclass(frozen=True)
class TruthDiscoveryResult:
    """The output of one truth discovery run.

    Attributes
    ----------
    algorithm:
        Display name of the algorithm that produced the result.
    predictions:
        Predicted true value for every fact that received at least one
        claim.
    confidence:
        Confidence score of the predicted value per fact, normalised to
        the fact's candidate set where the algorithm defines one.
    source_trust:
        Final estimated reliability of every source (algorithm-specific
        scale; larger is more trusted).
    iterations:
        Number of fixed-point iterations executed (1 for single-pass
        algorithms such as majority voting).
    elapsed_seconds:
        Wall-clock time of the run.
    """

    algorithm: str
    predictions: Mapping[Fact, Value]
    confidence: Mapping[Fact, float]
    source_trust: Mapping[SourceId, float]
    iterations: int
    elapsed_seconds: float
    extras: Mapping[str, object] = field(default_factory=dict)

    def predicted_value(self, fact: Fact) -> Value | None:
        """Predicted value of ``fact``, or None if no source covered it."""
        return self.predictions.get(fact)

    def to_dict(self) -> dict:
        """``tdac-result/v1`` rendering (no partition provenance).

        The same versioned schema is emitted by
        :meth:`repro.core.tdac.TDACResult.to_dict` and the serving
        layer's snapshots, so every engine serializes identically.
        """
        from repro.core.schema import result_to_dict

        return result_to_dict(self)

    def __len__(self) -> int:
        return len(self.predictions)


def merge_by_claim_count(
    dataset: Dataset,
    parts: Iterable[tuple[Iterable[AttributeId], TruthDiscoveryResult]],
    *,
    algorithm: str,
    iterations: int,
    start: float,
    extras: Mapping[str, object],
) -> TruthDiscoveryResult:
    """Merge results solved on disjoint attribute groups of ``dataset``.

    ``parts`` pairs each group's attributes with its result.  Predictions
    and confidences are unioned in ``parts`` order; per-source trust is
    the claim-count-weighted mean of the group trusts, so a group with 2
    attributes does not dominate one with 20.  TD-AC's block merge and
    :class:`~repro.algorithms.routing.TypeRouted` share this one policy.
    """
    parts = list(parts)
    predictions: dict[Fact, Value] = {}
    confidence: dict[Fact, float] = {}
    for _, result in parts:
        predictions.update(result.predictions)
        confidence.update(result.confidence)
    weights: dict[SourceId, float] = {s: 0.0 for s in dataset.sources}
    trust_sums: dict[SourceId, float] = {s: 0.0 for s in dataset.sources}
    # Each group sums its attributes' counts, counted once per dataset.
    claims_per_attribute = dataset.claims_per_attribute
    for attributes, result in parts:
        group_claims = sum(claims_per_attribute[a] for a in attributes)
        weight = float(max(group_claims, 1))
        for source, trust in result.source_trust.items():
            trust_sums[source] += weight * trust
            weights[source] += weight
    source_trust = {
        s: (trust_sums[s] / weights[s]) if weights[s] > 0 else 0.0
        for s in dataset.sources
    }
    return TruthDiscoveryResult(
        algorithm=algorithm,
        predictions=predictions,
        confidence=confidence,
        source_trust=source_trust,
        iterations=iterations,
        elapsed_seconds=time.perf_counter() - start,
        extras=extras,
    )


@dataclass(frozen=True, slots=True)
class EngineState:
    """Internal fixed-point state handed back by algorithm cores.

    ``slot_ranking`` optionally carries an unsquashed per-slot score used
    for winner selection when ``slot_confidence`` saturates (e.g.
    TruthFinder's logistic flattens to 1.0 for every slot once hundreds
    of sources vote); it must be monotone in the algorithm's preference.
    """

    slot_confidence: np.ndarray
    source_trust: np.ndarray
    iterations: int
    slot_ranking: np.ndarray | None = None


class TruthDiscoveryAlgorithm(ABC):
    """Base class for every truth discovery algorithm in the library.

    Subclasses implement :meth:`_solve` over a compiled
    :class:`DatasetIndex`; the base class handles timing, winner
    extraction and result materialisation so all algorithms report
    uniformly.
    """

    #: Display name; subclasses override.
    name: str = "abstract"

    #: Value families (:data:`repro.data.types.ATTRIBUTE_TYPES`) this
    #: algorithm can resolve.  The slot machinery votes among claimed
    #: values by equality, which is sound for categorical truths and for
    #: multi-valued truths represented as whole tuples (full-set voting),
    #: but not for continuous data, where the right estimate is an
    #: aggregate no source may have claimed.  Continuous estimators
    #: declare ``{"continuous"}``; routers declare all three.  The
    #: runner and leaderboard check this against the dataset's attribute
    #: types and skip-with-reason instead of producing garbage.
    value_types: frozenset = frozenset({"categorical", "multi"})

    #: Whether :meth:`discover` accepts a pre-compiled
    #: :class:`DatasetIndex` (all index-solving algorithms do).  Meta
    #: algorithms that override :meth:`discover` to run a full pipeline
    #: over the raw Dataset (e.g. TDAC itself) set this False so block
    #: runners hand them datasets instead of sliced index views.
    supports_index: bool = True

    def discover(self, data: Dataset | DatasetIndex) -> TruthDiscoveryResult:
        """Run the algorithm and return its result.

        Accepts either a dataset (compiled on the fly) or an index that
        the caller compiled once and reuses across algorithms.
        """
        index = data if isinstance(data, DatasetIndex) else DatasetIndex(data)
        start = time.perf_counter()
        state = self._solve(index)
        elapsed = time.perf_counter() - start
        ranking = (
            state.slot_ranking
            if state.slot_ranking is not None
            else state.slot_confidence
        )
        winners = index.winning_slots(ranking)
        predictions = index.predictions_from_slots(winners)
        confidence = {
            fact: float(state.slot_confidence[winners[f_id]])
            for f_id, fact in enumerate(index.facts)
        }
        trust = {
            source: float(state.source_trust[s_id])
            for s_id, source in enumerate(index.dataset.sources)
        }
        return TruthDiscoveryResult(
            algorithm=self.name,
            predictions=predictions,
            confidence=confidence,
            source_trust=trust,
            iterations=state.iterations,
            elapsed_seconds=elapsed,
        )

    @abstractmethod
    def _solve(self, index: DatasetIndex) -> EngineState:
        """Compute per-slot confidences and per-source trust."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
