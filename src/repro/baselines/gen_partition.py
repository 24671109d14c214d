"""AccuGenPartition — the brute-force baseline (Ba et al., WebDB 2015).

The approach the paper compares TD-AC against: enumerate *every*
partition of the attribute set (Bell-number many), run the base truth
discovery algorithm on each block of each candidate, and score the
candidate with a weighting function over the estimated per-block source
reliabilities.  Three weighting functions are implemented:

* ``max`` — a partition is good if every source gets to shine somewhere:
  score is the mean over sources of their *maximum* per-block estimated
  accuracy.  A partition that isolates each source's strong attribute
  group pushes every source's best-block accuracy up.
* ``avg`` — score is the mean over blocks and sources of the estimated
  accuracy: rewards partitions under which the base algorithm is
  globally confident about its sources.
* ``oracle`` — uses the ground truth: score is the actual claim-level
  accuracy of the merged predictions.  This is the upper bound the
  paper's Oracle rows report; it is not available in practice.

The running time is dominated by ``B(|A|)`` full base-algorithm sweeps —
the blow-up TD-AC removes (Tables 4a–4c report ≈200× slowdowns).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.baselines.partitions import all_partitions
from repro.core.parallel import run_blocks
from repro.core.partition import Partition
from repro.data.dataset import Dataset
from repro.data.types import Fact, GroundTruthError, SourceId, Value
from repro.metrics.classification import evaluate_predictions

WeightingFunction = Callable[
    [Dataset, Partition, list[TruthDiscoveryResult]], float
]


def max_weighting(
    dataset: Dataset,
    partition: Partition,
    block_results: list[TruthDiscoveryResult],
) -> float:
    """Mean over sources of their best per-block estimated accuracy."""
    best: dict[SourceId, float] = {}
    for block_result in block_results:
        for source, trust in block_result.source_trust.items():
            if trust > best.get(source, float("-inf")):
                best[source] = trust
    if not best:
        return 0.0
    return sum(best.values()) / len(best)


def avg_weighting(
    dataset: Dataset,
    partition: Partition,
    block_results: list[TruthDiscoveryResult],
) -> float:
    """Mean estimated accuracy over every (block, source) pair."""
    total = 0.0
    count = 0
    for block_result in block_results:
        for trust in block_result.source_trust.values():
            total += trust
            count += 1
    return total / count if count else 0.0


def oracle_weighting(
    dataset: Dataset,
    partition: Partition,
    block_results: list[TruthDiscoveryResult],
) -> float:
    """True accuracy of the merged predictions (requires ground truth)."""
    if not dataset.has_truth:
        raise GroundTruthError(
            "oracle weighting requires a dataset with ground truth"
        )
    merged: dict[Fact, Value] = {}
    for block_result in block_results:
        merged.update(block_result.predictions)
    return evaluate_predictions(dataset, merged).accuracy


WEIGHTING_FUNCTIONS: Mapping[str, WeightingFunction] = {
    "max": max_weighting,
    "avg": avg_weighting,
    "oracle": oracle_weighting,
}


@dataclass(frozen=True)
class GenPartitionResult:
    """Outcome of one brute-force partition search."""

    result: TruthDiscoveryResult
    partition: Partition
    score: float
    weighting: str
    n_partitions_explored: int

    @property
    def predictions(self) -> Mapping[Fact, Value]:
        """Merged fact → value predictions of the winning partition."""
        return self.result.predictions


class AccuGenPartition:
    """Brute-force attribute-partition search with a weighting function.

    Parameters
    ----------
    base:
        Base truth discovery algorithm run on every block of every
        candidate partition (the paper uses Accu).
    weighting:
        ``"max"``, ``"avg"`` or ``"oracle"``.
    include_trivial:
        Whether the one-block and all-singleton partitions participate
        (they do in the original exploration).
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        weighting: str = "avg",
        include_trivial: bool = True,
    ) -> None:
        key = weighting.lower()
        if key not in WEIGHTING_FUNCTIONS:
            known = ", ".join(sorted(WEIGHTING_FUNCTIONS))
            raise ValueError(f"unknown weighting {weighting!r}; known: {known}")
        self.base = base
        self.weighting = key
        self.include_trivial = include_trivial

    @property
    def name(self) -> str:
        return f"AccuGenPartition ({self.weighting.capitalize()})"

    def run(self, dataset: Dataset) -> GenPartitionResult:
        """Explore all partitions; return the best-scoring one's result."""
        start = time.perf_counter()
        weight_fn = WEIGHTING_FUNCTIONS[self.weighting]
        best_score = float("-inf")
        best_partition: Partition | None = None
        best_blocks: list[TruthDiscoveryResult] | None = None
        explored = 0
        for partition in all_partitions(dataset.attributes):
            if not self.include_trivial and partition.n_blocks in (
                1,
                len(dataset.attributes),
            ):
                continue
            block_results = run_blocks(self.base, dataset, partition)
            score = weight_fn(dataset, partition, block_results)
            explored += 1
            if score > best_score:
                best_score = score
                best_partition = partition
                best_blocks = block_results
        if best_partition is None or best_blocks is None:
            raise ValueError("no partition explored; empty attribute set?")
        merged = self._merge(dataset, best_blocks, start)
        return GenPartitionResult(
            result=merged,
            partition=best_partition,
            score=best_score,
            weighting=self.weighting,
            n_partitions_explored=explored,
        )

    def _merge(
        self,
        dataset: Dataset,
        block_results: list[TruthDiscoveryResult],
        start: float,
    ) -> TruthDiscoveryResult:
        predictions: dict[Fact, Value] = {}
        confidence: dict[Fact, float] = {}
        trust_sums: dict[SourceId, float] = {s: 0.0 for s in dataset.sources}
        for block_result in block_results:
            predictions.update(block_result.predictions)
            confidence.update(block_result.confidence)
            for source, trust in block_result.source_trust.items():
                trust_sums[source] += trust
        n_blocks = max(len(block_results), 1)
        return TruthDiscoveryResult(
            algorithm=self.name,
            predictions=predictions,
            confidence=confidence,
            source_trust={s: t / n_blocks for s, t in trust_sums.items()},
            iterations=1,
            elapsed_seconds=time.perf_counter() - start,
        )
