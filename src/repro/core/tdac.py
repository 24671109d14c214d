"""TD-AC — Truth Discovery with Attribute Clustering (Algorithm 1).

The pipeline of Section 3.4:

1. run a base truth discovery algorithm ``F`` over the full dataset to
   obtain a reference truth;
2. build the attribute truth vector matrix (Eq. 1);
3. for every ``k in [2, |A| - 1]`` cluster the attribute vectors with
   k-means and score the clustering with the silhouette index (Eqs. 5–7),
   keeping the best partition;
4. run ``F`` independently on each block of the winning partition and
   concatenate the partial truths.

The class exposes every knob the paper's ablations need: the base
algorithm used for the per-block passes may differ from the one that
built the reference truth, the pairwise distance may be the plain or the
masked (missing-data-aware) Hamming.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.algorithms.base import (
    TruthDiscoveryAlgorithm,
    TruthDiscoveryResult,
    merge_by_claim_count,
)
from repro.clustering.distance import pairwise_hamming, pairwise_masked_hamming
from repro.clustering.kselect import score_silhouette_sweep
from repro.clustering.sweep import sweep_kmeans
from repro.core.config import TDACConfig
from repro.core.parallel import run_blocks
from repro.core.partition import Partition
from repro.core.truth_vectors import TruthVectorMatrix, build_truth_vectors
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.types import AttributeId, Fact, SourceId, Value
from repro.observability import current_tracer


@dataclass(frozen=True)
class TDACResult:
    """The result of one TD-AC run, with full provenance.

    Wraps the merged :class:`TruthDiscoveryResult` and records the chosen
    partition, the silhouette value of every swept ``k``, the reference
    run that produced the truth vectors, and the per-block results.
    """

    result: TruthDiscoveryResult
    partition: Partition
    silhouette_by_k: Mapping[int, float]
    reference: TruthDiscoveryResult
    block_results: tuple[TruthDiscoveryResult, ...]
    truth_vectors: TruthVectorMatrix

    @property
    def predictions(self) -> Mapping[Fact, Value]:
        """Merged fact → value predictions."""
        return self.result.predictions

    @property
    def source_trust(self) -> Mapping[SourceId, float]:
        """Merged per-source trust (claim-weighted mean across blocks)."""
        return self.result.source_trust

    @property
    def best_k(self) -> int:
        """Number of blocks of the selected partition."""
        return self.partition.n_blocks

    def to_dict(self) -> dict:
        """``tdac-result/v1`` rendering with partition provenance."""
        from repro.core.schema import result_to_dict

        return result_to_dict(
            self.result,
            partition=self.partition,
            silhouette_by_k=self.silhouette_by_k,
        )


class TDAC(TruthDiscoveryAlgorithm):
    """Truth Discovery with Attribute Clustering.

    Parameters
    ----------
    base:
        The base algorithm ``F`` executed on every block (and, unless
        ``reference`` is given, used to build the reference truth).
    reference:
        Optional distinct algorithm for the reference truth pass
        (ablation A-3); defaults to ``base``.
    config:
        A :class:`~repro.core.config.TDACConfig` carrying every tuning
        knob (distance, sweep bounds, restarts/seed).  ``None`` means
        all defaults.
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        reference: TruthDiscoveryAlgorithm | None = None,
        config: TDACConfig | None = None,
    ) -> None:
        self.config = config if config is not None else TDACConfig()
        self.base = base
        self.reference_algorithm = reference if reference is not None else base

    #: TDAC's discover() runs the full pipeline over a raw Dataset; it
    #: cannot consume a pre-sliced DatasetIndex view.
    supports_index = False

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"TD-AC (F={self.base.name})"

    # ------------------------------------------------------------------

    def discover(self, data: Dataset) -> TruthDiscoveryResult:  # type: ignore[override]
        """Run TD-AC and return the merged result only."""
        return self.run(data).result

    def run(self, dataset: Dataset) -> TDACResult:
        """Run TD-AC and return the full provenance-carrying result.

        Steps 1–2 (reference pass, Eq. 1 vectors) run here; steps 3–4
        run in :meth:`_finish`, the stage the exact delta path of
        :class:`~repro.core.incremental.IncrementalTDAC` finishes
        through too.  Every stage is wrapped in a span of the ambient
        tracer (``reference`` → ``truth_vectors`` → ``distance_matrix``
        → ``k_sweep`` → ``silhouette_scoring`` → ``block_runs`` →
        ``merge``), so a traced run yields a per-stage wall-time
        breakdown at no cost to untraced runs.
        """
        tracer = current_tracer()
        start = time.perf_counter()
        with tracer.span("reference"):
            # One engine per dataset serves both the reference pass and
            # every per-block view, so the index is compiled once.
            engine = ClaimIndexEngine.shared(dataset)
            reference = self.reference_pass(dataset, engine)
        with tracer.span("truth_vectors"):
            vectors = build_truth_vectors(dataset, reference)
        return self._finish(dataset, engine, reference, vectors, start)

    def _finish(
        self,
        dataset: Dataset,
        engine: ClaimIndexEngine | None,
        reference: TruthDiscoveryResult,
        vectors: TruthVectorMatrix,
        start: float,
        selection: tuple[Partition, Mapping[int, float]] | None = None,
        reusable: Mapping[tuple[AttributeId, ...], TruthDiscoveryResult]
        | None = None,
    ) -> TDACResult:
        """Steps 3–4: select the partition, run its blocks, merge.

        ``selection`` is a partition and its silhouettes already
        certified on ``vectors`` (``None`` sweeps).  ``reusable`` maps
        blocks to results known to equal a re-run (``None`` runs every
        block).  The merged result is timed from ``start``.
        """
        if selection is None:
            partition, silhouettes = self.select_partition(vectors)
        else:
            partition, silhouettes = selection
        results = dict(reusable or {})
        stale = [block for block in partition.blocks if block not in results]
        results.update(
            zip(stale, run_blocks(self.base, dataset, stale, engine=engine))
        )
        block_results = [results[block] for block in partition.blocks]
        with current_tracer().span("merge"):
            merged = merge_by_claim_count(
                dataset,
                zip(partition.blocks, block_results),
                algorithm=self.name,
                # The paper reports TD-AC as a single-iteration process
                # (Tables 4, 6, 7, 9): one partition-then-solve pass.
                iterations=1,
                start=start,
                extras={"partition": str(partition)},
            )
        return TDACResult(
            result=merged,
            partition=partition,
            silhouette_by_k=silhouettes,
            reference=reference,
            block_results=tuple(block_results),
            truth_vectors=vectors,
        )

    def reference_pass(
        self, dataset: Dataset, engine: ClaimIndexEngine | None
    ) -> TruthDiscoveryResult:
        """Step 1: the reference algorithm over the whole dataset.

        Runs on ``engine``'s full index when there is an engine and the
        reference algorithm consumes index views; otherwise (TDAC as its
        own reference, type-routed algorithms) on the raw ``dataset``.
        Shared by :meth:`run` and the delta refits of
        :class:`~repro.core.incremental.IncrementalTDAC`.
        """
        if engine is None or not self.reference_algorithm.supports_index:
            return self.reference_algorithm.discover(dataset)
        return self.reference_algorithm.discover(engine.full_index)

    # ------------------------------------------------------------------

    def select_partition(
        self, vectors: TruthVectorMatrix
    ) -> tuple[Partition, dict[int, float]]:
        """Steps 2–3: sweep ``k`` with k-means, keep the best silhouette.

        The pairwise distance matrix is computed once and shared across
        every candidate ``k``, and the silhouette aggregations reuse the
        matrix's row sums across candidates.

        Candidates are scanned in ascending ``k``, degenerate single-
        cluster labellings are skipped, and only a strict silhouette
        improvement replaces the incumbent, so the first ``k`` wins ties.

        Datasets with fewer than 4 attributes have an empty sweep range
        ``[2, |A| - 1]``; they fall back to the trivial one-block
        partition, which makes TD-AC degrade gracefully to plain ``F``.
        """
        config = self.config
        n_attributes = vectors.n_attributes
        upper = n_attributes - 1 if config.k_max is None else min(
            config.k_max, n_attributes - 1
        )
        if upper < config.k_min:
            return Partition.whole(vectors.attributes), {}
        data = vectors.matrix.astype(float)
        distances = self.pairwise_distances(vectors)
        fits = sweep_kmeans(
            data,
            range(config.k_min, upper + 1),
            n_init=config.n_init,
            seed=config.seed,
        )
        silhouettes = score_silhouette_sweep(distances, fits, average="macro")
        best_partition = Partition.whole(vectors.attributes)
        best_score = -np.inf
        for k in sorted(fits):
            labels = fits[k].labels
            if len(np.unique(labels)) < 2:
                continue
            # Algorithm 1 keeps the first k on ties (strict improvement).
            if silhouettes[k] > best_score:
                best_score = silhouettes[k]
                best_partition = Partition.from_labels(
                    vectors.attributes, labels
                )
        return best_partition, silhouettes

    def pairwise_distances(self, vectors: TruthVectorMatrix) -> np.ndarray:
        """The attribute distance matrix under the configured mode."""
        mode = self.config.distance
        with current_tracer().span("distance_matrix", mode=mode):
            data = vectors.matrix.astype(float)
            if mode == "masked":
                return pairwise_masked_hamming(data, vectors.mask)
            return pairwise_hamming(data)

    def _solve(self, index):  # pragma: no cover - not used by TDAC
        raise NotImplementedError(
            "TDAC overrides discover(); _solve is never called"
        )
