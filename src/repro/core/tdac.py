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
masked (missing-data-aware) Hamming, and the per-block passes can run in
parallel (the paper's second research perspective).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.clustering.distance import (
    pairwise_hamming,
    pairwise_hamming_sparse,
    pairwise_masked_hamming,
    pairwise_masked_hamming_sparse,
)
from repro.clustering.kselect import score_silhouette_sweep
from repro.clustering.sweep import sweep_kmeans
from repro.core.cache import PartitionCache
from repro.core.config import TDACConfig
from repro.core.parallel import run_blocks
from repro.core.partition import Partition
from repro.core.truth_vectors import TruthVectorMatrix, build_truth_vectors
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.types import Fact, SourceId, Value
from repro.execution import ExecutionPolicy
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
        knob (distance, sweep bounds, restarts/seed, parallelism,
        sparsity, execution policy).  ``None`` means all defaults.
    partition_cache:
        Optional :class:`~repro.core.cache.PartitionCache`.  When given,
        :meth:`run` keys the partition-selection stage on the dataset's
        content fingerprint, the reference algorithm's name and the
        config fingerprint; a hit skips the distance matrix, the
        ``(k, init)`` sweep and the silhouette scoring while staying
        bit-identical (selection is deterministic in that key).
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        reference: TruthDiscoveryAlgorithm | None = None,
        config: TDACConfig | None = None,
        partition_cache: PartitionCache | None = None,
    ) -> None:
        self.config = config if config is not None else TDACConfig()
        self.base = base
        self.reference_algorithm = reference if reference is not None else base
        self.partition_cache = partition_cache

    # Read-only per-knob views, kept so call sites (and the method bodies
    # below) written against the pre-config API keep working unchanged.

    @property
    def distance(self) -> str:
        return self.config.distance

    @property
    def k_min(self) -> int:
        return self.config.k_min

    @property
    def k_max(self) -> int | None:
        return self.config.k_max

    @property
    def n_init(self) -> int:
        return self.config.n_init

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def n_jobs(self) -> int:
        return self.config.n_jobs

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def sparse(self) -> bool | str:
        return self.config.sparse

    @property
    def sparse_threshold(self) -> int:
        return self.config.sparse_threshold

    @property
    def execution_policy(self) -> ExecutionPolicy | None:
        return self.config.execution_policy

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

        Every stage is wrapped in a span of the ambient tracer
        (``reference`` → ``truth_vectors`` → ``distance_matrix`` →
        ``k_sweep`` → ``silhouette_scoring`` → ``block_runs`` →
        ``merge``), so a traced run yields a per-stage wall-time
        breakdown at no cost to untraced runs.
        """
        tracer = current_tracer()
        start = time.perf_counter()
        with tracer.span("reference"):
            engine = self._claim_engine(dataset)
            reference = self.reference_pass(dataset, engine)
        with tracer.span("truth_vectors"):
            vectors = build_truth_vectors(
                dataset,
                reference,
                memmap_threshold=self.config.memmap_threshold,
            )
        partition, silhouettes = self._select_with_cache(dataset, vectors)
        block_results = run_blocks(
            self.base,
            dataset,
            partition,
            n_jobs=self.n_jobs,
            backend=self.backend,
            policy=self.execution_policy,
            engine=engine,
        )
        with tracer.span("merge"):
            merged = self._merge(dataset, partition, block_results, start)
        return TDACResult(
            result=merged,
            partition=partition,
            silhouette_by_k=silhouettes,
            reference=reference,
            block_results=tuple(block_results),
            truth_vectors=vectors,
        )

    def run_partitioned(
        self, dataset: Dataset, partition: Partition
    ) -> tuple[TruthDiscoveryResult, tuple[TruthDiscoveryResult, ...]]:
        """Step 4 only: solve every block of a known ``partition`` and merge.

        Used by callers that already hold a partition (the serving layer
        on a warm cache, ablations with forced partitions).  Produces
        exactly the merged result :meth:`run` would emit for the same
        partition — :meth:`_merge` does not read the reference pass.
        """
        start = time.perf_counter()
        block_results = run_blocks(
            self.base,
            dataset,
            partition,
            n_jobs=self.n_jobs,
            backend=self.backend,
            policy=self.execution_policy,
            engine=self._claim_engine(dataset),
        )
        with current_tracer().span("merge"):
            merged = self._merge(dataset, partition, block_results, start)
        return merged, tuple(block_results)

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

    def _claim_engine(self, dataset: Dataset) -> ClaimIndexEngine:
        """The dataset's shared claim-index engine under this config.

        One engine per (dataset, working dtype) serves both the
        reference pass (its full index) and every per-block run (sliced
        views), so the incidence structure is compiled exactly once.
        """
        return ClaimIndexEngine.shared(dataset, dtype=self.config.dtype_np)

    # ------------------------------------------------------------------

    def _select_with_cache(
        self, dataset: Dataset, vectors: TruthVectorMatrix
    ) -> tuple[Partition, dict[int, float]]:
        """Partition selection, memoized through ``partition_cache``.

        The key pins everything the selection depends on: the dataset
        content, the reference algorithm that shaped the truth vectors,
        and the result-affecting config knobs.  Selection is
        deterministic in that key, so replaying a cached partition is
        bit-identical to recomputing it.
        """
        cache = self.partition_cache
        if cache is None:
            return self.select_partition(vectors)
        tracer = current_tracer()
        key = (
            dataset.fingerprint,
            self.reference_algorithm.name,
            self.config.fingerprint(),
        )
        hit = cache.get(key)
        if hit is not None:
            tracer.count("partition_cache.hits")
            partition, silhouettes = hit
            return partition, dict(silhouettes)
        tracer.count("partition_cache.misses")
        partition, silhouettes = self.select_partition(vectors)
        cache.put(key, partition, silhouettes)
        return partition, silhouettes

    def select_partition(
        self, vectors: TruthVectorMatrix
    ) -> tuple[Partition, dict[int, float]]:
        """Steps 2–3: sweep ``k`` with k-means, keep the best silhouette.

        The pairwise distance matrix is computed once (sparse or dense
        per the ``sparse`` knob) and shared across every candidate
        ``k``; the ``(k, init)`` restart grid runs on one executor
        (``n_jobs``/``backend``), and the silhouette aggregations reuse
        the matrix's row sums across candidates.  All of it is
        bit-identical to the sequential dense pass.

        Datasets with fewer than 4 attributes have an empty sweep range
        ``[2, |A| - 1]``; they fall back to the trivial one-block
        partition, which makes TD-AC degrade gracefully to plain ``F``.
        """
        partition, silhouettes, _ = self.sweep_partition(vectors)
        return partition, silhouettes

    def sweep_partition(
        self,
        vectors: TruthVectorMatrix,
        distances: np.ndarray | None = None,
    ) -> tuple[Partition, dict[int, float], dict]:
        """:meth:`select_partition` plus the per-``k`` k-means fits.

        The fits carry the winning centroids of every swept ``k``; the
        exact incremental engine keeps them so the next update can
        warm-start its stability probe from the previous sweep.
        ``distances`` optionally reuses an already-computed pairwise
        distance matrix (it depends only on ``vectors``).
        """
        n_attributes = vectors.n_attributes
        upper = n_attributes - 1 if self.k_max is None else min(
            self.k_max, n_attributes - 1
        )
        if upper < self.k_min:
            return Partition.whole(vectors.attributes), {}, {}
        data = vectors.matrix.astype(float)
        if distances is None:
            distances = self.pairwise_distances(vectors)
        fits = sweep_kmeans(
            data,
            range(self.k_min, upper + 1),
            n_init=self.n_init,
            seed=self.seed,
            n_jobs=self.n_jobs,
            backend=self.backend,
            policy=self.execution_policy,
        )
        silhouettes = score_silhouette_sweep(distances, fits, average="macro")
        partition = self.pick_partition(
            vectors.attributes, fits, silhouettes
        )
        return partition, silhouettes, fits

    @staticmethod
    def pick_partition(
        attributes: tuple,
        fits: Mapping[int, object],
        silhouettes: Mapping[int, float],
    ) -> Partition:
        """Algorithm 1's argmax over swept fits (first ``k`` wins ties).

        Shared by the cold sweep and the incremental engine's
        warm-started probe so both apply the identical tie-break:
        candidates are scanned in ascending ``k``, degenerate single-
        cluster labellings are skipped, and only a strict silhouette
        improvement replaces the incumbent.
        """
        best_partition: Partition | None = None
        best_score = -np.inf
        for k in sorted(fits):
            labels = fits[k].labels
            if len(np.unique(labels)) < 2:
                continue
            # Algorithm 1 keeps the first k on ties (strict improvement).
            if silhouettes[k] > best_score:
                best_score = silhouettes[k]
                best_partition = Partition.from_labels(attributes, labels)
        if best_partition is None:
            best_partition = Partition.whole(attributes)
        return best_partition

    def pairwise_distances(self, vectors: TruthVectorMatrix) -> np.ndarray:
        """The attribute distance matrix under the configured mode.

        Dispatches between the dense kernels and the CSR Gram kernels of
        :mod:`repro.clustering.distance`; both return the same matrix,
        so this only decides how the reduction is executed.
        """
        with current_tracer().span(
            "distance_matrix",
            mode=self.distance,
            sparse=self.use_sparse(vectors),
        ):
            if self.use_sparse(vectors):
                if self.distance == "masked":
                    return pairwise_masked_hamming_sparse(
                        vectors.matrix_csr(), vectors.mask_csr()
                    )
                return pairwise_hamming_sparse(vectors.matrix_csr())
            data = vectors.matrix.astype(float)
            if self.distance == "masked":
                return pairwise_masked_hamming(data, vectors.mask)
            return pairwise_hamming(data)

    def use_sparse(self, vectors: TruthVectorMatrix) -> bool:
        """Whether the sparse distance path applies to ``vectors``."""
        if self.sparse == "auto":
            return vectors.matrix.size >= self.sparse_threshold
        return bool(self.sparse)

    def _merge(
        self,
        dataset: Dataset,
        partition: Partition,
        block_results: list[TruthDiscoveryResult],
        start: float,
    ) -> TruthDiscoveryResult:
        """Step 4's aggregation: concatenate block predictions.

        Per-source trust is merged as the claim-count-weighted mean of the
        per-block trusts, so a block with 2 attributes does not dominate
        one with 20.
        """
        predictions: dict[Fact, Value] = {}
        confidence: dict[Fact, float] = {}
        for block_result in block_results:
            predictions.update(block_result.predictions)
            confidence.update(block_result.confidence)
        weights: dict[SourceId, float] = {s: 0.0 for s in dataset.sources}
        trust_sums: dict[SourceId, float] = {s: 0.0 for s in dataset.sources}
        # One pass over the claims builds the attribute -> claim-count
        # map; each block then sums its attributes' counts instead of
        # rescanning every claim per block.
        claims_per_attribute = Counter(a for (_, _, a) in dataset.claims)
        for block, block_result in zip(partition.blocks, block_results):
            block_claims = sum(claims_per_attribute[a] for a in block)
            weight = float(max(block_claims, 1))
            for source, trust in block_result.source_trust.items():
                trust_sums[source] += weight * trust
                weights[source] += weight
        source_trust = {
            s: (trust_sums[s] / weights[s]) if weights[s] > 0 else 0.0
            for s in dataset.sources
        }
        return TruthDiscoveryResult(
            algorithm=self.name,
            predictions=predictions,
            confidence=confidence,
            source_trust=source_trust,
            # The paper reports TD-AC as a single-iteration process
            # (Tables 4, 6, 7, 9): one partition-then-solve pass.
            iterations=1,
            elapsed_seconds=time.perf_counter() - start,
            extras={"partition": str(partition)},
        )

    def _solve(self, index):  # pragma: no cover - not used by TDAC
        raise NotImplementedError(
            "TDAC overrides discover(); _solve is never called"
        )
