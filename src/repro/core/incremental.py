"""Incremental TD-AC: absorb new claims with *exact* delta refits.

A deployed fusion pipeline sees claims arrive continuously.  Re-running
all of Algorithm 1 per batch wastes the structure TD-AC just found, but
a shortcut is only admissible when its output is bit-identical to the
offline run — the serving layer publishes every refresh as a snapshot
and promises ``exact=True`` refits.

:class:`IncrementalTDAC` therefore re-derives each stage of Algorithm 1
at delta cost while keeping a proof that the published result equals
``TDAC.run`` over the accumulated dataset:

* the dataset grows through :meth:`Dataset.extended` (append-only,
  fingerprint-identical to a full rebuild) and the claim-index engine
  delta-compiles via :meth:`ClaimIndexEngine.extended` (spliced arrays,
  byte-identical to a cold compile);
* the reference pass is recomputed over the extended corpus (global
  source trust couples every claim; there is no sound per-fact patch),
  but it runs on the delta-compiled index, not a recompile;
* the Eq. 1 truth-vector matrix is patched in place by a
  :class:`~repro.core.truth_vectors.TruthVectorStore`, which reports
  exact change flags.  When nothing selection-relevant changed (appended
  all-zero columns provably leave every pairwise attribute distance,
  k-means labelling and silhouette untouched), the previous certified
  partition and silhouettes are reused; otherwise a cold sweep re-
  certifies.  A warm-started probe (k-means seeded with the previous
  sweep's centroids over a bounded ``k`` window) predicts the outcome
  first — if the certified partition disagrees with the warm
  prediction, partition structure drifted and *every* block is
  refreshed;
* blocks are recomputed only when their result could differ: their
  membership changed, a batch claim touched one of their attributes, or
  the source universe grew (per-block trust vectors span all sources).
  Untouched blocks with identical membership provably solve to the
  identical result and are reused;
* the merge reuses :meth:`TDAC._merge` verbatim, so the claim-count
  weighting — and therefore the merged trust arithmetic — matches the
  offline pipeline bit for bit.

Once the claims added since the last full fit exceed
``repartition_fraction`` of the dataset size *at that fit*, the next
:meth:`update` runs a full re-fit (reliability structure may have
drifted far enough that delta refits stop paying off).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable

import numpy as np

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.clustering.kmeans import lloyd
from repro.clustering.kselect import score_silhouette_sweep
from repro.core.cache import PartitionCache
from repro.core.config import TDACConfig
from repro.core.parallel import run_blocks
from repro.core.partition import Partition
from repro.core.tdac import TDAC, TDACResult
from repro.core.truth_vectors import TruthVectorStore, VectorDelta
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.types import Claim


class IncrementalTDAC:
    """Streaming wrapper around :class:`~repro.core.tdac.TDAC`.

    Parameters
    ----------
    base:
        Base algorithm for both the initial fit and block refreshes.
    repartition_fraction:
        When the claims added since the last full fit exceed this
        fraction of the dataset size *at that fit*, the partition is
        deemed stale and the next update runs a full re-fit.
    warm_window:
        Half-width of the ``k`` window around the previously chosen
        ``k`` in which the warm-started stability probe re-fits k-means
        from the previous centroids.  The probe never decides the
        published partition (the cold sweep does); it only detects
        partition drift, which forces an all-block refresh.  ``0``
        probes only the previous ``k`` itself.
    config:
        :class:`~repro.core.config.TDACConfig` for the underlying
        :class:`TDAC` (``None`` means all defaults).
    partition_cache:
        Optional :class:`~repro.core.cache.PartitionCache` shared with
        the underlying :class:`TDAC`, so repeated full fits over the
        same accumulated dataset replay their partition.
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        repartition_fraction: float = 0.2,
        warm_window: int = 1,
        config: TDACConfig | None = None,
        partition_cache: PartitionCache | None = None,
    ) -> None:
        if not 0.0 < repartition_fraction <= 1.0:
            raise ValueError("repartition_fraction must be in (0, 1]")
        if warm_window < 0:
            raise ValueError("warm_window must be >= 0")
        self.base = base
        self.repartition_fraction = repartition_fraction
        self.warm_window = warm_window
        self._tdac = TDAC(base, config=config, partition_cache=partition_cache)
        self._dataset: Dataset | None = None
        self._partition: Partition | None = None
        self._block_results: dict[tuple, TruthDiscoveryResult] = {}
        self._engine: ClaimIndexEngine | None = None
        self._last_outcome: TDACResult | None = None
        self._vector_store: TruthVectorStore | None = None
        self._prev_fits: dict | None = None
        self._prev_silhouettes: dict[int, float] | None = None
        self._n_claims_at_fit = 0
        self._claims_since_fit = 0
        self._n_full_fits = 0
        self._n_block_refreshes = 0
        self._n_blocks_reused = 0
        self._n_delta_updates = 0
        self._n_selection_reuses = 0
        self._n_warm_hits = 0
        self._n_warm_misses = 0

    # ------------------------------------------------------------------

    @property
    def config(self) -> TDACConfig:
        """The config of the underlying :class:`TDAC`."""
        return self._tdac.config

    @property
    def dataset(self) -> Dataset:
        """The current accumulated dataset."""
        self._require_fitted()
        return self._dataset

    @property
    def partition(self) -> Partition:
        """The partition currently in force."""
        self._require_fitted()
        return self._partition

    @property
    def last_outcome(self) -> TDACResult:
        """The full provenance-carrying result of the latest refit."""
        self._require_fitted()
        return self._last_outcome

    @property
    def stats(self) -> dict[str, int]:
        """Bookkeeping: fits, refreshes and delta-path reuse counters."""
        store = self._vector_store
        return {
            "full_fits": self._n_full_fits,
            "block_refreshes": self._n_block_refreshes,
            "claims_since_fit": self._claims_since_fit,
            "delta_updates": self._n_delta_updates,
            "blocks_reused": self._n_blocks_reused,
            "selection_reuses": self._n_selection_reuses,
            "warm_hits": self._n_warm_hits,
            "warm_misses": self._n_warm_misses,
            "vector_rebuilds": store.rebuilds if store is not None else 0,
            "vector_patches": store.patches if store is not None else 0,
        }

    # ------------------------------------------------------------------

    def fit(self, dataset: Dataset) -> TDACResult:
        """Initial (or staleness-triggered) full TD-AC fit."""
        outcome = self._tdac.run(dataset)
        self._dataset = dataset
        self._partition = outcome.partition
        self._block_results = dict(
            zip(outcome.partition.blocks, outcome.block_results)
        )
        self._last_outcome = outcome
        # TDAC.run does not expose its k-means fits and the batch-built
        # matrix is not patchable in place, so the first delta update
        # after a full fit seeds the store and cold-sweeps; later deltas
        # then reuse or warm-probe.
        self._vector_store = None
        self._prev_fits = None
        self._prev_silhouettes = None
        self._n_claims_at_fit = dataset.n_claims
        self._claims_since_fit = 0
        self._n_full_fits += 1
        self._pin_engine()
        return outcome

    def update(self, claims: Iterable[Claim]) -> TDACResult:
        """Absorb a batch of claims; recompute only what could change.

        Returns the same provenance-carrying :class:`TDACResult` a full
        :meth:`TDAC.run` over the accumulated dataset would return —
        bit-identical predictions, source trust, partition and
        silhouettes (``tests/test_incremental_exact.py`` pins this at
        every watermark).  A conflicting claim raises
        :class:`~repro.data.types.DataError` and leaves every piece of
        state untouched.
        """
        self._require_fitted()
        started = time.perf_counter()
        batch = list(claims)
        if not batch:
            return self._last_outcome
        # Validates the batch (conflicts raise before any state change)
        # and returns ``self._dataset`` itself when every claim is a
        # duplicate — nothing to recompute then.
        new_dataset = self._dataset.extended(batch)
        if new_dataset is self._dataset:
            return self._last_outcome
        fresh = self._fresh_claims(batch)
        self._claims_since_fit += len(fresh)

        stale = self._claims_since_fit > (
            self.repartition_fraction * self._n_claims_at_fit
        )
        if stale:
            return self.fit(new_dataset)
        return self._delta_update(new_dataset, fresh, started)

    # ------------------------------------------------------------------
    # The exact delta path
    # ------------------------------------------------------------------

    def _delta_update(
        self, new_dataset: Dataset, fresh: list[Claim], started: float
    ) -> TDACResult:
        tdac = self._tdac
        new_source = len(new_dataset.sources) != len(self._dataset.sources)
        engine = self._extend_engine(new_dataset, fresh)

        # Stage 1 — reference pass.  Source trust is globally coupled
        # (and the discovery tie-breaker is seeded by the view's slot
        # count), so the reference is recomputed over the extended
        # corpus; the delta-compiled index keeps that pass cheap.
        reference = tdac.reference_pass(new_dataset, engine)

        # Stage 2 — Eq. 1 matrix, patched in place.
        store = self._vector_store
        if store is None:
            store = TruthVectorStore(
                new_dataset,
                reference,
                memmap_threshold=self.config.memmap_threshold,
            )
            self._vector_store = store
            delta = VectorDelta(
                vectors=store.vectors,
                rebuilt=True,
                rows_changed=True,
                entries_changed=True,
                mask_changed=True,
            )
        else:
            delta = store.advance(new_dataset, engine, reference, fresh)
        vectors = delta.vectors

        # Stage 3 — partition selection.  Reuse is admissible only when
        # every selection input is provably unchanged; otherwise a cold
        # sweep certifies, with the warm probe watching for drift.
        force_all = new_source
        dirty = delta.selection_dirty or (
            tdac.distance == "masked" and delta.mask_changed
        )
        if not dirty and self._prev_silhouettes is not None:
            partition = self._partition
            silhouettes = dict(self._prev_silhouettes)
            fits = self._prev_fits
            self._n_selection_reuses += 1
        else:
            distances = tdac.pairwise_distances(vectors)
            warm = self._warm_probe(vectors, distances)
            partition, silhouettes, fits = tdac.sweep_partition(
                vectors, distances=distances
            )
            if warm is not None:
                if warm == partition:
                    self._n_warm_hits += 1
                else:
                    # Partition structure drifted: the warm probe and
                    # the certified sweep disagree, so no previous block
                    # result is trusted (ISSUE's fallback-to-full).
                    self._n_warm_misses += 1
                    force_all = True

        # Stage 4 — per-block runs, reusing every block whose result
        # provably cannot have changed: same membership, no batch claim
        # on its attributes, same source universe.
        touched = {claim.attribute for claim in fresh}
        prev_results = self._block_results
        results: list[TruthDiscoveryResult | None] = []
        refresh_idx: list[int] = []
        for i, block in enumerate(partition.blocks):
            reusable = (
                not force_all
                and block in prev_results
                and not (touched & set(block))
            )
            if reusable:
                results.append(prev_results[block])
                self._n_blocks_reused += 1
            else:
                results.append(None)
                refresh_idx.append(i)
        refreshed = run_blocks(
            self.base,
            new_dataset,
            [partition.blocks[i] for i in refresh_idx],
            n_jobs=tdac.n_jobs,
            backend=tdac.backend,
            policy=tdac.execution_policy,
            engine=engine,
        )
        for i, result in zip(refresh_idx, refreshed):
            results[i] = result
        self._n_block_refreshes += len(refresh_idx)

        # Stage 5 — TDAC's own merge (claim-count-weighted trust), then
        # honest metadata: max iterations across refreshed blocks and
        # the actual wall-clock of this update.
        merged = tdac._merge(new_dataset, partition, results, started)
        merged = dataclasses.replace(
            merged,
            iterations=max(
                (results[i].iterations for i in refresh_idx), default=1
            ),
        )

        outcome = TDACResult(
            result=merged,
            partition=partition,
            silhouette_by_k=silhouettes,
            reference=reference,
            block_results=tuple(results),
            truth_vectors=vectors,
        )
        self._dataset = new_dataset
        self._engine = engine
        self._partition = partition
        self._block_results = dict(zip(partition.blocks, results))
        self._prev_fits = fits
        self._prev_silhouettes = dict(silhouettes)
        self._last_outcome = outcome
        self._n_delta_updates += 1
        return outcome

    def _fresh_claims(self, batch: list[Claim]) -> list[Claim]:
        """The batch minus duplicates (within itself and vs the corpus)."""
        seen: set[tuple] = set()
        fresh: list[Claim] = []
        for claim in batch:
            key = (claim.source, claim.object, claim.attribute)
            if key in seen:
                continue
            seen.add(key)
            if self._dataset.value(*key) is None:
                fresh.append(claim)
        return fresh

    def _extend_engine(
        self, new_dataset: Dataset, fresh: list[Claim]
    ) -> ClaimIndexEngine | None:
        """Delta-compile the claim engine for the extended dataset.

        Registers the child in the shared registry, so a later full fit
        over the same dataset object also rides the spliced compile.
        Falls back to a cold shared compile when the previous engine
        cannot splice (and to ``None`` when the base algorithm does not
        consume index views).
        """
        if not self.base.supports_index:
            return None
        if self._engine is not None:
            try:
                return self._engine.extended(new_dataset, fresh)
            except ValueError:
                pass
        return ClaimIndexEngine.shared(new_dataset, dtype=self.config.dtype_np)

    def _warm_probe(self, vectors, distances: np.ndarray) -> Partition | None:
        """Partition predicted by warm-starting from the previous sweep.

        Re-runs Lloyd iterations seeded with the previous winning
        centroids (zero-padded to any appended columns) for every ``k``
        within ``warm_window`` of the previously chosen ``k``, scores
        the probe fits with the same silhouette reduction, and applies
        TDAC's tie-break.  Returns ``None`` when no previous sweep fits
        exist (right after a full fit, or a degenerate sweep range).
        """
        prev_fits = self._prev_fits
        if not prev_fits or self._partition is None:
            return None
        data = vectors.matrix.astype(float)
        k_prev = self._partition.n_blocks
        window = range(k_prev - self.warm_window, k_prev + self.warm_window + 1)
        warm_fits = {}
        for k in window:
            prev = prev_fits.get(k)
            if prev is None:
                continue
            centroids = prev.centroids.astype(float)
            if centroids.shape[1] < data.shape[1]:
                pad = np.zeros(
                    (centroids.shape[0], data.shape[1] - centroids.shape[1])
                )
                centroids = np.hstack([centroids, pad])
            warm_fits[k] = lloyd(data, centroids)
        if not warm_fits:
            return None
        warm_sils = score_silhouette_sweep(
            distances, warm_fits, average="macro"
        )
        return TDAC.pick_partition(vectors.attributes, warm_fits, warm_sils)

    # ------------------------------------------------------------------

    def _pin_engine(self) -> None:
        """Hold a strong reference to the current dataset's claim engine.

        The shared-engine registry is weak-keyed on the dataset, so
        without a pin the compiled incidence structure would be garbage
        collected between batches; pinning keeps it warm across
        snapshots for as long as the dataset stays current.  The serving
        layer's refits (both full and incremental mode) run through this
        object, so they inherit the warm state automatically.
        """
        if not self.base.supports_index:
            self._engine = None
        else:
            self._engine = ClaimIndexEngine.shared(
                self._dataset, dtype=self.config.dtype_np
            )

    def _require_fitted(self) -> None:
        if self._dataset is None:
            raise RuntimeError("call fit() before update()")


def extend_dataset(dataset: Dataset, claims: Iterable[Claim]) -> Dataset:
    """Return ``dataset`` plus ``claims`` (one-truth conflicts raise).

    The single claim-accumulation routine shared by the incremental
    engine and the serving layer: identifier declaration order is
    preserved and new identifiers append in claim order, so replaying
    the same claim sequence always rebuilds a fingerprint-identical
    dataset (the property the serving bit-identity guarantee rests on).
    Delegates to :meth:`Dataset.extended`, which validates only the new
    claims — O(batch), not O(corpus).
    """
    return dataset.extended(list(claims))
