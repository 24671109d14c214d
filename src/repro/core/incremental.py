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
  partition and silhouettes are reused; otherwise the cold sweep of
  :meth:`TDAC.select_partition` re-certifies;
* blocks are recomputed only when their result could differ: their
  membership changed, a batch claim touched one of their attributes, or
  the source universe grew (per-block trust vectors span all sources).
  Untouched blocks with identical membership provably solve to the
  identical result and are reused;
* the merge reuses :meth:`TDAC._merge` verbatim, so the claim-count
  weighting — and therefore the merged trust arithmetic and the
  single-pass iteration count — matches the offline pipeline bit for
  bit.

:meth:`IncrementalTDAC.fit` runs Algorithm 1 once and seeds this state
from its own outcome; every :meth:`IncrementalTDAC.update` after it
takes the one delta path, whatever the batch size: it is exact at any
size, so there is nothing to tune.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
# Unused here, but kept: profilers wrap these two names on this module.
from repro.clustering.kmeans import lloyd  # noqa: F401
from repro.clustering.kselect import score_silhouette_sweep  # noqa: F401
from repro.core.config import TDACConfig
from repro.core.parallel import run_blocks
from repro.core.partition import Partition
from repro.core.tdac import TDAC, TDACResult
from repro.core.truth_vectors import TruthVectorStore
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.types import Claim


class IncrementalTDAC:
    """Streaming wrapper around :class:`~repro.core.tdac.TDAC`.

    Parameters
    ----------
    base:
        Base algorithm for both the initial fit and block refreshes.
    config:
        :class:`~repro.core.config.TDACConfig` for the underlying
        :class:`TDAC` (``None`` means all defaults).
    """

    def __init__(
        self,
        base: TruthDiscoveryAlgorithm,
        config: TDACConfig | None = None,
    ) -> None:
        self.base = base
        self._tdac = TDAC(base, config=config)
        self._dataset: Dataset | None = None
        self._last_outcome: TDACResult | None = None
        self._vector_store: TruthVectorStore | None = None
        self._n_full_fits = 0
        self._n_block_refreshes = 0
        self._n_blocks_reused = 0
        self._n_delta_updates = 0
        self._n_selection_reuses = 0

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
        return self._last_outcome.partition

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
            "delta_updates": self._n_delta_updates,
            "blocks_reused": self._n_blocks_reused,
            "selection_reuses": self._n_selection_reuses,
            "vector_rebuilds": store.rebuilds if store is not None else 0,
            "vector_patches": store.patches if store is not None else 0,
        }

    # ------------------------------------------------------------------

    def fit(self, dataset: Dataset) -> TDACResult:
        """Full TD-AC fit of the initial corpus; seeds the delta state.

        The fit's own outcome is the state every :meth:`update` starts
        from: the truth-vector store patches a copy of its Eq. 1
        matrix, and its partition, silhouettes and block results are
        what the first update may reuse.  Reuse after a fit is exact
        for the same reason as reuse after an update — the selection
        inputs were certified on that very matrix.
        """
        outcome = self._tdac.run(dataset)
        self._dataset = dataset
        self._last_outcome = outcome
        self._vector_store = TruthVectorStore(
            dataset, outcome.reference, outcome.truth_vectors
        )
        self._n_full_fits += 1
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
        return self._delta_update(
            new_dataset, self._fresh_claims(batch), started
        )

    # ------------------------------------------------------------------
    # The exact delta path
    # ------------------------------------------------------------------

    def _delta_update(
        self, new_dataset: Dataset, fresh: list[Claim], started: float
    ) -> TDACResult:
        tdac = self._tdac
        previous = self._last_outcome
        new_source = len(new_dataset.sources) != len(self._dataset.sources)
        engine = self._extend_engine(new_dataset, fresh)

        # Stage 1 — reference pass.  Source trust is globally coupled
        # (and the discovery tie-breaker is seeded by the view's slot
        # count), so the reference is recomputed over the extended
        # corpus; the delta-compiled index keeps that pass cheap.
        reference = tdac.reference_pass(new_dataset, engine)

        # Stage 2 — Eq. 1 matrix, patched in place.
        delta = self._vector_store.advance(
            new_dataset, engine, reference, fresh
        )
        vectors = delta.vectors

        # Stage 3 — partition selection.  Reuse is admissible only when
        # every selection input is provably unchanged; otherwise a cold
        # sweep certifies.
        dirty = delta.selection_dirty or (
            tdac.config.distance == "masked" and delta.mask_changed
        )
        if not dirty:
            partition = previous.partition
            silhouettes = dict(previous.silhouette_by_k)
            self._n_selection_reuses += 1
        else:
            partition, silhouettes = tdac.select_partition(vectors)

        # Stage 4 — per-block runs, reusing every block whose result
        # provably cannot have changed: same membership, no batch claim
        # on its attributes, same source universe.
        touched = {claim.attribute for claim in fresh}
        prev_results = dict(
            zip(previous.partition.blocks, previous.block_results)
        )
        results: list[TruthDiscoveryResult | None] = []
        refresh_idx: list[int] = []
        for i, block in enumerate(partition.blocks):
            reusable = (
                not new_source
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
            engine=engine,
        )
        for i, result in zip(refresh_idx, refreshed):
            results[i] = result
        self._n_block_refreshes += len(refresh_idx)

        # Stage 5 — TDAC's own merge (claim-count-weighted trust and
        # the single-pass iteration count), timed from this update.
        merged = tdac._merge(new_dataset, partition, results, started)
        outcome = TDACResult(
            result=merged,
            partition=partition,
            silhouette_by_k=silhouettes,
            reference=reference,
            block_results=tuple(results),
            # The store patches its buffers in place on the next update;
            # a published result must not change under its holder.
            truth_vectors=dataclasses.replace(
                vectors, matrix=vectors.matrix.copy(), mask=vectors.mask.copy()
            ),
        )
        self._dataset = new_dataset
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

        The current dataset owns its engine (:meth:`ClaimIndexEngine.
        shared`), and the spliced child becomes the extended dataset's
        own engine, so a later full fit over the same dataset object
        also rides the spliced compile.  Falls back to a cold compile
        when the engine cannot splice (and to ``None`` when the base
        algorithm does not consume index views).
        """
        if not self.base.supports_index:
            return None
        try:
            return ClaimIndexEngine.shared(self._dataset).extended(
                new_dataset, fresh
            )
        except ValueError:
            return ClaimIndexEngine.shared(new_dataset)

    # ------------------------------------------------------------------

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
