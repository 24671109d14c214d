"""Attribute truth vectors (Section 3.1, Equation 1).

The attribute truth vector of attribute ``a`` is a binary vector with one
rank per (object, source) pair::

    x(a, o, s) = 1  iff  s claims a value for (o, a) and that value equals
                         the reference truth v_F(o, a)

where the reference truth is the prediction of a *base* truth discovery
algorithm run once over the whole dataset.  Attributes whose vectors are
close in Hamming distance are exactly the attributes on which sources
exhibit the same reliability profile — the paper's notion of structural
correlation — which is what TD-AC clusters.

:class:`TruthVectorMatrix` also carries the observation mask (which ranks
were actually covered by a claim), enabling the missing-data-aware
distance of the paper's first research perspective.

:func:`build_truth_vectors` works on the dataset's compiled claim index:
all claims of one value slot carry one value, so each slot is compared
with the reference once and its claims inherit the verdict.
``tests/oracles/truth_vectors.py`` keeps the per-claim loop it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.index import _KEY_SHIFT, _RANK_MASK, DatasetIndex
from repro.data.types import AttributeId, ObjectId, SourceId


@dataclass(frozen=True)
class TruthVectorMatrix:
    """The matrix of attribute truth vectors for one dataset.

    Attributes
    ----------
    matrix:
        ``(n_attributes, n_objects * n_sources)`` binary array; row ``i``
        is the truth vector of ``attributes[i]``.
    mask:
        Same shape; ``True`` where the (object, source) rank is actually
        covered by a claim.  ``matrix`` is 0 wherever ``mask`` is False
        (Eq. 1 treats missing claims as "not confirmed").
    attributes:
        Row labels.
    ranks:
        Column labels as (object, source) pairs, object-major.
    """

    matrix: np.ndarray
    mask: np.ndarray
    attributes: tuple[AttributeId, ...]
    ranks: tuple[tuple[ObjectId, SourceId], ...]

    @property
    def n_attributes(self) -> int:
        """Number of rows (attributes)."""
        return len(self.attributes)

    def vector(self, attribute: AttributeId) -> np.ndarray:
        """The truth vector of one attribute."""
        try:
            row = self.attributes.index(attribute)
        except ValueError:
            raise KeyError(f"unknown attribute {attribute!r}") from None
        return self.matrix[row]

    def density(self) -> float:
        """Fraction of observed ranks (1 means no missing data)."""
        return float(self.mask.mean()) if self.mask.size else 0.0


def _write_eq1(
    index: DatasetIndex,
    predictions,
    matrix: np.ndarray,
    mask: np.ndarray,
    facts: np.ndarray | None = None,
) -> bool:
    """Write the Eq. 1 cells of the claims of ``facts`` (all if None).

    ``facts`` is a boolean mask over the facts of ``index``, a full
    index.  Each of their slots is compared once with its fact's
    prediction (``pred is not None and value == pred``), and each claim
    writes its slot's verdict at row ``attr_rank``, column ``obj_rank *
    n_sources + claim_source``.  Returns whether a written cell changed.
    """
    if facts is None:
        slots, claims = np.arange(index.n_slots), slice(None)
        fact_pred = list(map(predictions.get, index.facts))
    else:
        ids = np.flatnonzero(facts).tolist()
        slots = np.flatnonzero(facts[index.slot_fact])
        claims = facts[index.claim_fact]
        fact_pred = dict(
            zip(ids, map(predictions.get, map(index.facts.__getitem__, ids)))
        )
    confirmed = np.zeros(index.n_slots, dtype=bool)
    confirmed[slots] = np.fromiter(
        (
            pred is not None and value == pred
            for value, pred in zip(
                map(index.slot_values.__getitem__, slots.tolist()),
                map(fact_pred.__getitem__, index.slot_fact[slots].tolist()),
            )
        ),
        dtype=bool,
        count=len(slots),
    )
    claim_key = index._fact_keys[index.claim_fact[claims]]
    columns = (claim_key >> _KEY_SHIFT) * index.n_sources
    cells = (claim_key & _RANK_MASK, columns + index.claim_source[claims])
    hit = confirmed[index.claim_slot[claims]]
    # Distinct claims write distinct cells: compare, then write.
    changed = not np.array_equal(matrix[cells], hit)
    matrix[cells] = hit
    mask[cells] = True
    return changed


def build_truth_vectors(
    dataset: Dataset,
    reference: TruthDiscoveryResult | TruthDiscoveryAlgorithm,
) -> TruthVectorMatrix:
    """Compute the matrix of attribute truth vectors (Eq. 1).

    ``reference`` is either a base algorithm (run here on the full
    dataset) or an already-computed result, so TD-AC can reuse one base
    run for both the vectors and comparison reporting.

    The cells come from the dataset's compiled claim index
    (:meth:`ClaimIndexEngine.shared`), so a TD-AC pass reuses the index
    its reference pass ran on; :func:`_write_eq1` writes every claim's
    cell.
    """
    if isinstance(reference, TruthDiscoveryAlgorithm):
        reference = reference.discover(dataset)
    objects = dataset.objects
    sources = dataset.sources
    shape = (len(dataset.attributes), len(objects) * len(sources))
    matrix = np.zeros(shape, dtype=np.int8)
    mask = np.zeros(shape, dtype=bool)
    _write_eq1(
        ClaimIndexEngine.shared(dataset).full_index,
        reference.predictions,
        matrix,
        mask,
    )
    ranks = tuple((o, s) for o in objects for s in sources)
    return TruthVectorMatrix(
        matrix=matrix, mask=mask, attributes=dataset.attributes, ranks=ranks
    )


@dataclass(frozen=True)
class VectorDelta:
    """Outcome of one :meth:`TruthVectorStore.advance`.

    ``vectors`` is the matrix for the advanced dataset; the store never
    writes it again.  The change flags drive the exact selection-reuse
    decision upstream: appended all-zero columns (new objects) provably
    leave every pairwise attribute distance — and hence the certified
    partition and its silhouettes — unchanged, so only ``rows_changed``
    / ``entries_changed`` (and ``mask_changed`` under the masked
    distance) invalidate a previous selection.
    """

    vectors: TruthVectorMatrix
    rebuilt: bool
    rows_changed: bool
    entries_changed: bool
    mask_changed: bool

    @property
    def selection_dirty(self) -> bool:
        """Whether the plain-Hamming selection inputs changed at all."""
        return self.rebuilt or self.rows_changed or self.entries_changed


class TruthVectorStore:
    """Incrementally maintained attribute truth-vector matrix (Eq. 1).

    Each :meth:`advance` returns a new matrix and mask at the extended
    shape: the previous ones are copied in (new attributes append rows,
    new objects append zero column groups), and only facts whose
    reference prediction changed — plus facts receiving new claims — have
    their cells rewritten.  The result is cell-for-cell identical to
    :func:`build_truth_vectors` over the same dataset and reference
    (``tests/test_incremental_exact.py`` pins this), and no matrix the
    store was seeded with or returned is ever written again.

    A batch that introduces a new *source* interleaves a column into
    every object's group (columns are object-major), so the store falls
    back to a full rebuild for it.

    The store is seeded with ``vectors``, the matrix already built for
    ``dataset`` and ``reference`` (a fit's own).
    """

    def __init__(
        self,
        dataset: Dataset,
        reference: TruthDiscoveryResult,
        vectors: TruthVectorMatrix,
    ) -> None:
        self.rebuilds = 0
        self.patches = 0
        self._dataset = dataset
        self._reference = reference
        self._vectors = vectors

    def advance(
        self,
        dataset: Dataset,
        engine,
        reference: TruthDiscoveryResult,
        fresh: list,
    ) -> VectorDelta:
        """The matrix for ``dataset`` = previous dataset + ``fresh``.

        ``engine`` is the (delta-compiled) claim-index engine of
        ``dataset``; ``reference`` is the fresh reference pass over the
        full extended corpus.  Returns a new matrix plus precise change
        flags.  Falls back to :func:`build_truth_vectors` when no engine
        is available or the source universe grew.
        """
        previous = self._vectors
        n_sources = len(dataset.sources)
        rebuilt = engine is None or n_sources != len(self._dataset.sources)
        if rebuilt:
            self._vectors = build_truth_vectors(dataset, reference)
            self.rebuilds += 1
            rows_changed = entries_changed = True
        else:
            # Facts receiving batch claims, facts whose prediction changed,
            # and facts that lost theirs (a fact without one confirms
            # nothing).  Sets of exact dicts compare by stored hashes.
            old_truth = self._reference.predictions
            new_truth = reference.predictions
            changed = {
                fact for fact, value in new_truth.items()
                if old_truth.get(fact) != value
            }
            changed.update(set(old_truth).difference(new_truth))
            # Facts and claims both name their object and attribute.
            obj_rank, attr_rank = engine._ranks[1:]
            keys = np.fromiter(
                (
                    (obj_rank[f.object] << _KEY_SHIFT) | attr_rank[f.attribute]
                    for f in chain(changed, fresh)
                ),
                dtype=np.int64,
            )
            shape = (len(dataset.attributes), len(dataset.objects) * n_sources)
            matrix = np.zeros(shape, dtype=np.int8)
            mask = np.zeros(shape, dtype=bool)
            n_rows, n_cols = previous.matrix.shape
            matrix[:n_rows, :n_cols] = previous.matrix
            mask[:n_rows, :n_cols] = previous.mask
            index = engine.full_index
            entries_changed = _write_eq1(
                index, new_truth, matrix, mask, np.isin(index._fact_keys, keys)
            )
            old_objects = len(self._dataset.objects)
            self._vectors = TruthVectorMatrix(
                matrix=matrix,
                mask=mask,
                attributes=dataset.attributes,
                ranks=previous.ranks + tuple(
                    (o, s)
                    for o in dataset.objects[old_objects:]
                    for s in dataset.sources
                ),
            )
            rows_changed = n_rows != len(dataset.attributes)
            self.patches += 1
        self._dataset = dataset
        self._reference = reference
        return VectorDelta(
            vectors=self._vectors,
            rebuilt=rebuilt,
            rows_changed=rows_changed,
            entries_changed=entries_changed,
            mask_changed=rebuilt or bool(fresh),
        )
