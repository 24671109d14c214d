"""Per-claim loop oracle of Eq. 1's ``build_truth_vectors``.

:func:`build_truth_vectors_loop` is the Eq. 1 construction the
slot-level one replaced: one pass over the raw claims, each compared
with its fact's reference prediction, collecting (row, column,
confirmed) triplets that fill the matrix and the mask.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.core.truth_vectors import TruthVectorMatrix
from repro.data.dataset import Dataset


def build_truth_vectors_loop(
    dataset: Dataset,
    reference: TruthDiscoveryResult | TruthDiscoveryAlgorithm,
) -> TruthVectorMatrix:
    """The Eq. 1 matrix, mask and ranks by the per-claim loop."""
    if isinstance(reference, TruthDiscoveryAlgorithm):
        reference = reference.discover(dataset)
    objects = dataset.objects
    sources = dataset.sources
    attributes = dataset.attributes
    n_sources = len(sources)
    row_of = {a: i for i, a in enumerate(attributes)}
    column_base = {o: i * n_sources for i, o in enumerate(objects)}
    source_index = {s: i for i, s in enumerate(sources)}
    truth_of = {
        (fact.object, fact.attribute): value
        for fact, value in reference.predictions.items()
    }

    rows: list[int] = []
    columns: list[int] = []
    confirmed: list[bool] = []
    for (s, o, a), value in dataset.claims.items():
        rows.append(row_of[a])
        columns.append(column_base[o] + source_index[s])
        truth = truth_of.get((o, a))
        confirmed.append(truth is not None and value == truth)

    row_idx = np.asarray(rows, dtype=np.intp)
    col_idx = np.asarray(columns, dtype=np.intp)
    hit = np.asarray(confirmed, dtype=bool)
    shape = (len(attributes), len(objects) * n_sources)
    matrix = np.zeros(shape, dtype=np.int8)
    mask = np.zeros(shape, dtype=bool)
    mask[row_idx, col_idx] = True
    matrix[row_idx[hit], col_idx[hit]] = 1
    return TruthVectorMatrix(
        matrix=matrix,
        mask=mask,
        attributes=attributes,
        ranks=tuple((o, s) for o in objects for s in sources),
    )
