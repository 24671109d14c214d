"""Per-fact loop oracle of the :class:`~repro.data.index.DatasetIndex` compile.

:func:`dataset_index_loop` is the compile the vectorised
``DatasetIndex.__init__`` replaced: walk ``dataset.claims_by_fact`` fact
by fact, number each fact's distinct values in first-appearance (source)
order with a per-fact dict, and record the slot of the ground truth.  It
has ``__init__``'s signature, so :func:`tests.oracles.reference_kernels`
patches it in as the constructor, and tests compare every array it
builds against the vectorised compile.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.index import _KEY_SHIFT, DatasetIndex
from repro.data.types import Value


def dataset_index_loop(index: DatasetIndex, dataset: Dataset) -> None:
    """Fill ``index`` from ``dataset`` with the per-fact compile loop."""
    index._dataset = dataset
    facts = dataset.facts
    index.facts = facts
    index.n_sources = len(dataset.sources)
    index.n_facts = len(facts)
    index._source_id = {s: i for i, s in enumerate(dataset.sources)}

    slot_values: list[Value] = []
    slot_fact: list[int] = []
    fact_slot_start = [0]
    claim_source: list[int] = []
    claim_fact: list[int] = []
    claim_slot: list[int] = []
    true_slot = np.full(index.n_facts, -1, dtype=np.int64)

    by_fact = dataset.claims_by_fact
    for f_id, fact in enumerate(facts):
        local: dict[Value, int] = {}
        for claim in by_fact[fact]:
            slot = local.get(claim.value)
            if slot is None:
                slot = len(slot_values)
                local[claim.value] = slot
                slot_values.append(claim.value)
                slot_fact.append(f_id)
            claim_source.append(index._source_id[claim.source])
            claim_fact.append(f_id)
            claim_slot.append(slot)
        fact_slot_start.append(len(slot_values))
        truth = dataset.true_value(fact)
        if truth is not None and truth in local:
            true_slot[f_id] = local[truth]

    obj_rank = {o: i for i, o in enumerate(dataset.objects)}
    attr_rank = {a: i for i, a in enumerate(dataset.attributes)}
    index._fact_keys = np.fromiter(
        (
            (obj_rank[fact.object] << _KEY_SHIFT) | attr_rank[fact.attribute]
            for fact in facts
        ),
        dtype=np.int64,
        count=len(facts),
    )
    index.slot_values = tuple(slot_values)
    index.slot_fact = np.asarray(slot_fact, dtype=np.int64)
    index.fact_slot_start = np.asarray(fact_slot_start, dtype=np.int64)
    index.claim_source = np.asarray(claim_source, dtype=np.int64)
    index.claim_fact = np.asarray(claim_fact, dtype=np.int64)
    index.claim_slot = np.asarray(claim_slot, dtype=np.int64)
    index.true_slot = true_slot
    index.n_slots = len(slot_values)
    index.n_claims = len(claim_source)
