"""Dataset subsampling for coverage sweeps.

The paper's main qualitative finding is that TD-AC's advantage grows
with the Data Coverage Rate.  To turn that observation into a proper
curve (ablation A-5) we need the *same* dataset at several coverage
levels: :func:`thin_coverage` removes a random fraction of the claims
while guaranteeing every fact keeps at least one claim, so the fact set
(and hence the evaluation denominator) is stable across the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.data.builder import DatasetBuilder
from repro.data.dataset import Dataset


def thin_coverage(
    dataset: Dataset, keep_fraction: float, seed: int = 0
) -> Dataset:
    """Randomly drop claims down to ``keep_fraction`` of the original.

    Every fact keeps at least one claim so the fact universe (and the
    evaluation denominators) stay comparable across coverage levels.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    builder = DatasetBuilder(
        name=f"{dataset.name} (coverage x{keep_fraction:.2f})"
    )
    builder.declare_sources(dataset.sources)
    builder.declare_objects(dataset.objects)
    builder.declare_attributes(dataset.attributes)
    builder.set_truths(dataset.truth)
    for fact, claims in dataset.claims_by_fact.items():
        keep = rng.random(len(claims)) < keep_fraction
        if not keep.any():
            keep[int(rng.integers(len(claims)))] = True
        for claim, kept in zip(claims, keep):
            if kept:
                builder.add_claim(
                    claim.source, claim.object, claim.attribute, claim.value
                )
    return builder.build()
