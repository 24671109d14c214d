"""The per-block truth discovery passes of Algorithm 1's step 4.

Blocks of a partition are independent sub-problems: the base algorithm
runs once per block and the partial truths are concatenated.  They run
one after another; the paper's hope of a parallel speed-up does not
survive measurement here (DESIGN.md §5k), so there is one sequential
path.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.types import AttributeId
from repro.observability import current_tracer


def run_blocks(
    algorithm: TruthDiscoveryAlgorithm,
    dataset: Dataset,
    blocks: Iterable[tuple[AttributeId, ...]],
    engine: ClaimIndexEngine | None = None,
) -> list[TruthDiscoveryResult]:
    """Run ``algorithm`` on every block of ``blocks``, in block order.

    ``blocks`` is any iterable of attribute tuples — a whole
    :class:`~repro.core.partition.Partition` (which iterates its
    blocks), or the subset of its blocks a delta refit must re-solve.
    Returns one result per block; the stage is traced as ``block_runs``
    by the ambient tracer.

    Block inputs come from a shared :class:`ClaimIndexEngine`: each block
    is a sliced view of the dataset's one compiled index (bit-identical
    to compiling ``dataset.restrict_attributes(block)``, see the engine's
    docs), so no per-block dataset rebuild happens.  ``engine`` lets
    callers that already hold one (TDAC, the serving layer) pass it in;
    ``None`` uses the dataset's shared engine.  Algorithms that cannot
    consume index views (``supports_index = False``) get the restricted
    dataset instead.
    """
    blocks = list(blocks)
    with current_tracer().span("block_runs", n_blocks=len(blocks)):
        if not algorithm.supports_index:
            return [
                algorithm.discover(dataset.restrict_attributes(block))
                for block in blocks
            ]
        if engine is None:
            engine = ClaimIndexEngine.shared(dataset)
        return [
            algorithm.discover(engine.block_index(block)) for block in blocks
        ]
