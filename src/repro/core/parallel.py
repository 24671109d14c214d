"""Parallel execution of the per-block truth discovery passes.

The paper's second research perspective is to "propose an optimization of
the running time ... by using parallel computation".  Blocks of a
partition are independent sub-problems, so step 4 of Algorithm 1 is
embarrassingly parallel.  The generic fan-out machinery (thread / process
executors, order-preserving gather) lives in :mod:`repro.execution` and
is shared with the k-sweep of :mod:`repro.clustering.sweep`; this module
applies it to block datasets.

Threads are the default backend: the heavy lifting inside the algorithms
happens in numpy / scipy kernels that release the GIL, and threads avoid
re-pickling the dataset per block.  ``backend="processes"`` is available
for Python-bound base algorithms.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.base import TruthDiscoveryAlgorithm, TruthDiscoveryResult
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.index import DatasetIndex
from repro.data.types import AttributeId
from repro.execution import (  # noqa: F401  (re-exported for callers)
    BACKENDS,
    ExecutionPolicy,
    make_executor,
    ordered_map,
    validate_backend,
)
from repro.observability import current_tracer


def _discover(
    algorithm: TruthDiscoveryAlgorithm, data: Dataset | DatasetIndex
) -> TruthDiscoveryResult:
    """Module-level trampoline so the process backend can pickle it."""
    return algorithm.discover(data)


def run_blocks(
    algorithm: TruthDiscoveryAlgorithm,
    dataset: Dataset,
    blocks: Iterable[tuple[AttributeId, ...]],
    n_jobs: int = 1,
    backend: str = "threads",
    policy: ExecutionPolicy | None = None,
    engine: ClaimIndexEngine | None = None,
) -> list[TruthDiscoveryResult]:
    """Run ``algorithm`` on every block of ``blocks``.

    ``blocks`` is any iterable of attribute tuples — a whole
    :class:`~repro.core.partition.Partition` (which iterates its
    blocks), or the subset of its blocks a delta refit must re-solve.
    Returns one result per block, in block order.  ``n_jobs=1`` runs
    sequentially; larger values fan the blocks out over the requested
    executor backend.  Results are gathered in block order, so the
    merged output is identical whatever ``n_jobs`` and ``backend``.
    ``policy`` governs retry / fallback on worker failure; the stage is
    traced as ``block_runs`` by the ambient tracer.

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
            tasks: list[Dataset | DatasetIndex] = [
                dataset.restrict_attributes(block) for block in blocks
            ]
        else:
            if engine is None:
                engine = ClaimIndexEngine.shared(dataset)
            tasks = [engine.block_index(block) for block in blocks]
        return ordered_map(
            _discover,
            [(algorithm, task) for task in tasks],
            n_jobs=n_jobs,
            backend=backend,
            policy=policy,
            label="block_runs",
        )
