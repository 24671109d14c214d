"""Per-attribute-type estimator routing for mixed datasets.

:class:`TypeRouted` lets one dataset mix categorical, continuous and
multi-valued attribute blocks: it splits its input by
``dataset.attribute_type`` and hands each group to the estimator family
that is sound for it — the slot-voting base algorithms for categorical
(and tuple-valued multi) attributes, the continuous CRH/CATD estimators
for numeric ones — then merges predictions and claim-count-weighted
source trust exactly like TD-AC's block merge.

``supports_index`` is False on purpose: the block runners and the
incremental engine already have a Dataset path for meta algorithms
(``dataset.restrict_attributes(block)``), so a ``TDAC(TypeRouted(...))``
pipeline routes *within every block* of the winning partition with no
change to ``TDAC.run`` — reference pass, block runs and merge see one
algorithm.  On an all-categorical dataset the router is the categorical
base verbatim (one group, identical compiled index), so existing
single-truth results are unchanged.
"""

from __future__ import annotations

import time

from repro.algorithms.base import (
    TruthDiscoveryAlgorithm,
    TruthDiscoveryResult,
    merge_by_claim_count,
)
from repro.algorithms.continuous import ContinuousCRH
from repro.algorithms.majority import MajorityVote
from repro.data.dataset import Dataset
from repro.data.index import DatasetIndex
from repro.data.types import (
    CATEGORICAL,
    CONTINUOUS,
    MULTI,
    DataError,
)


class TypeRouted(TruthDiscoveryAlgorithm):
    """Route each attribute-type group to a sound estimator family.

    Parameters
    ----------
    categorical:
        Slot-voting algorithm for categorical attributes (default
        :class:`~repro.algorithms.majority.MajorityVote`).
    continuous:
        Estimator for numeric attributes (default
        :class:`~repro.algorithms.continuous.ContinuousCRH`).
    multi:
        Algorithm for multi-valued (tuple) attributes; defaults to the
        categorical algorithm, i.e. full-set voting among claimed tuples.
    """

    supports_index = False
    value_types = frozenset({CATEGORICAL, CONTINUOUS, MULTI})

    def __init__(
        self,
        categorical: TruthDiscoveryAlgorithm | None = None,
        continuous: TruthDiscoveryAlgorithm | None = None,
        multi: TruthDiscoveryAlgorithm | None = None,
    ) -> None:
        self.categorical = (
            categorical if categorical is not None else MajorityVote()
        )
        self.continuous = (
            continuous if continuous is not None else ContinuousCRH()
        )
        self.multi = multi if multi is not None else self.categorical
        for kind, algorithm in (
            (CATEGORICAL, self.categorical),
            (CONTINUOUS, self.continuous),
            (MULTI, self.multi),
        ):
            if kind not in algorithm.value_types:
                raise DataError(
                    f"{algorithm.name} does not support {kind} attributes"
                )
        self.name = (
            f"Routed[{self.categorical.name}|{self.continuous.name}]"
        )

    def discover(self, data: Dataset | DatasetIndex) -> TruthDiscoveryResult:
        if isinstance(data, DatasetIndex):
            # A sliced block index keeps a reference to the *full*
            # dataset, so the restricted claim set cannot be recovered
            # here; block runners hand meta algorithms Datasets.
            raise TypeError(
                "TypeRouted routes over Datasets; pass the dataset, "
                "not a compiled index"
            )
        start = time.perf_counter()
        # Group attribute-type families by estimator object so
        # categorical + multi (same voter by default) stay one run.
        plan: list[tuple[TruthDiscoveryAlgorithm, list]] = []
        by_algorithm: dict[int, int] = {}
        for kind, algorithm in (
            (CATEGORICAL, self.categorical),
            (MULTI, self.multi),
            (CONTINUOUS, self.continuous),
        ):
            attrs = data.attributes_of_type(kind)
            if not attrs:
                continue
            slot = by_algorithm.get(id(algorithm))
            if slot is None:
                by_algorithm[id(algorithm)] = len(plan)
                plan.append((algorithm, list(attrs)))
            else:
                plan[slot][1].extend(attrs)
        if not plan:
            raise DataError("cannot route a dataset with no claims")
        group_results: list[tuple[list, TruthDiscoveryResult]] = []
        for algorithm, attrs in plan:
            # Attribute order within a merged group must follow dataset
            # order (restrict_attributes re-orders, but keep the call
            # canonical for cache keys).
            rank = {a: i for i, a in enumerate(data.attributes)}
            attrs = sorted(attrs, key=rank.__getitem__)
            sub = (
                data
                if len(attrs) == len(data.attributes)
                else data.restrict_attributes(attrs)
            )
            group_results.append((attrs, algorithm.discover(sub)))
        # The same aggregation as TD-AC's block merge, so a routed base
        # under ``TDAC.run`` composes without a second convention.
        return merge_by_claim_count(
            data,
            group_results,
            algorithm=self.name,
            iterations=max(result.iterations for _, result in group_results),
            start=start,
            extras={
                "routed": {
                    kind: algorithm.name
                    for kind, algorithm in (
                        (CATEGORICAL, self.categorical),
                        (CONTINUOUS, self.continuous),
                        (MULTI, self.multi),
                    )
                }
            },
        )


    def _solve(self, index):  # pragma: no cover - discover() is overridden
        raise NotImplementedError(
            "TypeRouted overrides discover(); _solve is never called"
        )
