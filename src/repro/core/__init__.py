"""TD-AC core: truth vectors, attribute partitions, and Algorithm 1.

* :func:`~repro.core.truth_vectors.build_truth_vectors` — Eq. 1;
* :class:`~repro.core.partition.Partition` — canonical attribute
  partitions with Rand / adjusted-Rand comparison (Table 5);
* :class:`~repro.core.tdac.TDAC` — the paper's algorithm;
* :func:`~repro.core.parallel.run_blocks` — per-block execution.
"""

from repro.core.config import (
    RESULT_AFFECTING_FIELDS,
    TDACConfig,
    config_from_dict,
)
from repro.core.explain import (
    CandidateSupport,
    FactExplanation,
    PartitionExplanation,
    explain_fact,
    explain_partition,
)
from repro.core.incremental import IncrementalTDAC, extend_dataset
from repro.core.object_tdac import (
    ObjectTDAC,
    ObjectTDACResult,
    build_object_truth_vectors,
)
from repro.core.parallel import run_blocks
from repro.core.partition import (
    Partition,
    adjusted_rand_index,
    rand_index,
)
from repro.core.schema import (
    RESULT_SCHEMA,
    RESULT_SCHEMA_KEYS,
    result_from_dict,
    result_to_dict,
)
from repro.core.tdac import TDAC, TDACResult
from repro.core.truth_vectors import TruthVectorMatrix, build_truth_vectors

__all__ = [
    "CandidateSupport",
    "FactExplanation",
    "IncrementalTDAC",
    "ObjectTDAC",
    "ObjectTDACResult",
    "Partition",
    "PartitionExplanation",
    "RESULT_AFFECTING_FIELDS",
    "RESULT_SCHEMA",
    "RESULT_SCHEMA_KEYS",
    "TDAC",
    "TDACConfig",
    "TDACResult",
    "TruthVectorMatrix",
    "adjusted_rand_index",
    "build_object_truth_vectors",
    "build_truth_vectors",
    "config_from_dict",
    "explain_fact",
    "explain_partition",
    "extend_dataset",
    "rand_index",
    "result_from_dict",
    "result_to_dict",
    "run_blocks",
]
