"""Data model for multi-source claim datasets (the paper's (S, A, O) triplet).

Public surface:

* :class:`~repro.data.types.Claim`, :class:`~repro.data.types.Fact` — value
  types;
* :class:`~repro.data.dataset.Dataset` — immutable claim container;
* :class:`~repro.data.builder.DatasetBuilder` — incremental construction;
* :class:`~repro.data.index.DatasetIndex` — compiled numeric view used by
  the algorithm engine;
* :func:`~repro.data.stats.data_coverage_rate` and
  :func:`~repro.data.stats.dataset_stats` — Table 8 statistics;
* :mod:`~repro.data.io` — JSON / CSV serialisation.
"""

from repro.data.builder import DatasetBuilder
from repro.data.claim_engine import ClaimIndexEngine
from repro.data.dataset import Dataset
from repro.data.index import DatasetIndex
from repro.data.io import (
    dataset_from_dict,
    dataset_to_dict,
    load_claims_jsonl,
    load_csv,
    load_json,
    save_claims_csv,
    save_claims_jsonl,
    save_json,
    save_truth_csv,
)
from repro.data.normalize import (
    NormalizationReport,
    UnionFind,
    canonicalize_fact_values,
    normalize_dataset,
)
from repro.data.sampling import thin_coverage
from repro.data.stats import DatasetStats, data_coverage_rate, dataset_stats
from repro.data.types import (
    ATTRIBUTE_TYPES,
    CATEGORICAL,
    CONTINUOUS,
    MULTI,
    AttributeId,
    Claim,
    DataError,
    Fact,
    GroundTruthError,
    ObjectId,
    SourceId,
    Value,
    validate_attribute_type,
)

__all__ = [
    "ATTRIBUTE_TYPES",
    "CATEGORICAL",
    "CONTINUOUS",
    "MULTI",
    "AttributeId",
    "Claim",
    "ClaimIndexEngine",
    "DataError",
    "Dataset",
    "DatasetBuilder",
    "DatasetIndex",
    "DatasetStats",
    "Fact",
    "GroundTruthError",
    "NormalizationReport",
    "ObjectId",
    "SourceId",
    "Value",
    "UnionFind",
    "canonicalize_fact_values",
    "data_coverage_rate",
    "dataset_from_dict",
    "dataset_stats",
    "dataset_to_dict",
    "load_claims_jsonl",
    "load_csv",
    "load_json",
    "normalize_dataset",
    "save_claims_csv",
    "save_claims_jsonl",
    "save_json",
    "save_truth_csv",
    "thin_coverage",
    "validate_attribute_type",
]
