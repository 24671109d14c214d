"""Evaluation metrics: claim-level confusion, partition quality, timing."""

from repro.metrics.classification import (
    ConfusionCounts,
    EvaluationReport,
    confusion_counts,
    evaluate_predictions,
    fact_accuracy,
    report_from_counts,
    source_accuracy,
    tolerant_fact_accuracy,
)
from repro.metrics.typed import (
    TypedEvaluationReport,
    evaluate_typed,
    set_confusion_counts,
    tolerant_confusion_counts,
    typed_fact_accuracy,
)
from repro.metrics.partition_quality import (
    PartitionAgreement,
    compare_partitions,
    is_refinement,
)
from repro.metrics.timing import Stopwatch, Timer

__all__ = [
    "ConfusionCounts",
    "EvaluationReport",
    "PartitionAgreement",
    "Stopwatch",
    "Timer",
    "TypedEvaluationReport",
    "compare_partitions",
    "confusion_counts",
    "evaluate_predictions",
    "evaluate_typed",
    "fact_accuracy",
    "is_refinement",
    "report_from_counts",
    "set_confusion_counts",
    "source_accuracy",
    "tolerant_confusion_counts",
    "tolerant_fact_accuracy",
    "typed_fact_accuracy",
]
