"""Evaluation harness: runners, paper-style tables, experiment drivers."""

from repro.evaluation.experiments import (
    PartitionRow,
    figure1_series,
    pairwise_accuracy_series,
    semi_synthetic_experiment,
    standard_suite,
    table4_experiment,
    table5_experiment,
    table8_experiment,
    table9_experiment,
)
from repro.evaluation.analysis import (
    DisagreementProfile,
    TrustCalibration,
    disagreement_profile,
    per_attribute_accuracy,
    trust_calibration,
)
from repro.evaluation.leaderboard import LeaderboardEntry, leaderboard
from repro.evaluation.report import build_report, collect_artifacts, write_report
from repro.evaluation.sweeps import (
    SweepRecord,
    best_configuration,
    parameter_grid,
    sweep,
)
from repro.evaluation.runner import (
    PerformanceRecord,
    record_from_result,
    records_by_algorithm,
    run_algorithm,
    run_suite,
)
from repro.evaluation.tables import (
    PERFORMANCE_HEADER,
    format_table,
    performance_table,
)

__all__ = [
    "PERFORMANCE_HEADER",
    "PartitionRow",
    "PerformanceRecord",
    "SweepRecord",
    "DisagreementProfile",
    "LeaderboardEntry",
    "TrustCalibration",
    "best_configuration",
    "build_report",
    "collect_artifacts",
    "disagreement_profile",
    "figure1_series",
    "format_table",
    "leaderboard",
    "pairwise_accuracy_series",
    "parameter_grid",
    "per_attribute_accuracy",
    "performance_table",
    "record_from_result",
    "records_by_algorithm",
    "run_algorithm",
    "run_suite",
    "semi_synthetic_experiment",
    "standard_suite",
    "sweep",
    "table4_experiment",
    "table5_experiment",
    "table8_experiment",
    "table9_experiment",
    "trust_calibration",
    "write_report",
]
