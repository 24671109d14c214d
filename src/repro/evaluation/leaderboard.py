"""Leaderboard: every registered algorithm on one dataset, ranked.

The first question a practitioner asks of a new corpus is "which
algorithm should I even use here?".  :func:`leaderboard` answers it by
running the whole registry (optionally TD-AC-wrapped as well), ranking
by accuracy and reporting the ranking in the paper's table layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.algorithms.registry import available, capability_gap, create
from repro.core.config import TDACConfig
from repro.core.tdac import TDAC
from repro.data.dataset import Dataset
from repro.evaluation.runner import PerformanceRecord, run_algorithm


@dataclass(frozen=True)
class LeaderboardEntry:
    """One ranked row of a leaderboard."""

    rank: int
    record: PerformanceRecord

    def as_row(self) -> tuple:
        return (self.rank,) + self.record.as_row()


@dataclass(frozen=True)
class SkippedAlgorithm:
    """An algorithm excluded from a leaderboard, and why."""

    algorithm: str
    reason: str


def suite_records(
    dataset: Dataset,
    include_tdac: bool = True,
    algorithms: Sequence[str] | None = None,
    seed: int = 0,
    config: TDACConfig | None = None,
    skipped: list[SkippedAlgorithm] | None = None,
) -> list[PerformanceRecord]:
    """Run the registry on ``dataset``, in roster order, unranked.

    ``algorithms`` restricts to a subset of registry names; by default
    every registered algorithm runs, each optionally also wrapped in
    TD-AC under ``config`` (``seed`` is honored only when no config is
    given).

    Algorithms whose declared value types do not cover the dataset's
    attribute types are skipped, never run: a continuous estimator on a
    categorical corpus (or a slot voter on numeric data) would produce
    garbage, not a ranking.  Pass a list as ``skipped`` to collect one
    :class:`SkippedAlgorithm` per exclusion, with the reason.
    """
    tdac_config = config if config is not None else TDACConfig(seed=seed)
    names = tuple(algorithms) if algorithms is not None else available()
    records: list[PerformanceRecord] = []
    for name in names:
        base = create(name)
        gap = capability_gap(base, dataset)
        if gap is not None:
            if skipped is not None:
                skipped.append(SkippedAlgorithm(algorithm=name, reason=gap))
            continue
        records.append(run_algorithm(base, dataset))
        if include_tdac:
            records.append(
                run_algorithm(TDAC(create(name), config=tdac_config), dataset)
            )
    return records


def leaderboard(
    dataset: Dataset,
    include_tdac: bool = True,
    algorithms: Sequence[str] | None = None,
    seed: int = 0,
    config: TDACConfig | None = None,
    skipped: list[SkippedAlgorithm] | None = None,
) -> list[LeaderboardEntry]:
    """:func:`suite_records` ranked by accuracy.

    Ties rank by precision, then by wall time (faster first).  The
    arguments, including the capability skip, are
    :func:`suite_records`'.
    """
    records = suite_records(
        dataset, include_tdac, algorithms, seed, config, skipped
    )
    ranked = sorted(
        records,
        key=lambda r: (-r.accuracy, -r.precision, r.elapsed_seconds),
    )
    return [
        LeaderboardEntry(rank=i + 1, record=record)
        for i, record in enumerate(ranked)
    ]
