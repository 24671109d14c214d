"""A-4 — Ablation: parallel per-block execution (paper perspective ii).

Measures TD-AC wall time with sequential versus thread-pooled block
execution on the widest dataset (Exam 124, many blocks) and checks that
parallelism never changes the result.
"""

import time

from conftest import run_once

from repro.algorithms import TruthFinder
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.evaluation import format_table


def test_parallel_blocks(record_artifact, benchmark):
    dataset = load("Semi 124 range 100")

    def sweep():
        rows = []
        outcomes = {}
        for n_jobs in (1, 4):
            tdac = TDAC(TruthFinder(), config=TDACConfig(seed=0, n_jobs=n_jobs))
            start = time.perf_counter()
            outcomes[n_jobs] = tdac.run(dataset)
            rows.append([f"n_jobs={n_jobs}", time.perf_counter() - start])
        return rows, outcomes

    rows, outcomes = run_once(benchmark, sweep)
    table = format_table(
        ["Configuration", "Wall time (s)"],
        rows,
        title="Ablation A-4 (Semi 124 range 100): per-block parallelism",
    )
    record_artifact("ablation_parallel", table)

    assert outcomes[1].predictions == outcomes[4].predictions
    assert outcomes[1].partition == outcomes[4].partition
