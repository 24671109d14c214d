"""A-6 — Ablation: running-time scaling (paper Section 6's concern).

The paper notes TD-AC's running time "becomes important when the number
of attributes, objects and sources is very large".  This bench sweeps
the object count of DS2 and records TD-AC's wall time split into its
phases (reference run, clustering sweep, per-block runs), verifying the
cost stays within a small multiple of one base run — the property that
separates TD-AC from the Bell-number brute force.
"""

import time

from conftest import run_once

from repro.algorithms import Accu
from repro.core import TDAC, TDACConfig, build_truth_vectors, run_blocks
from repro.datasets import load
from repro.evaluation import format_table

OBJECT_COUNTS = (50, 100, 200, 400)


def test_runtime_scaling(record_artifact, benchmark):
    def sweep():
        rows = []
        for n_objects in OBJECT_COUNTS:
            dataset = load("DS2", scale=n_objects / 1000)
            tdac = TDAC(Accu(), config=TDACConfig(seed=0))

            start = time.perf_counter()
            reference = tdac.reference_algorithm.discover(dataset)
            t_reference = time.perf_counter() - start

            start = time.perf_counter()
            vectors = build_truth_vectors(dataset, reference)
            partition, _ = tdac.select_partition(vectors)
            t_clustering = time.perf_counter() - start

            start = time.perf_counter()
            run_blocks(tdac.base, dataset, partition)
            t_blocks = time.perf_counter() - start

            total = t_reference + t_clustering + t_blocks
            rows.append(
                [
                    n_objects,
                    round(t_reference, 3),
                    round(t_clustering, 3),
                    round(t_blocks, 3),
                    round(total, 3),
                    round(total / max(t_reference, 1e-9), 1),
                ]
            )
        return rows

    rows = run_once(benchmark, sweep)
    table = format_table(
        [
            "Objects",
            "Reference (s)",
            "Clustering (s)",
            "Blocks (s)",
            "Total (s)",
            "Total / base-run",
        ],
        rows,
        title="Ablation A-6 (DS2): TD-AC runtime scaling and phase split",
    )
    record_artifact("ablation_scaling", table)

    # TD-AC stays within a small constant factor of one base run at
    # every size (the brute force is 200x+).
    for row in rows:
        assert row[-1] < 25.0
