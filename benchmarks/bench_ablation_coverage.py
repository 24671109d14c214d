"""A-5 — Ablation: TD-AC's advantage as a function of data coverage.

Turns the paper's Figures 4/5 observation ("TD-AC is more efficient when
the data coverage is very high") into a proper curve: the same DS1 is
thinned to several coverage levels and the TD-AC-minus-Accu accuracy
delta is tracked.  The shape check asserts the paper's correlation: the
delta at the highest coverage level is at least that of the lowest.
"""

from conftest import run_once

from repro.algorithms import Accu
from repro.core import TDAC, TDACConfig
from repro.data import data_coverage_rate, thin_coverage
from repro.datasets import load
from repro.evaluation import format_table
from repro.metrics import evaluate_predictions

KEEP_FRACTIONS = (0.3, 0.5, 0.7, 1.0)


def test_coverage_sweep(record_artifact, benchmark):
    base_dataset = load("DS1", scale=0.1)

    def sweep():
        rows = []
        for keep in KEEP_FRACTIONS:
            dataset = (
                base_dataset
                if keep == 1.0
                else thin_coverage(base_dataset, keep, seed=0)
            )
            coverage = data_coverage_rate(dataset)
            flat = evaluate_predictions(
                dataset, Accu().discover(dataset).predictions
            ).accuracy
            tdac_run = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
            tdac = evaluate_predictions(dataset, tdac_run.predictions).accuracy
            rows.append(
                [f"{coverage:.0f}%", flat, tdac, tdac - flat]
            )
        return rows

    rows = run_once(benchmark, sweep)
    table = format_table(
        ["Coverage", "Accu", "TD-AC (F=Accu)", "Delta"],
        rows,
        title="Ablation A-5 (DS1): TD-AC advantage vs data coverage",
    )
    record_artifact("ablation_coverage", table)

    assert rows[-1][3] >= rows[0][3] - 0.03
