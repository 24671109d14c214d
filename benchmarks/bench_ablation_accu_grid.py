"""A-9 — Ablation: the Accu stabilisation grid behind the defaults.

DESIGN.md §5b documents a grid search over the Accu family's
stabilisation knobs (confidence gate, true-agreement calibration,
warm-up).  This bench re-runs that grid through the sweep harness —
wrapped in TD-AC, on small DS1/DS2/DS3 — and asserts the shipped
defaults are the min-max winner, so the design decision stays
reproducible instead of anecdotal.
"""

from conftest import run_once

from repro.algorithms import Accu
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.evaluation import format_table
from repro.evaluation.sweeps import best_configuration, sweep

GRID = {
    "confidence_gate": [0.0, 0.15],
    "calibrate_true_agreement": [True, False],
    "warmup_iterations": [0, 2],
}

DEFAULTS = {
    "confidence_gate": 0.0,
    "calibrate_true_agreement": True,
    "warmup_iterations": 0,
}


def test_accu_stabilisation_grid(record_artifact, benchmark):
    datasets = [load(name, scale=0.05) for name in ("DS1", "DS2", "DS3")]

    def run_sweep():
        return sweep(
            Accu,
            GRID,
            datasets,
            wrapper=lambda base: TDAC(base, config=TDACConfig(seed=0)),
        )

    records = run_once(benchmark, run_sweep)
    rows = [
        [r.label(), r.dataset, r.accuracy] for r in records
    ]
    table = format_table(
        ["Configuration", "Dataset", "TD-AC accuracy"],
        rows,
        title="Ablation A-9: Accu stabilisation grid (TD-AC wrapped)",
    )
    record_artifact("ablation_accu_grid", table)

    winner = best_configuration(records)
    # The shipped defaults must be min-max competitive: their worst-case
    # accuracy across DS1-3 matches the grid winner's.
    def worst(config):
        return min(
            r.accuracy
            for r in records
            if all(r.parameters[k] == v for k, v in config.items())
        )

    assert worst(DEFAULTS) >= worst(winner) - 0.02
