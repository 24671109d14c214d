"""A-3 — Ablation: which algorithm builds the reference truth?

TD-AC uses the same base algorithm ``F`` for the reference pass (truth
vectors) and the per-block passes.  This ablation decouples them: every
combination of reference in {MajorityVote, TruthFinder, Accu} and block
algorithm in the same set, on DS2 (the synthetic dataset where the
reference quality matters most).
"""

from conftest import run_once

from repro.algorithms import Accu, MajorityVote, TruthFinder
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.evaluation import format_table
from repro.metrics import evaluate_predictions

FACTORIES = {
    "MajorityVote": MajorityVote,
    "TruthFinder": TruthFinder,
    "Accu": Accu,
}


def test_reference_vs_block_algorithm(record_artifact, benchmark):
    dataset = load("DS2", scale=0.1)

    def sweep():
        rows = []
        for ref_name, ref_factory in FACTORIES.items():
            for base_name, base_factory in FACTORIES.items():
                tdac = TDAC(
                    base_factory(), reference=ref_factory(), config=TDACConfig(seed=0)
                )
                outcome = tdac.run(dataset)
                report = evaluate_predictions(dataset, outcome.predictions)
                rows.append(
                    [
                        ref_name,
                        base_name,
                        str(outcome.partition),
                        report.accuracy,
                    ]
                )
        return rows

    rows = run_once(benchmark, sweep)
    table = format_table(
        ["Reference", "Block algorithm", "Partition", "Accuracy"],
        rows,
        title="Ablation A-3 (DS2): reference vs per-block algorithm",
    )
    record_artifact("ablation_base_algorithm", table)

    by_combo = {(r[0], r[1]): r[3] for r in rows}
    # Accu blocks should dominate MajorityVote blocks whatever reference
    # built the truth vectors (per-block reweighting is the whole point).
    for ref_name in FACTORIES:
        assert by_combo[(ref_name, "Accu")] >= by_combo[(ref_name, "MajorityVote")] - 0.02
