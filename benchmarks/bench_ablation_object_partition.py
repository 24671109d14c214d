"""A-7 — Ablation: attribute partitioning (TD-AC) vs object partitioning.

The paper's future work plans a comparison against the object-based
partitioning of Yang et al. [13]; ``repro.core.ObjectTDAC`` supplies the
comparator.  Two regimes are benchmarked:

* DS1 — reliability correlated by *attribute group* (TD-AC's setting);
* an engine dataset transposed so reliability correlates by *object
  topic* (sources specialise by entity), where object clustering has
  the structural advantage.
"""

import numpy as np
from conftest import run_once

from repro.algorithms import Accu
from repro.core import ObjectTDAC, TDAC, TDACConfig
from repro.data import DatasetBuilder
from repro.datasets import load
from repro.evaluation import format_table
from repro.metrics import evaluate_predictions


def object_correlated_dataset(n_per_topic=40, seed=0):
    """Sources specialise by object topic: sports vs finance entities."""
    rng = np.random.default_rng(seed)
    builder = DatasetBuilder(name="topic-correlated")
    specialities = {
        "sport1": "sports",
        "sport2": "sports",
        "sport3": "sports",
        "fin1": "finance",
        "fin2": "finance",
        "fin3": "finance",
        "wire1": "both",
        "wire2": "both",
    }
    for topic, prefix in (("sports", "match"), ("finance", "ticker")):
        for i in range(n_per_topic):
            obj = f"{prefix}{i}"
            for attribute in ("a1", "a2", "a3", "a4"):
                truth = f"{obj}-{attribute}-t"
                builder.set_truth(obj, attribute, truth)
                shared_wrong = f"{obj}-{attribute}-w"
                for source, speciality in specialities.items():
                    good = speciality in (topic, "both")
                    p_right = 0.95 if good else 0.15
                    if rng.random() < p_right:
                        value = truth
                    elif rng.random() < 0.7:
                        value = shared_wrong
                    else:
                        value = f"{obj}-{attribute}-w-{source}"
                    builder.add_claim(source, obj, attribute, value)
    return builder.build()


def test_attribute_vs_object_partitioning(record_artifact, benchmark):
    attribute_regime = load("DS1", scale=0.08)
    object_regime = object_correlated_dataset()

    def sweep():
        rows = []
        for label, dataset in (
            ("attribute-correlated (DS1)", attribute_regime),
            ("object-correlated (topics)", object_regime),
        ):
            flat = evaluate_predictions(
                dataset, Accu().discover(dataset).predictions
            ).accuracy
            tdac_run = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
            tdac = evaluate_predictions(dataset, tdac_run.predictions).accuracy
            tdoc = evaluate_predictions(
                dataset,
                ObjectTDAC(Accu(), k_max=6, seed=0).run(dataset).predictions,
            ).accuracy
            rows.append([label, flat, tdac, tdoc])
        return rows

    rows = run_once(benchmark, sweep)
    table = format_table(
        ["Regime", "Accu", "TD-AC (attrs)", "TD-OC (objects)"],
        rows,
        title="Ablation A-7: attribute vs object partitioning",
    )
    record_artifact("ablation_object_partition", table)

    attribute_row, object_row = rows
    # Each family should win (or tie) on its own regime.
    assert attribute_row[2] >= attribute_row[3] - 0.02
    assert object_row[3] >= object_row[1] - 0.02
