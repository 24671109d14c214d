"""Explain a truth discovery run: votes, clusters, and trust quality.

A resolution nobody can audit is a resolution nobody ships.  This
walkthrough runs TD-AC on the DS1 synthetic dataset and then answers the
three questions a reviewer asks:

1. *Why this value?*  — per-fact vote breakdown with source trust;
2. *Why these attribute clusters?* — cohesion vs separation of the
   truth vectors behind the chosen partition;
3. *Can I trust the trust?* — calibration of the estimated source
   reliabilities against the (here known) true accuracies.

Run with:  python examples/explainability.py
"""

from repro import Accu, TDAC, TDACConfig
from repro.core import explain_fact, explain_partition
from repro.datasets import make_synthetic
from repro.evaluation import (
    disagreement_profile,
    per_attribute_accuracy,
    trust_calibration,
)

generated = make_synthetic("DS1", n_objects=80, seed=0)
dataset = generated.dataset
profile = disagreement_profile(dataset)
print(
    f"{dataset}: {profile.mean_claims_per_fact:.0f} claims/fact, "
    f"{profile.mean_distinct_values:.1f} distinct values/fact, "
    f"mean winning margin {profile.mean_winning_margin:.2f}"
)

outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)

# 1. Why this value?  Pick a contested fact (smallest margin).
explained = [
    explain_fact(dataset, outcome.result, fact) for fact in dataset.facts[:40]
]
most_contested = min(explained, key=lambda e: e.margin())
print("\nMost contested of the first 40 facts:")
print(most_contested.render())

# 2. Why these clusters?
partition_story = explain_partition(outcome.truth_vectors, outcome.partition)
print(f"\n{partition_story.render()}")

# 3. Can I trust the trust?  DS1 gives every source the same *global*
# accuracy by construction (that is exactly why flat algorithms fail on
# it), so calibration is shown on DS3 where global reliabilities differ.
ds3 = make_synthetic("DS3", n_objects=80, seed=0).dataset
calibration = trust_calibration(ds3, Accu().discover(ds3))
print(
    f"\ntrust calibration (Accu on DS3): "
    f"correlation {calibration.correlation:.2f}, "
    f"MAE {calibration.mean_absolute_error:.2f} "
    f"over {calibration.n_sources} sources"
)

print("\nper-attribute accuracy (TD-AC):")
for attribute, accuracy in sorted(
    per_attribute_accuracy(dataset, outcome.result).items()
):
    print(f"  {attribute}: {accuracy:.2f}")
