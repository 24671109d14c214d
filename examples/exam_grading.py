"""Recover an exam's answer key from student answers alone.

The scenario of the paper's Section 4.3: 248 students answered up to 62
questions across domains (math, physics, chemistry...).  Students are
reliable in the domains they are strong in — exactly the structurally
correlated setting TD-AC targets.  We pretend the answer key is lost and
reconstruct it by truth discovery, then grade the reconstruction against
the real key.

Run with:  python examples/exam_grading.py
"""

from repro import Accu, TDAC, TDACConfig, TruthFinder
from repro.datasets import make_exam
from repro.evaluation import performance_table, run_algorithm

dataset = make_exam(62, seed=0)
print(f"{dataset}")
print(f"attributes span domains: "
      f"{sorted({a.split('-')[0] for a in dataset.attributes})}\n")

records = []
for algorithm in (Accu(), TDAC(Accu(), config=TDACConfig(seed=0)), TruthFinder(),
                  TDAC(TruthFinder(), config=TDACConfig(seed=0))):
    records.append(run_algorithm(algorithm, dataset))

print(performance_table(records, title="Answer-key recovery (Exam 62)"))

# Which question clusters did TD-AC find?  Ideally they follow domains.
outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
print("\nTD-AC question clusters (by domain histogram):")
for i, block in enumerate(outcome.partition.blocks):
    domains: dict[str, int] = {}
    for question in block:
        domain = question.split("-")[0]
        domains[domain] = domains.get(domain, 0) + 1
    print(f"  cluster {i + 1} ({len(block)} questions): {domains}")
