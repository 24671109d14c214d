"""The paper's Table 1 running example, end to end.

Three sources answer three questions on two topics (African football and
computer science).  Source 1 is good at football history but bad at
years; Source 2 knows the recent results; Source 3 is in between.  The
example reproduces the paper's Section 3 walk-through: build attribute
truth vectors (Table 2), cluster them, and compare the partitioned
discovery with the flat one.

Run with:  python examples/sports_trivia.py
"""

from repro import Accu, DatasetBuilder, MajorityVote, TDAC, TDACConfig
from repro.core import build_truth_vectors

builder = DatasetBuilder(name="table1")
rows = {
    ("Source 1", "FB"): {"Q1": "Algeria", "Q2": "2000", "Q3": "12"},
    ("Source 2", "FB"): {"Q1": "Senegal", "Q2": "2019", "Q3": "11"},
    ("Source 3", "FB"): {"Q1": "Algeria", "Q2": "1994", "Q3": "12"},
    ("Source 1", "CS"): {"Q1": "Linus Torvalds", "Q2": "1830", "Q3": "7"},
    ("Source 2", "CS"): {"Q1": "Bill Gates", "Q2": "1991", "Q3": "8"},
    ("Source 3", "CS"): {"Q1": "Steve Jobs", "Q2": "1991", "Q3": "10"},
}
for (source, topic), answers in rows.items():
    for question, answer in answers.items():
        builder.add_claim(source, topic, question, answer)

# The correct answers (the red ellipses of Table 1).
answer_key = {
    ("FB", "Q1"): "Algeria",
    ("FB", "Q2"): "2019",
    ("FB", "Q3"): "11",
    ("CS", "Q1"): "Linus Torvalds",
    ("CS", "Q2"): "1991",
    ("CS", "Q3"): "7",
}
builder.set_truths(answer_key)
dataset = builder.build()

# Step 1-2 of TD-AC: reference truth + attribute truth vectors (Eq. 1).
vectors = build_truth_vectors(dataset, MajorityVote())
print("Attribute truth vector matrix (rows = Q1..Q3, ranks = (topic, source)):")
for attribute in dataset.attributes:
    print(f"  {attribute}: {vectors.vector(attribute).tolist()}")

# Full TD-AC with Accu as the base algorithm (as in the paper's
# synthetic experiments).  Plain Accu resolves only 2/6 of these facts;
# TD-AC groups (Q1, Q3) against (Q2) -- the correlation the paper's
# introduction points out -- and recovers two more.  The remaining
# misses are 1-vs-1-vs-1 conflicts no unsupervised method can break.
plain = Accu().discover(dataset)
plain_correct = sum(
    1
    for fact, value in plain.predictions.items()
    if value == answer_key[(fact.object, fact.attribute)]
)
print(f"\nplain Accu resolves {plain_correct}/6 facts")

outcome = TDAC(Accu(), config=TDACConfig(seed=0)).run(dataset)
print(f"\nchosen partition of the questions: {outcome.partition}")
print("resolved answers:")
correct = 0
for fact, value in sorted(outcome.predictions.items(), key=str):
    truth = answer_key[(fact.object, fact.attribute)]
    marker = "OK " if value == truth else "WRONG"
    correct += value == truth
    print(f"  [{marker}] {fact} = {value}   (truth: {truth})")
print(f"\n{correct}/6 facts correct")
