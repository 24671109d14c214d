"""Streaming truth discovery: absorb new claims without refitting.

A fusion service does not get its corpus at once — claims trickle in.
``IncrementalTDAC`` absorbs each batch through an exact delta path:
the claim index and Eq. 1 truth-vector matrix are patched in place, the
certified partition is reused (or re-certified) and only the blocks a
batch touches are re-solved — and the published state is bit-identical
to rerunning offline ``TDAC.run`` on the grown corpus.  The delta path
is exact at any batch size, so even a flood never needs a full refit.

The second half makes the stream *durable*: a ``TruthService`` with a
``store=`` directory WAL-logs every admission before acknowledging it,
so after a crash ``TruthService.restore`` replays the log and resumes
bit-identically.

Run with:  python examples/streaming_updates.py
"""

import tempfile

from repro import MajorityVote, ServiceConfig, TDACConfig, TruthService
from repro.core import IncrementalTDAC
from repro.data import Claim
from repro.datasets import make_synthetic

generated = make_synthetic("DS1", n_objects=40, seed=1)
dataset = generated.dataset

incremental = IncrementalTDAC(MajorityVote(), config=TDACConfig(seed=0))
outcome = incremental.fit(dataset)
print(f"initial fit: partition {outcome.partition}")
print(f"stats: {incremental.stats}\n")

# Batch 1: a handful of claims about one existing attribute — only the
# block containing it is re-solved.
attribute = outcome.partition.blocks[0][0]
batch = [
    Claim(dataset.sources[i % 3], f"breaking-{i}", attribute, f"update-{i // 3}")
    for i in range(6)
]
result = incremental.update(batch)
print(f"after small batch touching {attribute!r}: {incremental.stats}")

# Batch 2: claims about an attribute never seen before — its truth
# vector joins the matrix and the k-sweep re-certifies the partition,
# so the new attribute lands in a real cluster immediately.
batch = [
    Claim(s, "breaking-0", "sentiment", "positive") for s in dataset.sources[:4]
]
result = incremental.update(batch)
print(f"after new attribute 'sentiment': partition {incremental.partition}")

# Batch 3: a flood of claims (a quarter of the corpus) — still one
# exact delta update; no full refit runs.
flood = [
    Claim(dataset.sources[i % 10], f"flood-{i}", "sentiment",
          "positive" if i % 4 else "negative")
    for i in range(int(dataset.n_claims * 0.25))
]
result = incremental.update(flood)
print(f"after flood: {incremental.stats}")
print(f"final partition: {incremental.partition}")
print(f"{len(result.predictions)} facts resolved in total\n")

# ----------------------------------------------------------------------
# Durable ingest: the same stream, but every admission survives a crash.
# ----------------------------------------------------------------------

small = make_synthetic("DS1", n_objects=15, seed=11).dataset
source, attribute = small.sources[0], small.attributes[0]

with tempfile.TemporaryDirectory() as store_dir:
    service = TruthService(
        MajorityVote(),
        small,
        config=TDACConfig(seed=0),
        store=store_dir,          # WAL + checkpoints live here
        service_config=ServiceConfig(max_wait_ms=1.0),
    )
    service.start()
    for day in range(3):
        batch = [
            Claim(source, f"reading-{day}-{i}", attribute, f"value-{day}")
            for i in range(4)
        ]
        service.ingest(batch, wait=True)
    before = service.snapshot()
    print(f"durable service at watermark {before.watermark} "
          f"(version {before.version})")
    # Simulate a crash: stop without the final checkpoint, so the WAL
    # tail is what recovery has to replay.
    service.stop(checkpoint=False)

    restored = TruthService.restore(store_dir)
    after = restored.snapshot()
    print(f"restored  service at watermark {after.watermark} "
          f"(version {after.version})")
    assert dict(after.predictions) == dict(before.predictions)
    assert dict(after.source_trust) == dict(before.source_trust)
    print("restart-and-recover: restored state matches the pre-crash "
          "snapshot exactly")
    # The restored service keeps serving — and stays durable.
    restored.ingest(
        [Claim(source, "reading-post", attribute, "value-post")], wait=True
    )
    print(f"post-restore ingest applied: stats {restored.stats['store']}")
    restored.stop()
