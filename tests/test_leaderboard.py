"""Unit tests for the leaderboard runner."""

from repro.algorithms import available, capability_gap, create
from repro.datasets import load
from repro.evaluation import leaderboard
from repro.evaluation.leaderboard import suite_records


def test_ranks_are_sequential_and_sorted(small_ds1):
    entries = leaderboard(
        small_ds1.dataset,
        include_tdac=False,
        algorithms=["MajorityVote", "TruthFinder", "Sums"],
    )
    assert [e.rank for e in entries] == [1, 2, 3]
    accuracies = [e.record.accuracy for e in entries]
    assert accuracies == sorted(accuracies, reverse=True)


def test_tdac_rows_included(small_ds1):
    entries = leaderboard(
        small_ds1.dataset,
        include_tdac=True,
        algorithms=["MajorityVote"],
        seed=0,
    )
    names = {e.record.algorithm for e in entries}
    assert names == {"MajorityVote", "TD-AC (F=MajorityVote)"}


def test_as_row_prepends_rank(small_ds1):
    entries = leaderboard(
        small_ds1.dataset, include_tdac=False, algorithms=["MajorityVote"]
    )
    row = entries[0].as_row()
    assert row[0] == 1
    assert row[1] == "MajorityVote"


def test_extension_suite_roster_skips_unsupported_algorithms():
    # The extension bench's roster on DS1: every registered algorithm,
    # flat and TD-AC-wrapped; the continuous estimators cannot read
    # categorical claims and are skipped with their reason, not run.
    dataset = load("DS1", scale=0.02)
    skipped = []
    records = suite_records(dataset, skipped=skipped)
    gaps = {
        name: capability_gap(create(name), dataset) for name in available()
    }
    assert {s.algorithm: s.reason for s in skipped} == {
        name: gap for name, gap in gaps.items() if gap is not None
    }
    assert {s.algorithm for s in skipped} == {
        "CATD-Cont", "CRH-Cont", "Median-Cont",
    }
    ran = [name for name, gap in gaps.items() if gap is None]
    assert [r.algorithm for r in records] == [
        label for name in ran for label in (name, f"TD-AC (F={name})")
    ]
