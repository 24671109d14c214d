"""Unit tests for the Accu family (Depen / Accu / AccuSim)."""

import numpy as np
import pytest

from repro.algorithms import Accu, AccuSim, CopyDetector, Depen
from repro.algorithms.accu import discounted_votes
from repro.data import Dataset, DatasetBuilder, DatasetIndex, Fact
from repro.datasets import load
from tests.oracles import discounted_votes_loop


HONEST = ("h1", "h2", "h3", "h4", "h5")
CLIQUE = ("c1", "c2", "c3", "c4")


def copier_dataset(n_facts=30):
    """Five mostly-honest sources vs a clique of four copiers.

    The copiers share a wrong value on every fact.  The honest majority
    wins the bootstrap vote, after which copy detection must discount the
    clique so its bloc stops flipping the facts where honest sources
    happen to miss.
    """
    builder = DatasetBuilder()
    for i in range(n_facts):
        truth = f"true{i}"
        builder.set_truth(f"o{i}", "a", truth)
        for idx, s in enumerate(HONEST):
            # Right 90%, deterministically patterned per source.
            value = truth if (i + 3 * idx) % 10 else f"miss-{s}-{i}"
            builder.add_claim(s, f"o{i}", "a", value)
        shared_wrong = f"copied{i}"
        for s in CLIQUE:
            builder.add_claim(s, f"o{i}", "a", shared_wrong)
    return builder.build()


class TestCopyDetection:
    def test_clique_flagged_dependent(self):
        ds = copier_dataset()
        index = DatasetIndex(ds)
        detector = CopyDetector()
        detector.prepare(index)
        winners = np.array(
            [index.true_slot[f] for f in range(index.n_facts)]
        )
        accuracy = np.full(index.n_sources, 0.8)
        dep = detector.dependence(winners, accuracy)
        names = ds.sources
        c_ids = [i for i, s in enumerate(names) if s in CLIQUE]
        h_ids = [i for i, s in enumerate(names) if s in HONEST]
        clique = dep[np.ix_(c_ids, c_ids)]
        # Off-diagonal clique entries should be near 1.
        off_diag = clique[~np.eye(len(c_ids), dtype=bool)]
        assert off_diag.min() > 0.9
        honest_vs_clique = dep[np.ix_(h_ids, c_ids)]
        assert honest_vs_clique.max() < 0.5

    def test_diagonal_is_zero(self):
        ds = copier_dataset()
        index = DatasetIndex(ds)
        detector = CopyDetector()
        detector.prepare(index)
        winners = index.winning_slots(index.votes_per_slot)
        dep = detector.dependence(winners, np.full(index.n_sources, 0.8))
        assert np.allclose(np.diag(dep), 0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CopyDetector(alpha=0.0)
        with pytest.raises(ValueError):
            CopyDetector(copy_rate=1.0)


class TestDiscountedVotes:
    def test_independent_sources_count_fully(self):
        ds = copier_dataset(n_facts=5)
        index = DatasetIndex(ds)
        no_dependence = np.zeros((index.n_sources, index.n_sources))
        weights = np.ones(index.n_sources)
        votes = discounted_votes(
            index, no_dependence, np.full(index.n_sources, 0.8), 0.8, weights
        )
        assert np.allclose(votes, index.votes_per_slot)

    def test_full_dependence_collapses_clique(self):
        ds = copier_dataset(n_facts=5)
        index = DatasetIndex(ds)
        full = np.ones((index.n_sources, index.n_sources))
        np.fill_diagonal(full, 0.0)
        weights = np.ones(index.n_sources)
        votes = discounted_votes(
            index, full, np.full(index.n_sources, 0.8), 1.0, weights
        )
        # With copy rate 1 and certain dependence, every slot counts one
        # effective vote regardless of provider count.
        assert np.allclose(votes[index.votes_per_slot > 0], 1.0)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_votes_match_loop(index, seed, draws=5):
    """``discounted_votes`` equals the per-slot loop oracle bit for bit."""
    rng = np.random.default_rng(seed)
    n = index.n_sources
    for _ in range(draws):
        dependence = rng.random((n, n))
        np.fill_diagonal(dependence, 0.0)
        accuracy = rng.random(n)
        weights = rng.random(n) * 3.0
        fast = discounted_votes(index, dependence, accuracy, 0.8, weights)
        loop = discounted_votes_loop(index, dependence, accuracy, 0.8, weights)
        np.testing.assert_array_equal(_bits(fast), _bits(loop))


def _wide_dataset(n_sources=48, n_objects=40, n_values=3, seed=3):
    """48 sources over 3 values per fact: slots of 6 to 22 providers.

    Past 16 doubles, ``np.dot`` no longer matches a sequential FMA chain
    on some BLAS builds, so these sizes exercise its blocked reduction.
    """
    rng = np.random.default_rng(seed)
    builder = DatasetBuilder()
    for o in range(n_objects):
        for a in ("a1", "a2"):
            for s in range(n_sources):
                if rng.random() < 0.9:
                    value = f"v{rng.integers(n_values)}"
                    builder.add_claim(f"s{s}", f"o{o}", a, value)
    return builder.build()


class TestDiscountedVotesMatchesLoop:
    """The per-size ``np.vecdot`` kernel against the per-slot loop."""

    def test_ds2_full_index(self):
        index = DatasetIndex(load("DS2", seed=0, scale=1.0))
        # Every slot size from 1 to 8 providers occurs.
        assert set(np.diff(index.slot_claim_starts)) == set(range(1, 9))
        _assert_votes_match_loop(index, seed=11, draws=3)

    def test_slots_past_sixteen_providers(self):
        index = DatasetIndex(_wide_dataset())
        assert index.n_sources >= 40
        assert np.diff(index.slot_claim_starts).max() > 16
        _assert_votes_match_loop(index, seed=12)

    def test_singleton_slots_only(self):
        builder = DatasetBuilder()
        for i in range(12):
            builder.add_claim(f"s{i % 4}", f"o{i}", "a", f"v{i}")
        index = DatasetIndex(builder.build())
        assert (np.diff(index.slot_claim_starts) == 1).all()
        _assert_votes_match_loop(index, seed=13)

    def test_empty_index(self):
        index = DatasetIndex(Dataset(["s1", "s2"], ["o1"], ["a"], {}))
        assert index.n_claims == 0
        _assert_votes_match_loop(index, seed=14, draws=1)


def test_vecdot_rows_equal_dot_bitwise():
    """Host guard: the BLAS in use reduces ``np.vecdot`` rows like ``np.dot``.

    ``discounted_votes`` computes each slot size's totals with one
    ``np.vecdot`` and is bitwise equal to the per-slot ``np.dot`` loop
    only while this holds.
    """
    rng = np.random.default_rng(20)
    for length in range(2, 129):
        a = rng.random((200, length))
        b = rng.random((200, length)) * 3.0
        rows = np.vecdot(a, b)
        dots = np.array([np.dot(x, y) for x, y in zip(a, b)])
        mismatched = np.flatnonzero(_bits(rows) != _bits(dots))
        assert not len(mismatched), (
            f"np.vecdot differs from np.dot on {len(mismatched)} of 200 rows "
            f"of length {length}; the Accu vote kernel (discounted_votes) "
            "is exact only while they agree bit for bit on this BLAS build"
        )


class TestAlgorithms:
    def test_accu_beats_the_clique(self):
        ds = copier_dataset()
        result = Accu().discover(ds)
        correct = sum(
            1
            for fact in ds.facts
            if result.predictions[fact] == ds.true_value(fact)
        )
        assert correct / len(ds.facts) > 0.85

    def test_depen_beats_the_clique(self):
        ds = copier_dataset()
        result = Depen().discover(ds)
        correct = sum(
            1
            for fact in ds.facts
            if result.predictions[fact] == ds.true_value(fact)
        )
        assert correct / len(ds.facts) > 0.85

    def test_accu_estimates_higher_trust_for_honest(self):
        result = Accu().discover(copier_dataset())
        honest = min(result.source_trust[s] for s in HONEST)
        clique = max(result.source_trust[s] for s in CLIQUE)
        assert honest > clique

    def test_depen_reports_uniform_style_trust(self, tiny_dataset):
        result = Depen().discover(tiny_dataset)
        assert result.iterations >= 1

    def test_accusim_runs_and_predicts(self, tiny_dataset):
        result = AccuSim().discover(tiny_dataset)
        assert set(result.predictions) == set(tiny_dataset.facts)

    def test_names_match_paper(self):
        assert Accu().name == "Accu"
        assert Depen().name == "DEPEN"
        assert AccuSim().name == "AccuSim"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Accu(initial_accuracy=0.0)
        with pytest.raises(ValueError):
            Accu(damping=1.0)
        with pytest.raises(ValueError):
            Accu(warmup_iterations=-1)
        with pytest.raises(ValueError):
            Accu(max_iterations=0)

    def test_deterministic(self):
        ds = copier_dataset()
        assert Accu().discover(ds).predictions == Accu().discover(ds).predictions
