"""End-to-end determinism: every stochastic component is seed-pinned.

Reproducibility is the product here; these tests hash whole artefacts
(claim streams, prediction maps, partitions) across independent
constructions and require bit-identical results.
"""

import hashlib
import json

import pytest

from repro.algorithms import available, capability_gap, create
from repro.core import TDAC, TDACConfig
from repro.datasets import load
from repro.datasets import make_books, make_exam, make_synthetic


def fingerprint_dataset(dataset) -> str:
    payload = [
        (c.source, c.object, c.attribute, str(c.value))
        for c in dataset.iter_claims()
    ]
    payload.append(sorted((o, a, str(v)) for (o, a), v in dataset.truth.items()))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def fingerprint_predictions(predictions) -> str:
    payload = sorted(
        (fact.object, fact.attribute, str(value))
        for fact, value in predictions.items()
    )
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestGeneratorDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_synthetic("DS2", n_objects=20, seed=4).dataset,
            lambda: make_exam(32, seed=4),
            lambda: make_books(n_books=10, seed=4),
            lambda: load("Flights", scale=0.1, seed=4),
        ],
    )
    def test_two_constructions_identical(self, factory):
        assert fingerprint_dataset(factory()) == fingerprint_dataset(factory())

    def test_different_seeds_differ(self):
        a = make_synthetic("DS2", n_objects=20, seed=4).dataset
        b = make_synthetic("DS2", n_objects=20, seed=5).dataset
        assert fingerprint_dataset(a) != fingerprint_dataset(b)


class TestAlgorithmDeterminism:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_synthetic("DS3", n_objects=20, seed=8).dataset

    def test_every_registered_algorithm_is_deterministic(self, dataset):
        for name in available():
            if capability_gap(create(name), dataset) is not None:
                # e.g. continuous estimators on a categorical corpus
                continue
            first = create(name).discover(dataset)
            second = create(name).discover(dataset)
            assert fingerprint_predictions(
                first.predictions
            ) == fingerprint_predictions(second.predictions), name
            assert first.confidence == second.confidence, name
            assert first.source_trust == second.source_trust, name
            assert first.iterations == second.iterations, name

    def test_tdac_full_provenance_is_deterministic(self, dataset):
        first = TDAC(create("Accu"), config=TDACConfig(seed=11)).run(dataset)
        second = TDAC(create("Accu"), config=TDACConfig(seed=11)).run(dataset)
        assert first.partition == second.partition
        assert first.silhouette_by_k == second.silhouette_by_k
        assert fingerprint_predictions(
            first.predictions
        ) == fingerprint_predictions(second.predictions)
