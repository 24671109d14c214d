"""API-stability guarantees for the ``repro`` 1.x public surface.

Two contracts are pinned here:

* every symbol in ``repro.__all__`` imports from ``repro`` directly and
  stays importable from its documented home module;
* the per-knob keyword spellings whose deprecation windows closed
  (``TDAC(base, seed=...)``, ``TruthService(..., max_batch_size=...)``,
  ...) are rejected with :class:`TypeError`; knobs travel only through
  ``TDACConfig`` / ``ServiceConfig``.
"""

import dataclasses
import importlib
import warnings

import pytest

import repro
from repro import (
    IncrementalTDAC,
    MajorityVote,
    ShardRouter,
    TDAC,
    TDACConfig,
    TruthServer,
    TruthService,
)
from repro.core.config import RESULT_AFFECTING_FIELDS
from repro.datasets import make_synthetic
from repro.serving import serve_network


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic("DS1", n_objects=20, seed=3).dataset


class TestPublicSurface:
    def test_every_all_symbol_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.core", ["TDAC", "TDACConfig", "TDACResult",
                            "IncrementalTDAC", "PartitionCache",
                            "RESULT_SCHEMA", "result_to_dict",
                            "result_from_dict", "config_from_dict"]),
            ("repro.store", ["TruthStore", "ClaimWAL", "SnapshotStore",
                             "WALCorruptionWarning", "StoreError"]),
            ("repro.execution", ["ExecutionPolicy"]),
            ("repro.observability", ["SpanTracer"]),
            ("repro.serving", ["TruthService", "TruthSnapshot",
                               "ServiceOverloadedError", "run_smoke",
                               "TruthServer", "AsyncTruthClient",
                               "RetryPolicy", "serve_network",
                               "handle_request"]),
        ],
    )
    def test_documented_homes_stay_importable(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_serving_symbols_are_top_level(self):
        from repro import TruthService, TruthSnapshot  # noqa: F401

    def test_version_matches_package_metadata(self):
        assert repro.__version__ == "1.7.0"

    def test_store_symbols_are_top_level(self):
        from repro import TruthStore, store  # noqa: F401


class TestTDACConfig:
    def test_is_frozen(self):
        config = TDACConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_fingerprint_ignores_performance_knobs(self):
        base = TDACConfig(seed=4)
        tuned = TDACConfig(seed=4, n_jobs=8, backend="processes")
        assert base.fingerprint() == tuned.fingerprint()

    def test_fingerprint_tracks_result_affecting_knobs(self):
        fingerprints = {
            TDACConfig().fingerprint(),
            TDACConfig(seed=1).fingerprint(),
            TDACConfig(k_min=3).fingerprint(),
            TDACConfig(distance="masked").fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_result_affecting_fields_exist(self):
        fields = {f.name for f in dataclasses.fields(TDACConfig)}
        assert set(RESULT_AFFECTING_FIELDS) <= fields


class TestLegacyKwargShim:
    """What survives the shim: unknown keywords raise, ``config=`` is quiet."""

    def test_config_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            TDAC(MajorityVote(), config=TDACConfig(seed=7))

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            TDAC(MajorityVote(), wat=1)

    def test_kwargs_and_config_are_mutually_exclusive(self):
        with pytest.raises(TypeError):
            TDAC(MajorityVote(), config=TDACConfig(), seed=1)
        with pytest.raises(TypeError):
            IncrementalTDAC(MajorityVote(), config=TDACConfig(), seed=1)


class TestRemovedSpellings:
    """The per-knob keyword spellings removed in 1.7.0 raise, not fold."""

    @pytest.mark.parametrize(
        "construct",
        [
            pytest.param(lambda ds: TDAC(MajorityVote(), seed=7), id="TDAC"),
            pytest.param(
                lambda ds: IncrementalTDAC(MajorityVote(), seed=0),
                id="IncrementalTDAC",
            ),
            pytest.param(
                lambda ds: TruthService(MajorityVote(), ds, max_batch_size=8),
                id="TruthService",
            ),
            pytest.param(
                lambda ds: TruthService.restore("store", refit="full"),
                id="TruthService.restore",
            ),
            pytest.param(
                lambda ds: TruthServer(object(), max_line_bytes=4096),
                id="TruthServer",
            ),
            pytest.param(
                lambda ds: ShardRouter(MajorityVote(), ds, max_wait_ms=2.5),
                id="ShardRouter",
            ),
            pytest.param(
                lambda ds: serve_network(
                    object(), "127.0.0.1:0", idle_timeout=1.0
                ),
                id="serve_network",
            ),
        ],
    )
    def test_old_spelling_raises_type_error(self, dataset, construct):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            construct(dataset)


class TestResultSchema:
    def test_run_to_dict_uses_versioned_schema(self, dataset):
        from repro.core import RESULT_SCHEMA, RESULT_SCHEMA_KEYS

        outcome = TDAC(MajorityVote(), config=TDACConfig(seed=0)).run(dataset)
        payload = outcome.to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        assert tuple(sorted(payload)) == tuple(sorted(RESULT_SCHEMA_KEYS))
        assert payload["partition"] is not None

    def test_plain_result_to_dict_shares_schema(self, dataset):
        from repro.core import RESULT_SCHEMA

        result = MajorityVote().discover(dataset)
        payload = result.to_dict()
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["partition"] is None

    def test_result_round_trips_through_from_dict(self, dataset):
        import json

        from repro.core import result_from_dict

        result = MajorityVote().discover(dataset)
        # Through real JSON, so type erasure (tuples -> arrays) applies.
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        rebuilt = result_from_dict(payload)
        assert rebuilt.algorithm == result.algorithm
        assert rebuilt.iterations == result.iterations
        assert dict(rebuilt.predictions) == {
            fact: value for fact, value in result.predictions.items()
        }
        assert dict(rebuilt.source_trust) == dict(result.source_trust)
        assert dict(rebuilt.confidence) == dict(result.confidence)
        # And the rebuilt result re-serializes byte-identically.
        assert (
            json.dumps(rebuilt.to_dict(), sort_keys=True)
            == json.dumps(result.to_dict(), sort_keys=True)
        )

    def test_result_from_dict_rejects_wrong_schema(self):
        from repro.core import result_from_dict

        with pytest.raises(ValueError):
            result_from_dict({"schema": "tdac-result/v0"})
