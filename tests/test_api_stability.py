"""API-stability guarantees for the ``repro`` 1.x public surface.

Two contracts are pinned here:

* every symbol in ``repro.__all__`` imports from ``repro`` directly and
  stays importable from its documented home module;
* the per-knob keyword spellings whose deprecation windows closed
  (``TDAC(base, seed=...)``, ``TruthService(..., max_batch_size=...)``,
  ...) are rejected with :class:`TypeError`; knobs travel only through
  ``TDACConfig`` / ``ServiceConfig``, and ``partition_cache=`` is
  rejected the same way, as are the serving stack's second-config
  overrides (``TruthServer(service_config=...)``, ...).
"""

import dataclasses
import importlib
import inspect
import warnings

import pytest

import repro
from repro import (
    IncrementalTDAC,
    MajorityVote,
    ServiceConfig,
    TDAC,
    TDACConfig,
    TenantRegistry,
    TruthServer,
    TruthService,
)
from repro.cli import main as cli_main
from repro.core.config import RESULT_AFFECTING_FIELDS, config_from_dict
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
                            "IncrementalTDAC", "RESULT_SCHEMA", "result_to_dict",
                            "result_from_dict", "config_from_dict"]),
            ("repro.store", ["TruthStore", "ClaimWAL", "SnapshotStore",
                             "WALCorruptionWarning", "StoreError"]),
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
        assert repro.__version__ == "1.22.0"

    def test_store_symbols_are_top_level(self):
        from repro import TruthStore, store  # noqa: F401


class TestTDACConfig:
    def test_is_frozen(self):
        config = TDACConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_fingerprints_are_pinned(self):
        # Checkpoints are content-addressed by these digests; a change
        # here orphans every stored checkpoint.
        assert TDACConfig().fingerprint() == "bbd566bb65d39e1f"
        assert (
            TDACConfig(seed=1, distance="masked").fingerprint()
            == "7d2f751449932bda"
        )

    def test_fingerprint_tracks_result_affecting_knobs(self):
        fingerprints = {
            TDACConfig().fingerprint(),
            TDACConfig(seed=1).fingerprint(),
            TDACConfig(k_min=3).fingerprint(),
            TDACConfig(distance="masked").fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_result_affecting_fields_exist(self):
        fields = [f.name for f in dataclasses.fields(TDACConfig)]
        assert fields == list(RESULT_AFFECTING_FIELDS)

    def test_rejects_negative_seed(self):
        # numpy's default_rng refuses a negative seed only deep inside a
        # fit or a dataset generator; the config refuses it up front, by
        # name, and the CLI builds its config before loading any corpus.
        with pytest.raises(ValueError, match="seed"):
            TDACConfig(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            cli_main(["serve", "--seed", "-1"])


class TestOldCheckpointConfigs:
    """1.8.0 checkpoints store seven retired placement knobs beside the
    five fields; they restore, and a float32 one is refused."""

    LEGACY = {
        "distance": "hamming", "k_min": 2, "k_max": None, "n_init": 10,
        "seed": 0, "n_jobs": 1, "backend": "threads", "sparse": "auto",
        "sparse_threshold": 500000, "dtype": "float64",
        "memmap_threshold": None, "execution_policy": None,
        "fingerprint": "bbd566bb65d39e1f",
    }

    def test_legacy_payload_restores(self):
        config = config_from_dict(self.LEGACY)
        assert config == TDACConfig()
        assert config.fingerprint() == "bbd566bb65d39e1f"

    def test_float32_payload_is_refused(self):
        payload = dict(
            self.LEGACY, dtype="float32", fingerprint="29e05815635d2f6e"
        )
        with pytest.raises(ValueError, match="fingerprint"):
            config_from_dict(payload)

    def test_round_trip(self):
        config = TDACConfig(seed=1, distance="masked", k_max=4)
        assert config_from_dict(config.to_dict()) == config


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


def _stopped_registry() -> TenantRegistry:
    registry = TenantRegistry()
    registry.stop()
    return registry


class TestRemovedSpellings:
    """The per-knob keyword spellings removed in 1.7.0 raise, not fold,
    and so does ``partition_cache=``, removed with the cache in 1.13.0,
    and every serving override removed in 1.15.0 (one ServiceConfig per
    stack).  Where the old spelling would have run, the call is built
    to fail fast some other way, so no case can pass by accident."""

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
                lambda ds: TDAC(MajorityVote(), partition_cache=None),
                id="TDAC-partition_cache",
            ),
            pytest.param(
                lambda ds: IncrementalTDAC(
                    MajorityVote(), partition_cache=None
                ),
                id="IncrementalTDAC-partition_cache",
            ),
            pytest.param(
                lambda ds: TruthService(
                    MajorityVote(), ds, partition_cache=None
                ),
                id="TruthService-partition_cache",
            ),
            pytest.param(
                lambda ds: TruthService.restore(
                    "store", partition_cache=None
                ),
                id="TruthService.restore-partition_cache",
            ),
            pytest.param(
                lambda ds: TenantRegistry(partition_cache=None),
                id="TenantRegistry-partition_cache",
            ),
            pytest.param(
                lambda ds: TruthServer(object(), max_line_bytes=4096),
                id="TruthServer",
            ),
            pytest.param(
                lambda ds: serve_network(
                    object(), "127.0.0.1:0", idle_timeout=1.0
                ),
                id="serve_network",
            ),
            pytest.param(
                lambda ds: TruthServer(
                    object(), service_config=ServiceConfig()
                ),
                id="TruthServer-service_config",
            ),
            pytest.param(
                lambda ds: TruthServer(object(), tracer=None),
                id="TruthServer-tracer",
            ),
            pytest.param(
                lambda ds: TruthServer(object(), stop_service_on_drain=False),
                id="TruthServer-stop_service_on_drain",
            ),
            pytest.param(
                lambda ds: serve_network(
                    object(), "no-port", service_config=ServiceConfig()
                ),
                id="serve_network-service_config",
            ),
            pytest.param(
                lambda ds: serve_network(
                    object(), "no-port", stop_service_on_drain=False
                ),
                id="serve_network-stop_service_on_drain",
            ),
            pytest.param(
                lambda ds: serve_network(object(), "no-port", tracer=None),
                id="serve_network-tracer",
            ),
            pytest.param(
                lambda ds: serve_network(
                    object(), "no-port", install_signal_handlers=False
                ),
                id="serve_network-install_signal_handlers",
            ),
            pytest.param(
                lambda ds: _stopped_registry().register(
                    "t", MajorityVote(), ds, service_config=ServiceConfig()
                ),
                id="TenantRegistry.register-service_config",
            ),
            pytest.param(
                lambda ds: ServiceConfig(write_timeout=10.0),
                id="ServiceConfig-write_timeout",
            ),
            pytest.param(
                lambda ds: ServiceConfig(write_buffer_bytes=256 * 1024),
                id="ServiceConfig-write_buffer_bytes",
            ),
        ],
    )
    def test_old_spelling_raises_type_error(self, dataset, construct):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            construct(dataset)

    @pytest.mark.parametrize("method", ["replace", "to_dict"])
    def test_service_config_helpers_are_gone(self, method):
        # ``dataclasses.replace(config, ...)`` is the copy-with-changes.
        with pytest.raises(AttributeError):
            getattr(ServiceConfig(), method)

    def test_truth_snapshot_from_dict_is_gone(self):
        # Restore reads a checkpoint's ``serving`` metadata and dataset;
        # ``result_from_dict`` is the result decoder.
        from repro.serving import TruthSnapshot

        with pytest.raises(AttributeError):
            TruthSnapshot.from_dict  # noqa: B018

    def test_service_config_from_dict_is_gone(self):
        with pytest.raises(ImportError):
            from repro.serving import service_config_from_dict  # noqa: F401
        with pytest.raises(ImportError):
            from repro.serving.config import (  # noqa: F401
                service_config_from_dict,
            )

    def test_service_config_has_nine_fields(self):
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "refit", "max_batch_size", "max_wait_ms", "queue_capacity",
            "snapshot_every", "max_line_bytes",
            "max_inflight_per_connection", "idle_timeout", "drain_timeout",
        ]


class TestIncrementalSurface:
    """1.10.0 removed the delta path's tuning knobs; 1.13.0 its cache."""

    def test_incremental_takes_two_parameters(self):
        assert list(inspect.signature(IncrementalTDAC).parameters) == [
            "base", "config",
        ]


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
