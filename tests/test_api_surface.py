"""Golden-file snapshot of the public API surface.

Guards the v1 compatibility promise: ``repro.__all__``, the public
constructor signatures of the serving layer, and the frozen wire
schemas (``tdac-serve/v1``, ``tdac-result/v1``) are snapshotted into
``tests/golden/api_surface.json``.  Any drift — a renamed kwarg, a
dropped export, a reordered schema field — fails here before it ships.

Intentional surface changes regenerate the golden file::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_api_surface.py

and the diff of the golden JSON becomes the reviewable API change.
"""

import inspect
import json
import os
from pathlib import Path

import pytest

import repro
from repro.core import RESULT_SCHEMA
from repro.serving import (
    SERVE_SCHEMA,
    AsyncTruthClient,
    ServeEnvelope,
    ServiceConfig,
    TenantRegistry,
    TruthServer,
    TruthService,
)
from repro.serving import schema as serving_schema
from repro.store import TruthStore

GOLDEN_PATH = Path(__file__).parent / "golden" / "api_surface.json"

#: The constructors whose signatures are part of the compatibility
#: promise.  ``ServiceConfig`` covers the consolidated service/server
#: knobs, so these signatures changing is a breaking API event.
PUBLIC_CONSTRUCTORS = {
    "AsyncTruthClient": AsyncTruthClient,
    "ServiceConfig": ServiceConfig,
    "TenantRegistry": TenantRegistry,
    "TruthServer": TruthServer,
    "TruthService": TruthService,
    "TruthStore": TruthStore,
}


def _signature(cls) -> str:
    # ``self`` stripped; defaults rendered via repr — both stable.
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return str(inspect.Signature(params))


def current_surface() -> dict:
    return {
        "repro_all": list(repro.__all__),
        "serving_all": list(repro.serving.__all__),
        "constructors": {
            name: _signature(cls)
            for name, cls in sorted(PUBLIC_CONSTRUCTORS.items())
        },
        "schemas": {
            "serve": SERVE_SCHEMA,
            "serve_envelope_keys": list(serving_schema.SERVE_ENVELOPE_KEYS),
            "serve_envelope_fields": [
                f.name for f in ServeEnvelope.__dataclass_fields__.values()
            ],
            "result": RESULT_SCHEMA,
        },
    }


def test_api_surface_matches_golden():
    surface = current_surface()
    rendered = json.dumps(surface, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(rendered)
        pytest.skip("golden file regenerated")
    assert GOLDEN_PATH.exists(), (
        "missing golden API snapshot; regenerate with REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert surface == golden, (
        "public API surface drifted from tests/golden/api_surface.json; "
        "if intentional, regenerate with REGEN_GOLDEN=1 and review the "
        "diff (removals/renames need a deprecation cycle per CHANGELOG)"
    )


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"
    for name in repro.serving.__all__:
        assert hasattr(repro.serving, name), (
            f"repro.serving.__all__ lists missing {name!r}"
        )


def test_schema_identifiers_are_versioned():
    assert SERVE_SCHEMA == "tdac-serve/v1"
    assert RESULT_SCHEMA == "tdac-result/v1"
