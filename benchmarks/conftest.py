"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures, prints it,
and also writes it under ``benchmarks/output/`` so the regenerated
artefacts survive pytest's output capture and can be diffed against
EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"

# The engine bench compares against the loop oracles in ``tests/oracles``.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def record_artifact(artifact_dir):
    """Print a regenerated artefact and persist it to disk."""

    def _record(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (artifact_dir / f"{name}.txt").write_text(text + "\n")

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The paper's experiments are minutes-long pipelines; re-running them
    the tens of times pytest-benchmark defaults to would be pointless.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
