"""Meta-tests: the documentation must match the code it describes.

Docs drift silently; these tests pin the claims that are cheap to
verify mechanically — referenced files exist, the algorithm list in the
docs matches the registry, the bench mapping in the README points at
real bench files, every ``make`` target and ``BENCH_*.json`` artefact
the docs name exists, the examples table lists exactly the scripts
in ``examples/``, and every ``repro`` import in a python code block
resolves.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.algorithms import available

ROOT = Path(__file__).resolve().parents[1]


def read(name: str) -> str:
    return (ROOT / name).read_text()


def make_targets() -> set[str]:
    return set(re.findall(r"^([\w-]+):", read("Makefile"), re.MULTILINE))


class TestReadme:
    def test_referenced_docs_exist(self):
        readme = read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in readme
            assert (ROOT / name).is_file()

    def test_bench_table_points_at_real_files(self):
        readme = read("README.md")
        for match in re.findall(r"`(?:benchmarks/)?(bench_\w+\.py)`", readme):
            assert (ROOT / "benchmarks" / match).is_file(), match

    @pytest.mark.parametrize(
        "doc", ["README.md", "DESIGN.md", "CONTRIBUTING.md"]
    )
    def test_make_targets_exist(self, doc):
        targets = make_targets()
        for match in re.findall(r"`make ([\w-]+)[^`]*`", read(doc)):
            assert match in targets, f"{doc}: make {match}"

    def test_bench_artefacts_exist(self):
        for match in re.findall(r"BENCH_\w+\.json", read("README.md")):
            assert (ROOT / match).is_file(), match

    def test_examples_table_matches_directory(self):
        readme = read("README.md")
        listed = set(re.findall(r"`(\w+\.py)`", readme))
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert on_disk <= listed | {"__init__.py"}, on_disk - listed

    def test_algorithm_count_claim_is_current(self):
        readme = read("README.md")
        assert "seventeen truth discovery algorithms" in readme
        assert len(available()) == 17


class TestDesign:
    def test_experiment_index_benches_exist(self):
        design = read("DESIGN.md")
        for match in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (ROOT / "benchmarks" / match).is_file(), match

    def test_mentions_every_subpackage(self):
        design = read("DESIGN.md")
        for package in (
            "repro.data",
            "repro.algorithms",
            "repro.clustering",
            "repro.core",
            "repro.baselines",
            "repro.datasets",
            "repro.metrics",
            "repro.evaluation",
        ):
            assert package in design, package

    def test_paper_check_recorded(self):
        assert "Paper-text check" in read("DESIGN.md")


class TestExperiments:
    def test_every_artefact_mentioned_exists_or_is_generated(self):
        experiments = read("EXPERIMENTS.md")
        for match in re.findall(r"`(bench_\w+\.py)`", experiments):
            assert (ROOT / "benchmarks" / match).is_file(), match

    def test_regeneration_command_present(self):
        assert "pytest benchmarks/ --benchmark-only" in read("EXPERIMENTS.md")


class TestAlgorithmDocs:
    def test_docs_cover_every_registered_algorithm(self):
        documented = read("docs/algorithms.md")
        for name in available():
            token = {
                "2-Estimates": "2-Estimates",
                "3-Estimates": "3-Estimates",
                "DEPEN": "DEPEN",
            }.get(name, name)
            assert token in documented, name


DOCS_WITH_CODE = ["README.md", "DESIGN.md", "CONTRIBUTING.md"] + sorted(
    f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")
)


def python_blocks(doc: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", read(doc), re.M | re.S)


def repro_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported ``repro`` name; ``name`` is None
    for a plain ``import repro...``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names
                      if a.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.split(".")[0] == "repro"
        ):
            found += [(node.module, a.name) for a in node.names]
    return found


class TestCodeBlockImports:
    @pytest.mark.parametrize("doc", DOCS_WITH_CODE)
    def test_repro_imports_resolve(self, doc):
        for block in python_blocks(doc):
            for module, name in repro_imports(ast.parse(block)):
                mod = importlib.import_module(module)
                if name is None or hasattr(mod, name):
                    continue
                # ``from repro import store`` names a submodule.
                try:
                    importlib.import_module(f"{module}.{name}")
                except ImportError:
                    pytest.fail(f"{doc}: from {module} import {name}")
