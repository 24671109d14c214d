"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats is the slowest import in the tree; only CATD and
    # ContinuousCATD need it, and they import it on first solve.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


class TestListing:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "DS1" in out
        assert "Stocks" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "Accu" in out
        assert "TruthFinder" in out


class TestRun:
    def test_plain_algorithm(self, capsys):
        assert main(["run", "MajorityVote", "DS1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "MajorityVote" in out
        assert "Accuracy" in out

    def test_tdac_prefix(self, capsys):
        assert main(["run", "TDAC+MajorityVote", "DS1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "TD-AC (F=MajorityVote)" in out
        assert "partition:" in out


class TestTables:
    def test_table4_without_brute_force(self, capsys):
        assert main(["table4", "DS1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "TD-AC (F=Accu)" in out

    def test_table8(self, capsys):
        assert main(["table8"]) == 0
        out = capsys.readouterr().out
        for name in ("Stocks", "Exam 62", "Flights"):
            assert name in out

    def test_bad_dataset_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["table4", "DS9"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_assembles_artifacts(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        (artifacts / "table4_demo.txt").write_text("CONTENT\n")
        destination = tmp_path / "out.md"
        assert main(
            [
                "report",
                "--output-dir",
                str(artifacts),
                "--destination",
                str(destination),
            ]
        ) == 0
        assert "CONTENT" in destination.read_text()


class TestLeaderboard:
    def test_leaderboard_ranks(self, capsys):
        assert main(
            [
                "leaderboard",
                "DS1",
                "--scale",
                "0.02",
                "--no-tdac",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Rank" in out
        assert "MajorityVote" in out


class TestServeResume:
    def test_resume_parses_one_checkpoint(self, tmp_path, monkeypatch):
        import io
        import json

        from repro.store import SnapshotStore

        argv = [
            "serve", "MajorityVote", "DS1", "--scale", "0.05",
            "--store-dir", str(tmp_path),
        ]

        def serve_one_claim(run):
            claim = {"source": "alpha-1", "object": f"resume-{run}",
                     "attribute": "a1", "value": "v"}
            line = json.dumps({"op": "ingest", "claims": [claim]})
            monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
            assert main(argv) == 0

        serve_one_claim(0)
        serve_one_claim(1)
        # Each ingest moves the watermark, and checkpoint names are
        # content-addressed by it, so every run leaves a new file.
        assert len(SnapshotStore(tmp_path / "snapshots").entries()) >= 3

        calls = []
        original = SnapshotStore.load

        def counting_load(self, path):
            calls.append(path)
            return original(self, path)

        monkeypatch.setattr(SnapshotStore, "load", counting_load)
        serve_one_claim(2)
        assert len(calls) == 1
