"""The serve path's import cost: scipy loads only when an algorithm needs it.

``repro.algorithms`` imports every algorithm, so a module-level scipy
import in any of them is paid by every ``repro serve`` start (about
0.16 s and 13 MB), even one that only runs MajorityVote.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

CHILD = """\
import sys

import repro.cli
from repro import MajorityVote, TDAC
from repro.datasets import make_synthetic

TDAC(MajorityVote()).run(make_synthetic("DS1", n_objects=15, seed=11).dataset)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_majority_vote_run_imports_no_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"
