"""The benchmark harness's layer wrappers still find every name they wrap.

``perfbench/layers.py`` ``install`` looks up each wrapped callable with
``getattr`` on the module or class its callers use, so renaming or
deleting one of them (say ``repro.core.incremental.run_blocks``) would
only break ``perfbench/run.py --trace 1``.  This test installs the
wrappers in a subprocess — ``install`` monkeypatches process-wide — and
requires a clean exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_layers_install_finds_every_wrapped_name():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import layers; "
        "layers.install(layers.Tracer())"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
