"""Smoke test: the quick demos run to completion.

``bf16_parity.py`` trains several full runs (about 10 s) and is left out
to keep the default suite short.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["format_limits.py",
                                  "rounding_and_underflow.py",
                                  "loss_scaling_rescue.py"])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
