"""The golden suite under the strict sanitizer.

``REPRO_SANITIZE=strict`` checks every invariant of every run a process
makes.  The goldens, the sanitizer's own tests and the two
engine-identity modules run once as they are (with the rest of the
suite) and once more here, in a child pytest with the variable set, so
their test ids stay as they are and a strict failure names the module
and test that broke.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.sim.sanitize import SANITIZE_ENV

ROOT = Path(__file__).resolve().parent.parent

STRICT_MODULES = (
    "tests/golden",
    "tests/sim/test_sanitize.py",
    "tests/simulation/test_des_engine.py",
    "tests/simulation/test_batch_identity.py",
)


def test_golden_modules_pass_under_the_strict_sanitizer():
    env = {**os.environ, SANITIZE_ENV: "strict"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *STRICT_MODULES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-6000:] + result.stderr
