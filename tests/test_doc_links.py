"""The documentation's links, CLI epilogs and module references
resolve (``tools/check_doc_links.py``)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_doc_links.py"


def test_doc_references_resolve():
    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stdout + result.stderr
