"""The documentation's links, CLI epilogs, module references and test
paths resolve (``tools/check_doc_links.py``)."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_doc_links.py"


def test_doc_references_resolve():
    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_stale_test_paths_are_reported(tmp_path):
    spec = importlib.util.spec_from_file_location("check_doc_links", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "class TestA:\n    def test_b(self):\n        pass\n"
    )
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`tests/test_x.py::TestA::test_b`, `tests/test_x.py::TestA::test_c`\n"
        "`tests/gone.py`, and in a fence:\n"
        "```\ntests/gone.py `tests/gone.py`\n```\n"
    )
    audited, errors = tool.check_repo_paths(doc, tmp_path)
    assert audited == 3
    assert errors == [
        "doc.md:1: no such test or class -> tests/test_x.py::TestA::test_c",
        "doc.md:2: missing file -> tests/gone.py",
    ]
