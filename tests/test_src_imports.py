"""Import hygiene under ``src/repro``.

The package stands alone: nothing imports the tests.  An installed
package does not ship ``tests/``, so an import of the test oracles from
the package would work in a checkout and break on install.  And no
module imports another module's underscore-prefixed names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_no_package_module_imports_tests():
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}: {module}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for module in imported_modules(path)
        if module.split(".")[0] == "tests"
    ]
    assert offenders == []


def imported_private_names(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{node.lineno}: {module}.{alias.name}"


def test_no_package_module_imports_a_private_name():
    """A module's underscore names are its own: another module that
    needs one should get a public entry point instead."""
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{name}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for name in imported_private_names(path)
    ]
    assert offenders == []
