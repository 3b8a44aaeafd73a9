#!/usr/bin/env python3
"""Check that documentation cross-references resolve.

Four audits, all stdlib-only and runnable anywhere the repo is
checked out (``python tools/check_doc_links.py``; the tier-1 test
``tests/test_doc_links.py`` runs it):

1. **Markdown links.**  Scans ``docs/*.md``, ``README.md``,
   ``DESIGN.md`` and ``EXPERIMENTS.md`` for inline markdown links ``[text](target)``, skips
   absolute URLs and pure anchors, and resolves each remaining target
   (anchor stripped) relative to the file containing it.
2. **CLI epilogs.**  Parses ``src/repro/cli.py`` and requires every
   subcommand registered via ``add_parser`` to carry an ``epilog``
   naming at least one documentation page (``docs/<name>.md`` or
   ``DESIGN.md``), each of which must exist — so ``repro <cmd>
   --help`` always points at live documentation and a renamed doc
   page cannot silently orphan a command's help text.
3. **Module references.**  In the same documents (outside fenced code
   blocks), every backticked dotted name ``repro.<a>.<b>…`` must name
   a module under ``src/``, optionally followed by attributes; after a
   package the next name must be a submodule or a name its
   ``__init__`` defines.  Every ``repro/…/*.py`` path must be a file
   under ``src/``.  A moved or deleted module cannot leave the docs
   pointing at it.
4. **Test and script paths.**  In the same documents (outside fenced
   code blocks), every backticked ``tests/``, ``benchmarks/``,
   ``bench/``, ``tools/`` or ``examples/`` path ending in ``.py`` must
   be a file, and a ``::Class::test`` suffix must name a class or
   function in it (then a member of that class), found by parsing the
   file.  A deleted or renamed test cannot leave the docs citing it.

Exits non-zero listing every broken reference.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

# Inline links only; reference-style links are not used in this repo.
# Excludes images' leading "!" capture implicitly (the target check is
# identical either way).
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def iter_doc_files(root: Path):
    yield root / "README.md"
    yield root / "DESIGN.md"
    yield root / "EXPERIMENTS.md"
    yield from sorted((root / "docs").glob("*.md"))


def prose_lines(path: Path):
    """``(lineno, line)`` for each line outside fenced code blocks."""
    in_code = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_code = not in_code
        elif not in_code:
            yield lineno, line


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    for lineno, line in prose_lines(path):
        for match in LINK.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                rel = path.relative_to(root)
                errors.append(f"{rel}:{lineno}: broken link -> {match.group(1)}")
    return errors


# Documentation pages a CLI epilog may point at.
DOC_PAGE = re.compile(r"docs/[\w.-]+\.md|DESIGN\.md|README\.md")


def check_cli_epilogs(root: Path) -> tuple[int, list[str]]:
    """Audit ``repro <cmd> --help`` epilogs against the docs tree."""
    cli = root / "src" / "repro" / "cli.py"
    rel = cli.relative_to(root)
    errors: list[str] = []
    audited = 0
    for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8"))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
        ):
            continue
        audited += 1
        command = (
            node.args[0].value
            if node.args and isinstance(node.args[0], ast.Constant)
            else "<dynamic>"
        )
        epilog = next(
            (
                kw.value.value
                for kw in node.keywords
                if kw.arg == "epilog" and isinstance(kw.value, ast.Constant)
            ),
            None,
        )
        if not epilog:
            errors.append(
                f"{rel}:{node.lineno}: subcommand '{command}' has no "
                f"epilog naming its documentation page"
            )
            continue
        pages = DOC_PAGE.findall(epilog)
        if not pages:
            errors.append(
                f"{rel}:{node.lineno}: subcommand '{command}' epilog "
                f"names no docs/*.md page"
            )
        for page in pages:
            if not (root / page).exists():
                errors.append(
                    f"{rel}:{node.lineno}: subcommand '{command}' epilog "
                    f"-> missing {page}"
                )
    return audited, errors


BACKTICKED = re.compile(r"`+([^`]+)`+")
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
SOURCE_PATH = re.compile(r"(?<![\w.])(?:src/)?(repro/[\w/]+\.py)\b")


def defined_names(path: Path) -> set[str]:
    """Top-level names a module binds (defs, classes, assignments and
    imports)."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0] for alias in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def resolve_dotted(name: str, src: Path) -> bool:
    """True when ``name`` is a module under ``src`` followed by zero or
    more attributes, the first of which a package's ``__init__``
    defines."""
    parts = name.split(".")
    path = src / parts[0]
    for part in parts[1:]:
        if (path / part / "__init__.py").exists():
            path = path / part
        elif (path / f"{part}.py").exists():
            return True  # a module: anything after it is an attribute
        else:
            return part in defined_names(path / "__init__.py")
    return True


def check_module_references(path: Path, root: Path) -> list[str]:
    src = root / "src"
    rel = path.relative_to(root)
    errors = []
    for lineno, line in prose_lines(path):
        for span in BACKTICKED.finditer(line):
            for match in DOTTED.finditer(span.group(1)):
                if not resolve_dotted(match.group(0), src):
                    errors.append(f"{rel}:{lineno}: unknown module -> {match.group(0)}")
        for match in SOURCE_PATH.finditer(line):
            if not (src / match.group(1)).is_file():
                errors.append(f"{rel}:{lineno}: missing source file -> {match.group(0)}")
    return errors


REPO_PATH = re.compile(
    r"(?<![\w./-])((?:tests|benchmarks|bench|tools|examples)/[\w/.-]*\.py)"
    r"((?:::\w+)*)"
)


def resolve_node_id(path: Path, names: list[str]) -> bool:
    """True when ``names`` walks from ``path``'s top level down through
    class bodies to a defined class or function."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next(
            (
                node
                for node in body
                if isinstance(
                    node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and node.name == name
            ),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def check_repo_paths(path: Path, root: Path) -> tuple[int, list[str]]:
    rel = path.relative_to(root)
    audited = 0
    errors = []
    for lineno, line in prose_lines(path):
        for span in BACKTICKED.finditer(line):
            for match in REPO_PATH.finditer(span.group(1)):
                audited += 1
                target = root / match.group(1)
                names = [name for name in match.group(2).split("::") if name]
                if not target.is_file():
                    errors.append(f"{rel}:{lineno}: missing file -> {match.group(0)}")
                elif names and not resolve_node_id(target, names):
                    errors.append(
                        f"{rel}:{lineno}: no such test or class -> {match.group(0)}"
                    )
    return audited, errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors = []
    checked = 0
    paths = 0
    for path in iter_doc_files(root):
        if not path.exists():
            errors.append(f"missing expected doc file: {path.relative_to(root)}")
            continue
        checked += 1
        errors.extend(check_file(path, root))
        errors.extend(check_module_references(path, root))
        audited, path_errors = check_repo_paths(path, root)
        paths += audited
        errors.extend(path_errors)
    commands, epilog_errors = check_cli_epilogs(root)
    errors.extend(epilog_errors)
    if errors:
        print(f"{len(errors)} broken reference(s) across {checked} doc "
              f"file(s) and {commands} CLI command(s):")
        for err in errors:
            print(f"  {err}")
        return 1
    print(f"ok: {checked} doc files, all relative links, module "
          f"references and {paths} test/script paths resolve; "
          f"{commands} CLI epilogs name existing doc pages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
