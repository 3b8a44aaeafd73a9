"""Import hygiene under ``src/repro``.

The package stands alone: nothing imports the tests.  An installed
package does not ship ``tests/``, so an import of the test oracles from
the package would work in a checkout and break on install.  It needs
nothing beyond the standard library, so it declares no runtime
dependency.  No module imports another module's underscore-prefixed
names.  No module imports ``subprocess``: a harness that drives
``repro`` subprocesses belongs in ``tests/``.  Every module is
reachable from the CLI: a model only the tests call belongs in
``tests/oracles/``.  And a simulation process maps no OpenSSL: the
package hashes with CPython's builtin SHA-256.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: CPython's builtin SHA-256 (``repro.integrity.sha256``) is ``_sha256``
#: on 3.10-3.11 and ``_sha2`` from 3.12; the package tries both, and each
#: interpreter's ``sys.stdlib_module_names`` names only its own.
BUILTIN_SHA256 = {"_sha2", "_sha256"}


def test_package_imports_only_the_standard_library():
    """Lazy imports inside functions count too."""
    allowed = sys.stdlib_module_names | BUILTIN_SHA256 | {"repro"}
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}: {module}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for module in imported_modules(path)
        if module.split(".")[0] not in allowed
    ]
    assert offenders == []


def test_no_package_module_imports_subprocess():
    """The package runs simulations and sweeps in its own processes
    (worker pools spawn through ``multiprocessing``); driving real
    ``repro`` subprocesses, as the crash-consistency scenarios do, is
    test code."""
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}: {module}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for module in imported_modules(path)
        if module.split(".")[0] == "subprocess"
    ]
    assert offenders == []


def test_entry_points_load_without_numpy():
    """The CLI, the cluster roles and the executor leave numpy unloaded,
    so no process pays for importing it."""
    code = (
        "import sys\n"
        "import repro.cli, repro.cluster.agent, repro.cluster.master, repro.exec\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_simulation_processes_map_no_openssl():
    """Building and running simulations, closed and open, faulted and
    not, hashes with the builtin SHA-256 and never imports ``hashlib``
    or ``ssl``, which map OpenSSL's libcrypto into the process."""
    code = (
        "import sys\n"
        "import repro, repro.experiments.figure8, repro.experiments.open_workload\n"
        "import repro.exec.hashing\n"
        "from repro.experiments import open_workload\n"
        "from repro.simulation import runner\n"
        "from repro.simulation.config import ScaledConfig\n"
        "base = open_workload.base_config(10)\n"
        "rate = 0.8 * open_workload.nominal_capacity_rate(base)\n"
        "configs = [\n"
        "    ScaledConfig(scale=10, technique='staggered'),\n"
        "    open_workload.cell_config(base, 'staggered', rate).with_(\n"
        "        redundancy='mirror', fail_at=((0, 5),)),\n"
        "    ScaledConfig(scale=10, technique='vdr', redundancy='mirror',\n"
        "                 fail_at=((0, 5),)),\n"
        "]\n"
        "for config in configs:\n"
        "    runner.build_engine(config).run(20, 200)\n"
        "repro.exec.hashing.digest_document({'seed': 1})\n"
        "loaded = sorted({'_hashlib', 'hashlib', 'ssl'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


#: Modules the CLI imports only inside the functions that need them:
#: the entry-point shim, the cluster roles (``master`` / ``agent`` and
#: ``--master-url``), ``obs-diff``, and the fault coordinators a run
#: builds only when it injects faults.
LAZILY_IMPORTED = {
    "repro.__main__",
    "repro.cluster",
    "repro.cluster.agent",
    "repro.cluster.client",
    "repro.cluster.master",
    "repro.cluster.protocol",
    "repro.cluster.registry",
    "repro.faults",
    "repro.faults.coordinator",
    "repro.faults.injector",
    "repro.faults.redundancy",
    "repro.obs.aggregate",
}


def package_modules():
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def test_cli_loads_every_module_but_the_lazy_ones():
    """A module that importing the CLI does not load, and that is not
    one of its lazy imports, has no production caller."""
    code = (
        "import sys, repro.cli\n"
        "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert sorted(set(package_modules()) - loaded - LAZILY_IMPORTED) == []
    assert sorted(LAZILY_IMPORTED & loaded) == []


def test_lazy_imports_are_imported_somewhere():
    """Each lazily imported module is still named by an import in the
    package (``__main__`` is the ``python -m repro`` entry point)."""
    named = {
        module
        for path in PACKAGE_ROOT.rglob("*.py")
        for module in imported_modules(path)
    }
    named |= {module.rsplit(".", 1)[0] for module in named}
    assert sorted(LAZILY_IMPORTED - named - {"repro.__main__"}) == []


@pytest.mark.parametrize(
    "faults", ["mttf=400.0", "fail_at=((0, 5),)"], ids=["mttf", "fail_at"]
)
def test_fault_free_runs_leave_the_fault_package_unloaded(faults):
    """Building and stepping a fault-free engine, staggered or VDR,
    imports no ``repro.faults`` module; a config that injects faults
    loads all of them."""
    fault_modules = sorted(
        module for module in package_modules()
        if module.split(".")[:2] == ["repro", "faults"]
    )
    code = (
        "import sys\n"
        "from repro.simulation import runner\n"
        "from repro.simulation.config import ScaledConfig\n"
        f"fault_modules = {fault_modules!r}\n"
        "def loaded():\n"
        "    return [m for m in fault_modules if m in sys.modules]\n"
        "for technique in ('staggered', 'vdr'):\n"
        "    config = ScaledConfig(scale=50, technique=technique)\n"
        "    runner.build_engine(config).run(20, 200)\n"
        "    assert loaded() == [], loaded()\n"
        f"config = ScaledConfig(scale=50, technique='staggered', {faults})\n"
        "runner.build_engine(config).run(20, 200)\n"
        "assert loaded() == fault_modules, loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


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


def test_physical_replay_is_only_a_test_oracle():
    """The drive-by-drive replay of the pool's schedules lives in
    ``tests/oracles/physical.py``; the package keeps one half-slot
    accountant (the slot pool) and defines no replay of its own."""
    oracle_only = {"validate_interval", "replay_interval"}
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{node.lineno}: {node.name}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for node in ast.walk(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if isinstance(node, ast.FunctionDef) and node.name in oracle_only
    ]
    assert offenders == []
