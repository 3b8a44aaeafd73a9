"""Import hygiene under ``src/repro``.

The package stands alone: nothing imports the tests.  An installed
package does not ship ``tests/``, so an import of the test oracles from
the package would work in a checkout and break on install.  It needs
nothing beyond the standard library, so it declares no runtime
dependency.  No module imports another module's underscore-prefixed
names.  No module imports ``subprocess``: a harness that drives
``repro`` subprocesses belongs in ``tests/``.  Every module is
reachable from the CLI, and every definition has a caller in the
package (or a one-line reason on :data:`UNCALLED`): a model only the
tests call belongs in ``tests/oracles/``.  And no simulation or sweep
process maps OpenSSL: the package hashes with CPython's builtin
SHA-256, and the cluster speaks HTTP over plain sockets.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

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


#: Modules that map OpenSSL's libssl or libcrypto, or (``email``) come
#: in only with the stdlib HTTP client and server.  The cluster speaks
#: HTTP over plain sockets (``repro.cluster.protocol``), and the package
#: hashes with the builtin SHA-256.
OPENSSL_MODULES = (
    "ssl", "http.client", "http.server", "urllib.request", "urllib.error",
    "email",
)


def test_package_imports_no_openssl_module():
    """Lazy imports count too.  ``hashlib`` is allowed only as
    ``repro/integrity.py``'s fallback for an interpreter built without
    the builtin SHA-256."""
    offenders = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}: {module}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for module in imported_modules(path)
        if any(module == banned or module.startswith(banned + ".")
               for banned in OPENSSL_MODULES)
        or (module.split(".")[0] == "hashlib"
            and path != PACKAGE_ROOT / "integrity.py")
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


def test_sweep_processes_map_no_openssl(tmp_path):
    """A local sweep through the result cache, then the same rows
    through a loopback master, a thread-hosted agent and a
    ``master_url`` client, load none of the modules that map OpenSSL
    or carry the stdlib HTTP client and server."""
    code = (
        "import sys, threading\n"
        "from pathlib import Path\n"
        "from repro.cluster.agent import ClusterAgent\n"
        "from repro.cluster.master import ClusterMaster\n"
        "from repro.exec import ResultCache, Supervision, executor, experiment_spec\n"
        "from repro.simulation.config import ScaledConfig\n"
        "work = Path(sys.argv[1])\n"
        "def options(**extra):\n"
        "    return Supervision(heartbeat_dir=work / 'beats',\n"
        "                       handle_signals=False, **extra)\n"
        "specs = [experiment_spec(ScaledConfig(scale=50, num_stations=n))\n"
        "         for n in (2, 3)]\n"
        "local = executor.execute(specs, jobs=1, cache=ResultCache(work / 'local'),\n"
        "                         supervision=options())\n"
        "master = ClusterMaster(port=0, cache_dir=str(work / 'master'),\n"
        "                       options=options())\n"
        "master.start()\n"
        "agent = ClusterAgent(master.url, agent_id='a', jobs=1,\n"
        "                     options=options(), handle_signals=False)\n"
        "thread = threading.Thread(target=agent.run, daemon=True)\n"
        "thread.start()\n"
        "try:\n"
        "    remote = executor.execute(\n"
        "        specs, supervision=options(master_url=master.url))\n"
        "finally:\n"
        "    agent.stop()\n"
        "    thread.join(60)\n"
        "    master.stop()\n"
        "assert not thread.is_alive(), 'agent did not stop'\n"
        "assert [r.payload for r in remote] == [r.payload for r in local]\n"
        "assert all(r.ok for r in local)\n"
        "banned = {'_hashlib', 'hashlib', '_ssl', 'ssl', 'http.client',\n"
        "          'http.server', 'urllib.request', 'email'}\n"
        "loaded = sorted(banned & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(tmp_path)],
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


def test_supervised_pool_is_built_only_by_the_dispatch_path():
    """The local executor and the cluster agent both dispatch through
    ``repro.exec.supervisor.run_tasks``: no other module builds a
    worker pool of its own."""
    sites = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        for node in ast.walk(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if isinstance(node, ast.Call)
        and "SupervisedPool" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ]
    assert sites == ["repro/exec/supervisor.py"]


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


# ----------------------------------------------------------------------
# Caller scan: every definition has a production caller
# ----------------------------------------------------------------------
#: Module- and class-level definitions under ``src/repro`` that nothing
#: in the package names, kept on purpose.  Key: ``module:qualname``.
UNCALLED: Dict[str, str] = {
    "repro.core.display:Display.reads_at":
        "read-only observer: tests/oracles/physical.py replays each display's reads",
    "repro.core.display:Display.delivers_at":
        "read-only observer: the delivery tests check what reaches the station",
    "repro.core.ff_rewind:build_ff_replica":
        "§3.2.5 fast-forward replica: examples/interactive_vcr.py; no workload drives VCR",
    "repro.core.ff_rewind:replica_position":
        "§3.2.5 normal-to-replica jump: examples/interactive_vcr.py",
    "repro.core.ff_rewind:normal_position":
        "§3.2.5 replica-to-normal jump: examples/interactive_vcr.py",
    "repro.core.scheduler:StaggeredStripingPolicy.reposition":
        "§3.2.5 rewind / fast-forward: examples/interactive_vcr.py; no workload drives it",
    "repro.core.object_manager:ObjectManager.is_pinned":
        "read-only observer: a cancelled deferral leaves no pin",
    "repro.simulation.policy:StoragePolicy.pending_count":
        "read-only observer: the queue length the drain tests wait on",
    "repro.core.scheduler:StaggeredStripingPolicy.pending_count":
        "read-only observer: the queue length the drain tests wait on",
    "repro.vdr.scheduler:VirtualReplicationPolicy.pending_count":
        "read-only observer: the queue length the drain tests wait on",
    "repro.core.tertiary_manager:TertiaryManager.queue_length":
        "read-only observer of the materialisation queue",
    "repro.core.virtual_disks:SlotPool.owners_of":
        "read-only observer: the occupancy-index tests recount from it",
    "repro.core.virtual_disks:SlotPool.claimed_halves":
        "read-only observer: the occupancy-index tests recount from it",
    "repro.core.virtual_disks:SlotPool.free_slots":
        "read-only observer: the occupancy-index tests recount from it",
    "repro.core.virtual_disks:SlotPool.free_half_total":
        "read-only observer: the occupancy-index tests recount from it",
    "repro.core.virtual_disks:SlotPool.physical_of":
        "slot-to-drive geometry the physical-replay and delivery oracles read",
    "repro.failpoints:registered_sites":
        "the chaos plan checks every registered site is exercised",
    "repro.faults.injector:FaultInjector.is_down":
        "read-only observer of the injector's failed drives",
    "repro.hardware.disk_array:DiskArray.used_cylinders":
        "read-only observer: the storage tests compare usage with a per-fragment walk",
    "repro.integrity:reset_warnings":
        "test isolation: clears the warn-once set between tests",
    "repro.media.layout:StripingLayout.disk_of":
        "§3.2's fragment address; the layout figures and examples read placements by it",
    "repro.obs.events:__getattr__":
        "bench/layers.py; removed by the benchmark PR",
    "repro.obs.events:SweepProgress.settled_digest":
        "scheduling-independent sweep digest the determinism, cluster and chaos tests compare",
    "repro.sim.sanitize:current_sanitizer":
        "read-only observer of the active run's sanitizer",
    "repro.simulation.policy:Completion.service_intervals":
        "delivery span the M/M/c oracle and examples/interactive_vcr.py read",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Definition:
    key: str
    name: str
    root: bool
    names: Set[str]


def _docstring(node):
    if not isinstance(node, (ast.Module, *DEFINITIONS)):
        return None
    body = node.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0]
    return None


def referenced_names(nodes, skip=()) -> Set[str]:
    """Every name ``nodes`` mention: a Name, an attribute, an imported
    name, or a dotted part of a string constant that is not a
    docstring.  Nodes in ``skip`` (nested definitions, scanned on their
    own) are left out."""
    found: Set[str] = set()
    stack = [node for node in nodes if node not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(
                part for part in re.split(r"[.:]", node.value)
                if part.isidentifier()
            )
        doc = _docstring(node)
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if child is not doc and child not in skip
        )
    return found


def _registers_a_kind(node) -> bool:
    return any(
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Name)
        and decorator.func.id == "register_kind"
        for decorator in node.decorator_list
    )


def _is_all(statement) -> bool:
    targets = getattr(statement, "targets", None) or [
        getattr(statement, "target", None)
    ]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def scan_package() -> Tuple[List[Definition], Set[str]]:
    """The package's definitions, and the names its module-level code
    mentions (an ``__init__``'s re-exports and ``__all__`` excluded)."""
    definitions: List[Definition] = []
    module_names: Set[str] = set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        doc = _docstring(tree)
        for statement in tree.body:
            if statement is doc or _is_all(statement):
                continue
            if path.name == "__init__.py" and isinstance(statement, ast.ImportFrom):
                continue
            if not isinstance(statement, DEFINITIONS):
                module_names |= referenced_names([statement])
                continue
            methods = []
            if isinstance(statement, ast.ClassDef):
                methods = [m for m in statement.body if isinstance(m, DEFINITIONS)]
            definitions.append(Definition(
                f"{module}:{statement.name}",
                statement.name,
                _registers_a_kind(statement),
                referenced_names([statement], skip=methods),
            ))
            definitions.extend(
                Definition(
                    f"{module}:{statement.name}.{method.name}",
                    method.name,
                    method.name.startswith("__") and method.name.endswith("__"),
                    referenced_names([method]),
                )
                for method in methods
            )
    return definitions, module_names


def live_definitions(definitions, module_names, kept=()) -> Set[str]:
    """Keys of the definitions reachable from module-level code, from
    ``@register_kind`` functions, dunder methods and ``kept``: a
    definition is live once another live definition names it."""
    named_by = defaultdict(list)
    for definition in definitions:
        named_by[definition.name].append(definition)
    work = [
        d for d in definitions
        if d.root or d.key in kept or d.name in module_names
    ]
    live = {d.key for d in work}
    while work:
        caller = work.pop()
        for name in caller.names:
            for callee in named_by.get(name, ()):
                if callee is not caller and callee.key not in live:
                    live.add(callee.key)
                    work.append(callee)
    return live


def test_every_definition_has_a_caller():
    """A module- or class-level definition under ``src/repro`` is live
    when module-level code or another live definition in the package
    names it, iterated to a fixed point; ``@register_kind`` functions,
    dunder methods and :data:`UNCALLED` are live from the start.

    The scan matches bare names, not bindings: any ``x.close`` keeps
    every ``close`` method alive, and a string that spells a name keeps
    it too.  So it over-approximates liveness: a definition it flags is
    uncalled, one it passes may still be."""
    definitions, module_names = scan_package()
    live = live_definitions(definitions, module_names, kept=UNCALLED)
    assert [d.key for d in definitions if d.key not in live] == []


def test_uncalled_list_is_current():
    """Each :data:`UNCALLED` entry still exists, still has no caller,
    and gives its reason in one line."""
    definitions, module_names = scan_package()
    live = live_definitions(definitions, module_names)
    keys = {d.key for d in definitions}
    assert sorted(set(UNCALLED) - keys) == [], "no such definition"
    assert sorted(set(UNCALLED) & live) == [], "called in the package"
    assert [k for k, reason in UNCALLED.items()
            if not reason.strip() or "\n" in reason] == []
