"""End-to-end crash consistency: real subprocesses, real crashes.

Every store in the execution stack — result cache (telemetry
included), sweep journal, the cluster RPC plane — claims to survive
being killed at its worst moment.  These tests collect on those
claims.  For each scenario in :data:`PLAN` the same small reference
sweep runs three ways:

1. **baseline** — fault-free, in a clean cache: the ground truth
   (``rows.json`` bytes, the settled digest, every cached payload),
   captured once per module;
2. **faulted** — identical command, with one failpoint armed via
   ``REPRO_FAILPOINTS`` (:mod:`repro.failpoints`): the process is
   crashed (``os._exit``), torn mid-record, fed ENOSPC, or hit with an
   I/O error at the chosen site;
3. **recovery** — identical command again, failpoints unset: resume
   from whatever the fault left behind.

and then asserts the recovery invariants:

* the recovered ``rows.json`` is **byte-identical** to the baseline's
  — no settled result lost, no wrong value served;
* the settled digest (:meth:`~repro.obs.events.SweepProgress
  .settled_digest`) of the scenario's journal, folded over every
  session, equals the baseline's — every row settled with the same
  outcome, however many attempts it took;
* every cached payload that exists agrees with the baseline's for the
  same digest — a corrupt object is quarantined and re-executed, never
  served.

Cluster scenarios spawn a real ``repro master`` and ``repro agent``
as subprocesses and inject the fault into the chosen party (client,
agent, or master), including killing an agent mid-push and letting a
clean replacement finish the sweep.  The detection tests prove the
checks *can* fail (a checker that cannot fail proves nothing).  See
``docs/chaos_testing.md``.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest

from repro import failpoints
from repro.exec.cache import ResultCache
from repro.exec.journal import journal_root, list_journals, read_records
from repro.integrity import QUARANTINE_SUBDIR

#: The reference sweep every scenario runs: small enough to finish in
#: well under a second per run, rich enough to exercise cache writes
#: (telemetry included) and journal writes for three distinct rows.
SWEEP_SCALE = 50
SWEEP_VALUES: Tuple[int, ...] = (4, 8, 12)

#: Wall-clock bound per subprocess — generous; a hang is a failure.
RUN_TIMEOUT_S = 180.0

_CRASH = failpoints.CRASH_EXIT_CODE


@dataclass
class Scenario:
    """One fault-injection scenario and what its faulted run may do."""

    name: str
    spec: str
    description: str
    jobs: int = 1
    cluster: bool = False
    #: Which party gets ``REPRO_FAILPOINTS`` in cluster mode.
    inject: str = "client"  # "client" | "agent" | "master"
    #: Kill the faulted agent, then let a clean replacement finish.
    respawn_agent: bool = False
    #: Acceptable exit codes for the faulted run.
    expect: Tuple[int, ...] = (0, 2, _CRASH)
    #: Corruption round trip instead of a failpoint (spec unused).
    corrupt_cache: bool = False


PLAN: List[Scenario] = [
    Scenario(
        "cache-write-crash",
        "cache.write.pre_rename=crash",
        "killed after the cache temp file, before the rename",
        expect=(_CRASH,),
    ),
    Scenario(
        "cache-write-torn",
        "cache.write.pre_rename=torn:20",
        "cache temp file torn mid-record, then killed",
        expect=(_CRASH,),
    ),
    Scenario(
        "journal-append-torn",
        "journal.append.pre_write=torn:9",
        "journal tail torn mid-record, then killed",
        expect=(_CRASH,),
    ),
    Scenario(
        "journal-append-crash",
        "journal.append.post_write=crash",
        "killed right after a journal record was fsynced",
        expect=(_CRASH,),
    ),
    Scenario(
        "journal-leased-torn",
        "journal.append.pre_write=torn:7@2",
        "advisory run_leased record torn mid-write, then killed",
        expect=(_CRASH,),
    ),
    Scenario(
        "cache-enospc",
        "cache.write.pre_rename=enospc",
        "disk full at the first cache write: degrade, don't die",
        expect=(0,),
    ),
    Scenario(
        "cluster-rpc-io",
        "cluster.client.post_send=error:io@2",
        "transport error on the client's second RPC: retried away",
        cluster=True,
        inject="client",
        expect=(0,),
    ),
    Scenario(
        "cluster-rpc-pre-io",
        "cluster.client.pre_send=error:io@1",
        "transport error before the client's first RPC: retried",
        cluster=True,
        inject="client",
        expect=(0,),
    ),
    Scenario(
        "client-submit-crash",
        "cluster.sweep.post_submit=crash",
        "client killed right after submitting; resubmission lands",
        cluster=True,
        inject="client",
        expect=(_CRASH,),
    ),
    Scenario(
        "registry-expire-delay",
        "master.registry.pre_expire=delay:50",
        "every lease-expiry pass slowed: no settled row racing",
        cluster=True,
        inject="master",
        expect=(0,),
    ),
    Scenario(
        "cache-rename-crash",
        "cache.write.post_rename=crash",
        "killed with the cache record in place, journal behind",
        expect=(_CRASH,),
    ),
    Scenario(
        "persist-pre-crash",
        "executor.persist.pre=crash",
        "killed before any of a settled row was persisted",
        expect=(_CRASH,),
    ),
    Scenario(
        "persist-post-crash",
        "executor.persist.post=crash",
        "killed just after the full persist path for one row",
        expect=(_CRASH,),
    ),
    Scenario(
        "journal-enospc",
        "journal.append.pre_write=enospc",
        "disk full at the first journal record: journal goes dark",
        expect=(0,),
    ),
    Scenario(
        "worker-crash-once",
        "worker.result.pre_put=crash!once",
        "one worker killed before handing back its result",
        jobs=2,
        expect=(0,),
    ),
    Scenario(
        "master-persist-io",
        "master.result.pre_persist=error:io@1",
        "master 500s the first result push: the agent re-pushes",
        cluster=True,
        inject="master",
        expect=(0,),
    ),
    Scenario(
        "agent-push-crash",
        "agent.result.pre_push=crash",
        "agent killed mid-push; a clean replacement finishes",
        cluster=True,
        inject="agent",
        respawn_agent=True,
        expect=(0,),
    ),
    Scenario(
        "corrupt-cache-object",
        "",
        "cached payload flipped on disk: quarantine + re-execute",
        corrupt_cache=True,
        expect=(0,),
    ),
]


# -- subprocess plumbing -----------------------------------------------

def _base_env() -> Dict[str, str]:
    """A clean environment: no inherited failpoints/cache redirects."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    src = str(Path(failpoints.__file__).resolve().parents[2])
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _repro(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _sweep_cmd(
    rows: Path,
    cache_dir: Path,
    jobs: int = 1,
    master_url: Optional[str] = None,
) -> List[str]:
    cmd = _repro(
        "sweep",
        "--scale", str(SWEEP_SCALE),
        "--values", *[str(value) for value in SWEEP_VALUES],
        "--jobs", str(jobs),
        "--obs-level", "metrics",
        "--cache-dir", str(cache_dir),
        "--output", str(rows),
    )
    if master_url:
        cmd += ["--master-url", master_url]
    return cmd


def _run(
    cmd: Sequence[str], env: Dict[str, str]
) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        list(cmd),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )


def _tail(text: str, lines: int = 5) -> str:
    parts = [line for line in text.strip().splitlines() if line.strip()]
    return " | ".join(parts[-lines:])


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(port: int, proc: subprocess.Popen, deadline_s: float = 30.0) -> None:
    """Block until the master accepts connections (or died trying)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        assert proc.poll() is None, (
            f"master exited early with status {proc.returncode}"
        )
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    pytest.fail(f"master never started listening on port {port}")


def _stop(proc: Optional[subprocess.Popen], timeout: float = 10.0) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)


# -- invariants --------------------------------------------------------

@dataclass
class Baseline:
    """Ground truth captured from the fault-free run."""

    rows: bytes
    settled: str
    cache: Path
    payloads: Dict[str, Any] = field(default_factory=dict)


def _settled_digest(cache_dir: Path) -> str:
    return " ".join(
        state.settled_digest()
        for state in list_journals(journal_root(cache_dir))
    )


def _cache_payloads(cache_dir: Path) -> Dict[str, Any]:
    payloads: Dict[str, Any] = {}
    for record in ResultCache(cache_dir).entries():
        payloads[str(record.get("digest", ""))] = record.get("payload")
    return payloads


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chaos")
    cache = workdir / "baseline" / "cache"
    cache.mkdir(parents=True)
    rows = workdir / "baseline" / "rows.json"
    result = _run(_sweep_cmd(rows, cache), _base_env())
    assert result.returncode == 0, (
        f"baseline sweep failed (exit {result.returncode}): "
        f"{_tail(result.stderr)}"
    )
    return workdir, Baseline(
        rows=rows.read_bytes(),
        settled=_settled_digest(cache),
        cache=cache,
        payloads=_cache_payloads(cache),
    )


def _assert_converged(
    scenario: Scenario, baseline: Baseline, cache: Path, rows: Path
) -> None:
    """The recovery invariants every scenario must satisfy."""
    assert rows.exists(), f"{scenario.name}: recovery produced no output rows"
    assert rows.read_bytes() == baseline.rows, (
        f"{scenario.name}: recovered rows differ from the fault-free "
        f"baseline — a settled result was lost or corrupted"
    )
    settled = _settled_digest(cache)
    assert settled == baseline.settled, (
        f"{scenario.name}: settled digest diverged "
        f"({settled[:12]} != {baseline.settled[:12]})"
    )
    for digest, payload in _cache_payloads(cache).items():
        assert payload == baseline.payloads.get(digest, payload), (
            f"{scenario.name}: cached payload for {digest[:12]} "
            f"disagrees with the baseline — corrupt object served"
        )


def _assert_lease_reclaimed(
    scenario: Scenario, baseline: Baseline, cache: Path, killed: str
) -> None:
    """A killed agent's death and its expired lease are in the master's
    journal, and the master's cache records carry the same telemetry
    as the local baseline's (zero ``obs-diff`` delta)."""
    (progress,) = list_journals(journal_root(cache))
    state = progress.agents.get(killed, {}).get("state")
    assert state == "dead", (
        f"{scenario.name}: the journal fold shows the killed agent "
        f"{killed!r} as {state!r}, not dead: {progress.agents}"
    )
    records = [
        record
        for path in journal_root(cache).glob("*.jsonl")
        for record in read_records(path)
    ]
    assert any(r.get("event") == "lease_expired" for r in records), (
        f"{scenario.name}: no lease_expired record in the journal"
    )
    sweep_id = progress.sweep_id
    diff = _run(
        _repro(
            "obs-diff", sweep_id, sweep_id,
            "--cache-dir", str(baseline.cache),
            "--cache-dir-b", str(cache),
        ),
        _base_env(),
    )
    assert diff.returncode == 0, (
        f"{scenario.name}: obs-diff against the baseline exited "
        f"{diff.returncode}: {_tail(diff.stdout + diff.stderr)}"
    )


# -- scenario runners --------------------------------------------------

def _scenario_dirs(workdir: Path, scenario: Scenario) -> Tuple[Path, Path, Path]:
    root = workdir / scenario.name
    cache = root / "cache"
    gate = root / "gate"
    cache.mkdir(parents=True)
    gate.mkdir()
    return root, cache, gate


def _fault_env(scenario: Scenario, gate: Path) -> Dict[str, str]:
    env = _base_env()
    env[failpoints.FAILPOINTS_ENV] = scenario.spec
    env[failpoints.GATE_ENV] = str(gate)
    return env


def _run_local(scenario: Scenario, baseline: Baseline, workdir: Path) -> None:
    root, cache, gate = _scenario_dirs(workdir, scenario)
    rows = root / "rows.json"
    cmd = _sweep_cmd(rows, cache, jobs=scenario.jobs)
    faulted = _run(cmd, _fault_env(scenario, gate))
    assert faulted.returncode in scenario.expect, (
        f"{scenario.name}: faulted run exited {faulted.returncode}, "
        f"expected one of {scenario.expect}: {_tail(faulted.stderr)}"
    )
    recovery = _run(cmd, _base_env())
    assert recovery.returncode == 0, (
        f"{scenario.name}: recovery run failed "
        f"(exit {recovery.returncode}): {_tail(recovery.stderr)}"
    )
    _assert_converged(scenario, baseline, cache, rows)


def _run_corruption(
    scenario: Scenario, baseline: Baseline, workdir: Path
) -> None:
    """Corrupt a cached payload on disk, then demand a clean re-run."""
    root, cache, _ = _scenario_dirs(workdir, scenario)
    rows = root / "rows.json"
    cmd = _sweep_cmd(rows, cache)
    seeded = _run(cmd, _base_env())
    assert seeded.returncode == 0, (
        f"{scenario.name}: seed run failed: {_tail(seeded.stderr)}"
    )
    victims = sorted((cache / "objects").glob("*/*.json"))
    assert victims, f"{scenario.name}: seed run cached nothing"
    victim = victims[0]
    head, _, telemetry = victim.read_text().partition("\n")
    record = json.loads(head)
    record.setdefault("payload", {})["corrupted"] = True  # checksum now lies
    victim.write_text(json.dumps(record) + "\n" + telemetry)
    # Remove the journal so only the cache can answer —
    # the corrupt object must be caught by its checksum, not masked.
    shutil.rmtree(cache / "journals", ignore_errors=True)
    rerun = _run(cmd, _base_env())
    assert rerun.returncode == 0, (
        f"{scenario.name}: re-run over the corrupt cache failed "
        f"(exit {rerun.returncode}): {_tail(rerun.stderr)}"
    )
    assert any((cache / QUARANTINE_SUBDIR).glob("*")), (
        f"{scenario.name}: corrupt object was not quarantined"
    )
    _assert_converged(scenario, baseline, cache, rows)


def _run_cluster(
    scenario: Scenario, baseline: Baseline, workdir: Path
) -> None:
    root, cache, gate = _scenario_dirs(workdir, scenario)
    client_cache = root / "client-cache"
    client_cache.mkdir()
    rows = root / "rows.json"
    clean = _base_env()
    fault = _fault_env(scenario, gate)
    env_for = {"client": clean, "agent": clean, "master": clean}
    env_for = dict(env_for, **{scenario.inject: fault})
    port = _free_port()
    url = f"http://127.0.0.1:{port}"

    def agent_cmd(agent_id: str) -> List[str]:
        return _repro(
            "agent",
            "--master-url", url,
            "--id", agent_id,
            "--jobs", "1",
            "--heartbeat-timeout", "2.0",
            "--max-idle", "60",
        )

    master: Optional[subprocess.Popen] = None
    agents: List[subprocess.Popen] = []
    try:
        master = subprocess.Popen(
            _repro(
                "master",
                "--host", "127.0.0.1",
                "--port", str(port),
                "--cache-dir", str(cache),
                "--heartbeat-timeout", "2.0",
            ),
            env=env_for["master"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        _wait_for_port(port, master)
        client = subprocess.Popen(
            _sweep_cmd(rows, client_cache, master_url=url),
            env=env_for["client"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        first_agent = subprocess.Popen(
            agent_cmd("agent-1"),
            env=env_for["agent"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        agents.append(first_agent)
        if scenario.respawn_agent:
            # The faulted agent must die first (its failpoint kills it
            # mid-push); only then does a clean replacement join, so
            # the recovery is attributable to lease reclaim + resume.
            try:
                status = first_agent.wait(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pytest.fail(f"{scenario.name}: faulted agent never crashed")
            assert status == _CRASH, (
                f"{scenario.name}: faulted agent exited {status}, "
                f"expected {_CRASH}"
            )
            agents.append(
                subprocess.Popen(
                    agent_cmd("agent-2"),
                    env=clean,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        try:
            _, client_err = client.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            client.kill()
            client.communicate()
            pytest.fail(f"{scenario.name}: client sweep hung")
        assert client.returncode in scenario.expect, (
            f"{scenario.name}: client exited {client.returncode}, "
            f"expected one of {scenario.expect}: {_tail(client_err)}"
        )
        if client.returncode != 0:
            # The fault killed the client itself: a clean client must
            # be able to resubmit and converge (the master dedupes the
            # sweep by content id and answers from its own state).
            recovery = _run(
                _sweep_cmd(rows, client_cache, master_url=url), clean
            )
            assert recovery.returncode == 0, (
                f"{scenario.name}: client recovery failed "
                f"(exit {recovery.returncode}): {_tail(recovery.stderr)}"
            )
    finally:
        for agent in agents:
            _stop(agent)
        _stop(master)
    # The master owns the cache and journal for submitted sweeps.
    _assert_converged(scenario, baseline, cache, rows)
    if scenario.respawn_agent:
        _assert_lease_reclaimed(scenario, baseline, cache, killed="agent-1")


# -- tests -------------------------------------------------------------

class TestPlan:
    def test_every_registered_site_is_exercised(self, declared_sites):
        covered = {
            scenario.spec.split("=", 1)[0] for scenario in PLAN if scenario.spec
        }
        assert covered == set(declared_sites)

    def test_names_and_specs_are_unique(self):
        names = [scenario.name for scenario in PLAN]
        assert len(names) == len(set(names))


@pytest.mark.parametrize("scenario", PLAN, ids=lambda scenario: scenario.name)
def test_scenario_converges(scenario, baseline):
    workdir, base = baseline
    if scenario.corrupt_cache:
        _run_corruption(scenario, base, workdir)
    elif scenario.cluster:
        _run_cluster(scenario, base, workdir)
    else:
        _run_local(scenario, base, workdir)


class TestDetection:
    def test_row_divergence_is_flagged(self, baseline):
        workdir, base = baseline
        wrong = Baseline(
            rows=b"not the real rows", settled="0" * 64, cache=base.cache
        )
        scenario = Scenario(
            "detect-divergence", "", "fault-free run vs poisoned baseline",
            expect=(0,),
        )
        with pytest.raises(AssertionError, match="differ"):
            _run_local(scenario, wrong, workdir)

    def test_unexpected_exit_code_is_flagged(self, baseline):
        workdir, base = baseline
        # A scenario that demands a crash from a run with no failpoint
        # armed: the sweep exits 0 and the check must call that out.
        scenario = Scenario(
            "detect-no-crash", "", "exit-code expectation check",
            expect=(failpoints.CRASH_EXIT_CODE,),
        )
        with pytest.raises(AssertionError, match="exited 0"):
            _run_local(scenario, base, workdir)
