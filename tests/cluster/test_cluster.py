"""Loopback integration tests: master + thread agents, end to end.

The determinism bar from the issue: one local worker, two loopback
agents, and agents dying mid-sweep must all produce byte-identical
cached results and the same order-independent settled-events digest.
Agents here are :class:`ClusterAgent` instances on daemon threads
(``handle_signals=False`` — signal handlers only work on the main
thread), talking real HTTP to a real :class:`ClusterMaster` (a
``socketserver.ThreadingTCPServer``) on a kernel-assigned loopback
port.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ClusterError, ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.executor import execute
from repro.exec.journal import (
    journal_path,
    journal_root,
    load_journal,
    read_records,
)
from repro.exec.spec import RunSpec, experiment_spec, register_kind, spec_digest
from repro.exec.supervisor import Supervision
from repro.obs import Observability
from repro.obs.aggregate import diff_metrics, load_metrics_source
from repro.obs.events import replay_events
from repro.cluster.agent import ClusterAgent
from repro.cluster.client import execute_via_master
from repro.cluster.master import ClusterMaster
from repro.cluster.protocol import MasterClient, spec_to_wire
from repro.simulation.config import ScaledConfig
from tests.helpers import settled_events_digest


@register_kind("cluster_echo")
def _echo_kind(spec, obs=None):
    time.sleep(float(spec.params.get("nap", 0.0)))
    return {"doubled": int(spec.params["value"]) * 2}


@register_kind("cluster_poison")
def _poison_kind(spec, obs=None):
    raise ConfigurationError("deterministically broken spec")


def echo_specs(count: int, nap: float = 0.0):
    return [
        RunSpec(
            kind="cluster_echo",
            params={"value": index, "nap": nap},
            label=f"echo-{index}",
        )
        for index in range(count)
    ]


def fast_options(**overrides) -> Supervision:
    base = dict(
        max_attempts=3,
        backoff_base=0.01,
        backoff_cap=0.05,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.6,
        handle_signals=False,
    )
    base.update(overrides)
    return Supervision(**base)


def start_master(tmp_path, **option_overrides) -> ClusterMaster:
    master = ClusterMaster(
        port=0,
        cache_dir=str(tmp_path / "cluster-cache"),
        options=fast_options(**option_overrides),
    )
    master.start()
    return master


def agent_thread(master, agent_id, **kwargs) -> threading.Thread:
    agent = ClusterAgent(
        master.url,
        agent_id=agent_id,
        options=fast_options(),
        handle_signals=False,
        **kwargs,
    )
    thread = threading.Thread(
        target=agent.run,
        kwargs={"max_idle_s": 3.0},
        name=f"test-agent-{agent_id}",
        daemon=True,
    )
    thread.start()
    return thread


def wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


def master_events(master, sweep_id):
    return read_records(
        journal_path(journal_root(master.cache.root), sweep_id)
    )


class TestLoopbackDeterminism:
    def test_two_agents_match_local_single_worker(self, tmp_path):
        specs = echo_specs(5, nap=0.05)
        specs.append(  # duplicate of index 0 — exercises digest dedup
            RunSpec(
                kind="cluster_echo",
                params={"value": 0, "nap": 0.05},
                label="echo-dup",
            )
        )

        local_cache = ResultCache(tmp_path / "local-cache")
        local = execute(
            specs,
            jobs=1,
            cache=local_cache,
            supervision=fast_options(argv=["test-local"]),
        )

        master = start_master(tmp_path)
        try:
            threads = [
                agent_thread(master, "agent-a"),
                agent_thread(master, "agent-b"),
            ]
            remote = execute_via_master(
                specs, fast_options(argv=["test-remote"], master_url=master.url)
            )
            for thread in threads:
                thread.join(timeout=10.0)

            assert [r.index for r in remote] == [r.index for r in local]
            for mine, theirs in zip(remote, local):
                assert mine.digest == theirs.digest
                assert mine.status == theirs.status == "ok"
                assert mine.payload == theirs.payload
            assert remote[-1].cached  # the duplicate settled by dedup

            # Same sweep identity (content-derived) and the same
            # order-independent settled digest on both journals.
            sweep_id = local[0].sweep_id
            assert remote[0].sweep_id == sweep_id
            local_digest = settled_events_digest(
                read_records(
                    journal_path(journal_root(local_cache.root), sweep_id)
                )
            )
            remote_events = master_events(master, sweep_id)
            assert local_digest == settled_events_digest(remote_events)
            # Agent liveness stays in the registry, out of the journal.
            kinds = {record["event"] for record in remote_events}
            assert "lease_granted" in kinds and "heartbeat" not in kinds

            # Byte-identical cached results under both roots.
            for record in local:
                assert (
                    master.cache.get(record.digest)["payload"]
                    == local_cache.get(record.digest)["payload"]
                )
        finally:
            master.stop()

    @pytest.mark.parametrize("level", ["metrics", "trace"])
    def test_observed_sweep_matches_local_telemetry(self, tmp_path, level):
        """A --master-url sweep adopts the per-run telemetry a local
        jobs=1 sweep records, and the telemetry the master persisted
        into its cache records diffs to zero against a local jobs=2
        sweep's."""
        specs = [
            experiment_spec(
                ScaledConfig(scale=50).with_(num_stations=n, access_mean=0.2)
            )
            for n in (1, 2, 3)
        ]
        local = Observability(level=level)
        execute(specs, jobs=1, obs=local, supervision=fast_options())
        local_cache = ResultCache(tmp_path / "local-cache")
        records = execute(
            specs,
            jobs=2,
            cache=local_cache,
            obs=Observability(level=level),
            supervision=fast_options(),
        )

        master = start_master(tmp_path)
        try:
            thread = agent_thread(master, "agent-a", jobs=2)
            remote = Observability(level=level)
            execute(
                specs,
                obs=remote,
                supervision=fast_options(master_url=master.url),
            )
            thread.join(timeout=10.0)
        finally:
            master.stop()

        def per_run(obs):
            return [
                {key: value for key, value in run.items() if key != "profile"}
                for run in obs.runs
                if "sweep-exec" not in run["label"]
            ]

        assert len(per_run(remote)) == len(specs)
        assert per_run(remote) == per_run(local)
        assert [event.to_json() for event in remote.memory_events()] == [
            event.to_json() for event in local.memory_events()
        ]
        sweep_id = records[0].sweep_id
        diff = diff_metrics(
            load_metrics_source(sweep_id, cache_root=local_cache.root),
            load_metrics_source(sweep_id, cache_root=master.cache.root),
        )
        assert diff["compared"] > 0
        assert diff["changed"] == 0
        assert diff["added"] == diff["removed"] == []

    def test_resubmission_is_resume(self, tmp_path):
        specs = echo_specs(3)
        wires = [spec_to_wire(spec) for spec in specs]
        master = start_master(tmp_path)
        try:
            client = MasterClient(master.url)
            first = client.submit_sweep(wires, ["t"], "off")
            assert not first["complete"] and first["pending"] == 3
            again = client.submit_sweep(wires, ["t"], "off")
            assert again["sweep_id"] == first["sweep_id"]

            thread = agent_thread(master, "agent-a")
            wait_until(
                lambda: client.sweep_state(first["sweep_id"])["complete"]
            )
            thread.join(timeout=10.0)
        finally:
            master.stop()

        # A fresh master over the same cache answers the whole sweep
        # from plan-time probes — no agent needed.
        revived = start_master(tmp_path)
        try:
            state = MasterClient(revived.url).submit_sweep(wires, ["t"], "off")
            assert state["complete"]
            rows = MasterClient(revived.url).sweep_records(
                state["sweep_id"]
            )["records"]
            assert [row["status"] for row in rows] == ["ok"] * 3
            assert all(row["cached"] for row in rows)
        finally:
            revived.stop()


class TestFailureAttribution:
    def test_dead_agent_rows_requeue_and_settle(self, tmp_path):
        specs = echo_specs(4)
        master = start_master(tmp_path)
        try:
            client = MasterClient(master.url)
            state = client.submit_sweep(
                [spec_to_wire(s) for s in specs], ["t"], "off"
            )
            sweep_id = state["sweep_id"]

            # A doomed agent leases two rows and falls silent.
            client.register("doomed", cores=1, host="test")
            lease = client.lease("doomed", 2)
            doomed_rows = sorted(row["index"] for row in lease["rows"])
            assert len(doomed_rows) == 2

            thread = agent_thread(master, "healthy")
            wait_until(lambda: client.sweep_state(sweep_id)["complete"])
            thread.join(timeout=10.0)

            rows = client.sweep_records(sweep_id)["records"]
            assert [row["status"] for row in rows] == ["ok"] * 4
            for row in rows:
                # Requeued rows carry the master's attempt chain.
                expected = 2 if row["index"] in doomed_rows else 1
                assert row["attempts"] == expected, row

            events = master_events(master, sweep_id)
            kinds = {record.get("event") for record in events}
            assert {"agent_died", "lease_expired", "run_retried"} <= kinds
            progress = replay_events(events)
            assert progress.agents["doomed"]["state"] == "dead"
            assert progress.agents["healthy"]["state"] == "alive"
            assert progress.agents["healthy"]["settled"] == 4
        finally:
            master.stop()

    def test_departing_agent_is_journaled_and_its_rows_requeue(self, tmp_path):
        specs = echo_specs(4)
        master = start_master(tmp_path)
        try:
            client = MasterClient(master.url)
            state = client.submit_sweep(
                [spec_to_wire(s) for s in specs], ["t"], "off"
            )
            sweep_id = state["sweep_id"]

            # An agent leases two rows and says goodbye mid-sweep.
            client.register("leaver", cores=1, host="test")
            lease = client.lease("leaver", 2)
            leaver_rows = sorted(row["index"] for row in lease["rows"])
            client.goodbye("leaver")
            died = [
                (record["agent"], record["reason"])
                for record in master_events(master, sweep_id)
                if record["event"] == "agent_died"
            ]
            assert died == [("leaver", "agent leaver left")]
            assert client.sweep_state(sweep_id)["leased"] == 0

            thread = agent_thread(master, "healthy")
            wait_until(lambda: client.sweep_state(sweep_id)["complete"])
            thread.join(timeout=10.0)

            rows = client.sweep_records(sweep_id)["records"]
            assert [row["status"] for row in rows] == ["ok"] * 4
            assert [
                row["index"] for row in rows if row["attempts"] == 2
            ] == leaver_rows
            progress = replay_events(master_events(master, sweep_id))
            assert progress.agents["leaver"]["state"] == "dead"
            assert progress.agents["healthy"]["settled"] == 4
        finally:
            master.stop()

    def test_exhausted_attempts_settle_structured_failure(self, tmp_path):
        specs = echo_specs(2)
        master = start_master(tmp_path, max_attempts=1)
        try:
            client = MasterClient(master.url)
            state = client.submit_sweep(
                [spec_to_wire(s) for s in specs], ["t"], "off"
            )
            sweep_id = state["sweep_id"]
            client.register("doomed", cores=1, host="test")
            client.lease("doomed", 2)

            # No healthy agent: the budget is one attempt, so expiry
            # settles both rows as synthetic failures — no hang.
            wait_until(lambda: client.sweep_state(sweep_id)["complete"])
            rows = client.sweep_records(sweep_id)["records"]
            assert [row["status"] for row in rows] == ["error"] * 2
            for row in rows:
                assert not row["poisoned"]
                assert "heartbeat silent" in row["error"]
        finally:
            master.stop()

    def test_poison_quarantines_without_retry(self, tmp_path):
        specs = [
            RunSpec(kind="cluster_poison", params={"value": 1}, label="bad"),
            RunSpec(kind="cluster_echo", params={"value": 7}, label="good"),
        ]
        master = start_master(tmp_path)
        try:
            client = MasterClient(master.url)
            state = client.submit_sweep(
                [spec_to_wire(s) for s in specs], ["t"], "off"
            )
            sweep_id = state["sweep_id"]
            thread = agent_thread(master, "agent-a")
            wait_until(lambda: client.sweep_state(sweep_id)["complete"])
            thread.join(timeout=10.0)

            rows = client.sweep_records(sweep_id)["records"]
            by_label = {row["label"]: row for row in rows}
            bad = by_label["bad"]
            assert bad["status"] == "error" and bad["poisoned"]
            assert bad["attempts"] == 1  # deterministic: no retry
            assert by_label["good"]["status"] == "ok"

            journal = load_journal(
                journal_path(journal_root(master.cache.root), sweep_id)
            )
            settled = journal.resumable()
            assert settled[bad["digest"]]["poisoned"]
        finally:
            master.stop()


class TestProtocolGuards:
    def test_unknown_sweep_rejected(self, tmp_path):
        master = start_master(tmp_path)
        try:
            with pytest.raises(ClusterError, match="unknown sweep"):
                MasterClient(master.url).sweep_state("nope")
        finally:
            master.stop()

    def test_malformed_artifact_is_dropped(self, tmp_path):
        """A pushed artifact whose ``runs`` is not a list is not stored
        in the row's cache record or handed back; the row itself still
        settles."""
        spec = echo_specs(1)[0]
        master = start_master(tmp_path)
        try:
            client = MasterClient(master.url)
            state = client.submit_sweep([spec_to_wire(spec)], ["t"], "metrics")
            outcome = {
                "status": "ok",
                "payload": {"doubled": 0},
                "error": None,
                "poison": False,
                "duration_s": 0.0,
                "attempt": 1,
            }
            client.push_result(
                "a", state["sweep_id"], 0, spec_digest(spec), outcome,
                {"level": "metrics", "runs": "not-a-list"},
            )
            rows = client.sweep_records(state["sweep_id"])["records"]
            assert [row["status"] for row in rows] == ["ok"]
            assert "artifact" not in rows[0]
            record = master.cache.get(spec_digest(spec))
            assert record["payload"] == {"doubled": 0}
            assert "obs_level" not in record
        finally:
            master.stop()

    def test_digest_mismatch_detected_by_agent(self, tmp_path):
        master = start_master(tmp_path)
        try:
            spec = echo_specs(1)[0]
            agent = ClusterAgent(
                master.url, agent_id="a", options=fast_options(),
                handle_signals=False,
            )
            rows = [
                {
                    "index": 0,
                    "digest": "0" * 64,  # not spec_digest(spec)
                    "attempt": 1,
                    "spec": spec_to_wire(spec),
                }
            ]
            assert spec_digest(spec) != "0" * 64
            with pytest.raises(ClusterError, match="digest mismatch"):
                agent._execute_rows(rows, "off")
        finally:
            master.stop()
