"""Registry and lease-table unit tests: liveness, leases, attribution.

The registry knows only who is alive; which agent holds which row is
recorded once, in each sweep's lease table.  The lease cases drive a
:class:`ClusterMaster`'s API methods in process (no HTTP, no expiry
thread), with explicit clocks.
"""

from __future__ import annotations

import pytest

from repro.errors import ClusterError
from repro.exec.journal import journal_path, journal_root, read_records
from repro.exec.spec import RunSpec
from repro.exec.supervisor import Supervision
from repro.cluster.master import ClusterMaster
from repro.cluster.protocol import handshake_document, spec_to_wire
from repro.cluster.registry import ClusterRegistry


def make_registry(timeout: float = 10.0) -> ClusterRegistry:
    return ClusterRegistry(heartbeat_timeout=timeout)


class TestLiveness:
    def test_register_and_heartbeat(self):
        registry = make_registry()
        info = registry.register("a1", cores=4, host="box", now=100.0)
        assert info.alive and info.cores == 4
        assert registry.heartbeat("a1", 101.0) is True
        assert [info.alive for info in registry.agents()] == [True]

    def test_unknown_agent_heartbeat_refused(self):
        assert make_registry().heartbeat("ghost", 1.0) is False

    def test_expire_declares_silent_agents_dead(self):
        registry = make_registry(timeout=5.0)
        registry.register("a1", 1, "", now=100.0)
        assert registry.expire(104.0) == []  # inside the window
        died = registry.expire(106.0)
        assert [info.agent_id for info in died] == ["a1"]
        assert died[0].state == "dead"
        # Dead agents stay dead: no heartbeat, no second expiry.
        assert registry.heartbeat("a1", 107.0) is False
        assert registry.expire(200.0) == []

    def test_dead_agent_can_re_register(self):
        registry = make_registry(timeout=1.0)
        registry.register("a1", 1, "", now=0.0)
        registry.expire(10.0)
        info = registry.register("a1", 1, "", now=11.0)
        assert info.alive
        assert registry.heartbeat("a1", 12.0) is True


@pytest.fixture
def master(tmp_path):
    master = ClusterMaster(
        port=0,
        cache_dir=str(tmp_path / "cache"),
        options=Supervision(heartbeat_timeout=10.0, handle_signals=False),
    )
    yield master
    master.server.server_close()


def submit(master, count: int = 3) -> str:
    specs = [
        RunSpec(kind="lease_table", params={"value": n}, label=f"row-{n}")
        for n in range(count)
    ]
    doc = dict(handshake_document(), specs=[spec_to_wire(s) for s in specs])
    return master.api_submit(doc)["sweep_id"]


def register(master, agent_id: str) -> None:
    master.api_register(dict(handshake_document(), agent=agent_id))


def lease(master, agent_id: str, count: int):
    reply = master.api_lease({"agent": agent_id, "max_batch": count})
    return [row["index"] for row in reply["rows"]]


def push(master, agent_id: str, sweep_id: str, index: int):
    outcome = {
        "status": "ok",
        "payload": {"value": index},
        "error": None,
        "poison": False,
        "duration_s": 0.0,
        "attempt": 1,
    }
    return master.api_result(
        {"agent": agent_id, "sweep_id": sweep_id, "index": index,
         "outcome": outcome}
    )


def agent_status(master, agent_id: str):
    agents = {a["agent"]: a for a in master.api_status()["agents"]}
    return agents[agent_id]


def events(master, sweep_id: str, kind: str):
    path = journal_path(journal_root(master.cache.root), sweep_id)
    return [r for r in read_records(path) if r["event"] == kind]


class TestLeases:
    def test_grant_release_tracks_settled(self, master):
        sweep_id = submit(master)
        register(master, "a1")
        assert lease(master, "a1", 2) == [0, 1]
        assert agent_status(master, "a1")["leases"] == 2
        assert push(master, "a1", sweep_id, 0)["accepted"]
        assert agent_status(master, "a1") == {
            "agent": "a1", "state": "alive", "cores": 1, "host": "",
            "leases": 1, "settled": 1,
        }
        # A push retried after a lost reply is refused and not counted.
        assert not push(master, "a1", sweep_id, 0)["accepted"]
        assert agent_status(master, "a1")["settled"] == 1

    def test_grant_to_dead_agent_refused(self, master):
        submit(master)
        register(master, "a1")
        assert master.reap_dead_agents(now=1e12) == ["a1"]
        with pytest.raises(ClusterError, match="re-register"):
            lease(master, "a1", 1)

    def test_goodbye_returns_leases(self, master):
        sweep_id = submit(master)
        register(master, "a1")
        lease(master, "a1", 2)
        master.api_goodbye({"agent": "a1"})
        sweep = master.sweeps[sweep_id]
        assert sweep.leased == {}
        assert [row.index for row in sweep.queue] == [2, 0, 1]
        assert [row.attempt for row in sweep.queue] == [1, 2, 2]
        assert agent_status(master, "a1")["state"] == "left"
        master.api_goodbye({"agent": "a1"})  # a duplicate delivery
        assert len(events(master, sweep_id, "agent_died")) == 1

    def test_re_registration_requeues_at_once_under_its_own_id(self, master):
        sweep_id = submit(master)
        register(master, "a1")
        assert lease(master, "a1", 2) == [0, 1]
        register(master, "a1")  # restarted faster than the timeout
        assert master.sweeps[sweep_id].leased == {}
        expired = events(master, sweep_id, "lease_expired")
        assert [(e["agent"], e["indexes"]) for e in expired] == [
            ("a1", [0, 1])
        ]
        assert agent_status(master, "a1")["leases"] == 0
        assert lease(master, "a1", 3) == [2, 0, 1]
