"""Registry unit tests: liveness, leases, failure attribution."""

from __future__ import annotations

from repro.cluster.registry import ClusterRegistry


def make_registry(timeout: float = 10.0) -> ClusterRegistry:
    return ClusterRegistry(heartbeat_timeout=timeout)


def leases_of(registry: ClusterRegistry, agent_id: str):
    return {info.agent_id: info for info in registry.agents()}[agent_id].leases


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
        registry.grant("a1", [("sweep", 0), ("sweep", 1)], 100.0)
        assert registry.expire(104.0) == []  # inside the window
        died = registry.expire(106.0)
        assert len(died) == 1
        info, leases = died[0]
        assert info.agent_id == "a1" and info.state == "dead"
        assert leases == [("sweep", 0), ("sweep", 1)]
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


class TestLeases:
    def test_grant_release_tracks_settled(self):
        registry = make_registry()
        registry.register("a1", 1, "", now=0.0)
        assert registry.grant("a1", [("s", 3)], 1.0) is True
        assert ("s", 3) in leases_of(registry, "a1")
        registry.release("a1", ("s", 3), 2.0)
        assert ("s", 3) not in leases_of(registry, "a1")
        assert registry.agents()[0].settled == 1

    def test_grant_to_dead_agent_refused(self):
        registry = make_registry(timeout=1.0)
        registry.register("a1", 1, "", now=0.0)
        registry.expire(10.0)
        assert registry.grant("a1", [("s", 0)], 11.0) is False

    def test_goodbye_returns_leases(self):
        registry = make_registry()
        registry.register("a1", 1, "", now=0.0)
        registry.grant("a1", [("s", 0), ("s", 1)], 1.0)
        assert registry.goodbye("a1") == [("s", 0), ("s", 1)]
        assert registry.agents()[0].state == "left"
        assert registry.goodbye("a1") == []  # idempotent

    def test_re_registration_orphans_leases_as_stale(self):
        registry = make_registry()
        registry.register("a1", 1, "", now=0.0)
        registry.grant("a1", [("s", 0)], 1.0)
        registry.register("a1", 1, "", now=2.0)  # restarted fast
        assert ("s", 0) not in leases_of(registry, "a1")
        assert registry.collect_stale() == [("s", 0)]
        assert registry.collect_stale() == []  # drained

    def test_stale_is_per_instance(self):
        first = make_registry()
        first.register("a1", 1, "", now=0.0)
        first.grant("a1", [("s", 0)], 0.0)
        first.register("a1", 1, "", now=1.0)
        assert make_registry().collect_stale() == []
