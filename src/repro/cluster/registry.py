"""The master's agent/lease table: who is alive, who holds what.

Failure attribution mirrors :class:`~repro.exec.supervisor
.SupervisedPool`'s heartbeat model one level up: where the pool
watches per-worker heartbeat *files*, the master watches per-agent
heartbeat *requests*.  An agent silent past ``heartbeat_timeout`` is
declared dead, every lease it held **expires**, and the expired rows
flow through exactly the pool's retry ladder — requeue with
``attempt + 1`` while the attempt budget lasts, settle a structured
synthetic failure when it is exhausted.  Poison never reaches this
path: a deterministic failure settles the moment its result is
pushed, identical to local quarantine.

The registry is pure bookkeeping — no sockets, no threads — so the
attribution logic is testable without a running master.  All methods
take ``now`` explicitly for the same reason.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import failpoints

#: Lease key: (sweep_id, spec index).
LeaseKey = Tuple[str, int]

#: Failpoint site at the top of the expiry scan — a ``delay:<ms>``
#: here widens the race between a slow agent's late push and the
#: master declaring it dead, which the requeue-withdrawal path in
#: :meth:`~repro.cluster.master.MasterSweep.push_result` must absorb.
SITE_REGISTRY_PRE_EXPIRE = failpoints.register_site(
    "master.registry.pre_expire",
    "before the heartbeat-timeout expiry scan",
)


@dataclass
class AgentInfo:
    """One registered agent, as the master sees it."""

    agent_id: str
    cores: int = 1
    host: str = ""
    registered_at: float = 0.0
    last_seen: float = 0.0
    #: "alive" | "dead" | "left"
    state: str = "alive"
    #: Leases the agent currently holds.
    leases: List[LeaseKey] = field(default_factory=list)
    settled: int = 0

    @property
    def alive(self) -> bool:
        return self.state == "alive"


class ClusterRegistry:
    """Thread-safe agent table with heartbeat-timeout expiry."""

    def __init__(self, heartbeat_timeout: float = 30.0) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        self._lock = threading.Lock()
        self._agents: Dict[str, AgentInfo] = {}
        #: Leases orphaned by re-registration, drained by collect_stale().
        self._stale: List[LeaseKey] = []

    def register(
        self, agent_id: str, cores: int, host: str, now: float
    ) -> AgentInfo:
        """Add (or revive) an agent; re-registration is idempotent.

        A re-registering agent (it restarted faster than the timeout
        fired) drops its stale leases — :meth:`expire` reclaims them
        on the next sweep-side pass via :meth:`collect_stale`.
        """
        with self._lock:
            info = AgentInfo(
                agent_id=agent_id,
                cores=max(1, int(cores)),
                host=host,
                registered_at=now,
                last_seen=now,
            )
            previous = self._agents.get(agent_id)
            if previous is not None and previous.leases:
                # Stale leases from the previous incarnation; hand
                # them back for requeue.
                info.leases = []
                self._stale.extend(previous.leases)
            self._agents[agent_id] = info
            return info

    def heartbeat(self, agent_id: str, now: float) -> bool:
        """Refresh an agent's liveness; False if it is unknown/dead.

        A dead agent's heartbeat is refused — its leases already
        requeued, so letting it push results later would race the
        retry.  The agent re-registers instead.
        """
        with self._lock:
            info = self._agents.get(agent_id)
            if info is None or not info.alive:
                return False
            info.last_seen = now
            return True

    def grant(self, agent_id: str, keys: List[LeaseKey], now: float) -> bool:
        """Record ``keys`` as leased to ``agent_id``."""
        with self._lock:
            info = self._agents.get(agent_id)
            if info is None or not info.alive:
                return False
            info.leases.extend(keys)
            info.last_seen = now
            return True

    def release(self, agent_id: str, key: LeaseKey, now: float) -> None:
        """The agent settled one leased row (result pushed)."""
        with self._lock:
            info = self._agents.get(agent_id)
            if info is None:
                return
            if key in info.leases:
                info.leases.remove(key)
            info.settled += 1
            info.last_seen = now

    def goodbye(self, agent_id: str) -> List[LeaseKey]:
        """A clean departure: the agent's leases requeue immediately."""
        with self._lock:
            info = self._agents.get(agent_id)
            if info is None:
                return []
            info.state = "left"
            leases, info.leases = info.leases, []
            return leases

    def expire(self, now: float) -> List[Tuple[AgentInfo, List[LeaseKey]]]:
        """Declare agents silent past the timeout dead.

        Returns ``(agent, expired leases)`` pairs — the caller (the
        master's sweep table) requeues or settles each lease and emits
        the ``agent_died``/``lease_expired`` events.
        """
        failpoints.fire(SITE_REGISTRY_PRE_EXPIRE)
        died: List[Tuple[AgentInfo, List[LeaseKey]]] = []
        with self._lock:
            for info in self._agents.values():
                if not info.alive:
                    continue
                if now - info.last_seen > self.heartbeat_timeout:
                    info.state = "dead"
                    leases, info.leases = info.leases, []
                    died.append((info, leases))
        return died

    def collect_stale(self) -> List[LeaseKey]:
        """Drain leases orphaned by agent re-registration."""
        with self._lock:
            stale, self._stale[:] = list(self._stale), []
            return stale

    def agents(self) -> List[AgentInfo]:
        with self._lock:
            return list(self._agents.values())
