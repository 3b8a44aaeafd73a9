"""The master's agent table: who is alive.

Failure attribution mirrors :class:`~repro.exec.supervisor
.SupervisedPool`'s heartbeat model one level up: where the pool
watches per-worker heartbeat *files*, the master watches per-agent
heartbeat *requests*.  An agent silent past ``heartbeat_timeout`` is
declared dead.  The registry keeps liveness only: which rows an agent
holds is recorded once, in each sweep's lease table
(:attr:`~repro.cluster.master.MasterSweep.leased`), and the master
requeues them when the agent dies, leaves or re-registers.

The registry is pure bookkeeping — no sockets, no threads — so the
liveness logic is testable without a running master.  All methods
take ``now`` explicitly for the same reason.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List

from repro import failpoints

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
    #: Rows the agent's accepted pushes settled.
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

    def register(
        self, agent_id: str, cores: int, host: str, now: float
    ) -> AgentInfo:
        """Add (or revive) an agent; a re-registration starts a fresh
        entry (the master requeues what the previous one held)."""
        with self._lock:
            info = AgentInfo(
                agent_id=agent_id,
                cores=max(1, int(cores)),
                host=host,
                registered_at=now,
                last_seen=now,
            )
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

    def settle(self, agent_id: str, now: float) -> None:
        """The agent pushed a result the master accepted."""
        with self._lock:
            info = self._agents.get(agent_id)
            if info is None:
                return
            info.settled += 1
            info.last_seen = now

    def goodbye(self, agent_id: str) -> bool:
        """A clean departure; True when the agent was alive until now."""
        with self._lock:
            info = self._agents.get(agent_id)
            if info is None or not info.alive:
                return False
            info.state = "left"
            return True

    def expire(self, now: float) -> List[AgentInfo]:
        """Declare agents silent past the timeout dead and return them.

        The caller (the master) requeues or settles the rows its sweeps
        record as theirs and emits the ``agent_died``/``lease_expired``
        events.
        """
        failpoints.fire(SITE_REGISTRY_PRE_EXPIRE)
        died: List[AgentInfo] = []
        with self._lock:
            for info in self._agents.values():
                if info.alive and now - info.last_seen > self.heartbeat_timeout:
                    info.state = "dead"
                    died.append(info)
        return died

    def agents(self) -> List[AgentInfo]:
        with self._lock:
            return list(self._agents.values())
