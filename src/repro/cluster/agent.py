"""``repro agent``: the execution side of a distributed sweep.

An agent is deliberately thin: it registers with a master, leases
batches of rows, runs them through the **existing** supervised
machinery — :func:`~repro.exec.supervisor.attempt_serial` for one
local worker, a :class:`~repro.exec.supervisor.SupervisedPool` for
several — and pushes each outcome back the moment it settles, so the
master's crash-safety window stays one row, exactly like a local
sweep.  The agent itself caches nothing and journals nothing: the
master is the single authority, which is what makes results
byte-identical regardless of which agent (or how many) ran a row.

Telemetry: when the sweep was submitted with ``--obs-level`` above
``off``, each run is captured exactly as in a local sweep, and the
outcome's ``artifact`` (``level``/``runs``/``trace``) rides the result
push; the master persists it through the same ``persist_outcome`` a
local sweep uses, so its cache records match a local observed sweep's.

Robustness: network calls retry with bounded backoff (a master
restart mid-sweep costs nothing — leases re-expire and requeue);
a first SIGINT drains the in-flight batch, pushes its results, says
goodbye (instantly requeueing unfinished leases), and exits.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro import failpoints
from repro.errors import ClusterError
from repro.exec.spec import RunSpec, spec_digest
from repro.exec.supervisor import (
    GracefulSignals,
    SupervisedPool,
    Supervision,
    attempt_serial,
    pool_context,
)
from repro.cluster.protocol import MasterClient, spec_from_wire


#: Failpoint site between executing a leased row and pushing its
#: result — a crash here loses the agent *after* the work was done;
#: the master's lease expiry must requeue and recover it.
SITE_RESULT_PRE_PUSH = failpoints.register_site(
    "agent.result.pre_push",
    "row executed, result not yet pushed to the master",
)


def default_agent_id() -> str:
    """A stable-enough unique id: host + pid + random tail."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class ClusterAgent:
    """One agent process: register, lease, execute, push, repeat."""

    def __init__(
        self,
        master_url: str,
        agent_id: Optional[str] = None,
        jobs: int = 1,
        options: Optional[Supervision] = None,
        max_batch: Optional[int] = None,
        handle_signals: bool = True,
    ) -> None:
        self.client = MasterClient(master_url)
        self.agent_id = agent_id or default_agent_id()
        self.jobs = max(1, jobs)
        self.options = options if options is not None else Supervision()
        self.max_batch = max_batch
        self.handle_signals = handle_signals
        self.poll_interval = 0.2
        self.heartbeat_interval = self.options.heartbeat_interval
        self.executed = 0
        self._stop = threading.Event()
        self._beat_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def register(self) -> Dict[str, Any]:
        reply = self.client.register(
            self.agent_id,
            cores=os.cpu_count() or 1,
            host=socket.gethostname(),
        )
        self.poll_interval = float(
            reply.get("poll_interval", self.poll_interval)
        )
        self.heartbeat_interval = float(
            reply.get("heartbeat_interval", self.heartbeat_interval)
        )
        if self.max_batch is None:
            self.max_batch = max(1, int(reply.get("batch", self.jobs)))
        return reply

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                reply = self.client.heartbeat(self.agent_id)
            except ClusterError:
                continue  # transient: the lease loop will notice too
            if not reply.get("ok"):
                # The master declared us dead (e.g. a long GC pause or
                # network partition); re-register so we can keep
                # contributing — our expired leases already requeued.
                try:
                    self.register()
                except ClusterError:
                    pass

    def stop(self) -> None:
        self._stop.set()

    # -- execution -----------------------------------------------------
    def _execute_rows(
        self, rows: List[Dict[str, Any]], obs_level: str
    ) -> List[Tuple[int, str, Dict[str, Any]]]:
        """Run one leased batch; returns (index, digest, outcome) per
        row, settle order."""
        specs: Dict[int, RunSpec] = {
            int(row["index"]): spec_from_wire(row["spec"]) for row in rows
        }
        digests = {int(row["index"]): str(row["digest"]) for row in rows}
        # The master counts expired-lease retries; continue its chain
        # so the journal's ``attempts`` reflects the whole story.
        base_attempt = {
            int(row["index"]): max(0, int(row.get("attempt", 1)) - 1)
            for row in rows
        }
        for index, spec in specs.items():
            computed = spec_digest(spec)
            if computed != digests[index]:
                raise ClusterError(
                    f"leased row {index} digest mismatch: master says "
                    f"{digests[index][:12]}…, local spec hashes to "
                    f"{computed[:12]}… (code-version skew?)"
                )
        results = []
        if self.jobs == 1 or len(rows) <= 1:
            for index in sorted(specs):
                if self._stop.is_set():
                    break
                outcome = attempt_serial(
                    specs[index], self.options, obs_level=obs_level
                )
                outcome["attempt"] += base_attempt[index]
                results.append((index, digests[index], outcome))
        else:
            tasks = [(index, specs[index]) for index in sorted(specs)]
            pool = SupervisedPool(
                tasks,
                self.jobs,
                self.options,
                pool_context(),
                obs_level=obs_level,
                digests=digests,
            )
            for outcome in pool.run():
                index = outcome["index"]
                outcome["attempt"] += base_attempt[index]
                results.append((index, digests[index], outcome))
                if self._stop.is_set():
                    pool.request_stop()
        return results

    def _push(
        self,
        sweep_id: str,
        settled: List[Tuple[int, str, Dict[str, Any]]],
    ) -> None:
        for index, digest, outcome in settled:
            failpoints.fire(SITE_RESULT_PRE_PUSH)
            # The artifact travels beside the outcome on the wire.
            artifact = outcome.pop("artifact", None)
            self.client.push_result(
                self.agent_id, sweep_id, index, digest, outcome, artifact
            )
            self.executed += 1

    # -- main loop -----------------------------------------------------
    def run(
        self,
        max_idle_s: Optional[float] = None,
        max_rows: Optional[int] = None,
    ) -> int:
        """Lease and execute until stopped; returns rows executed.

        ``max_idle_s`` bounds how long the agent polls an idle master
        before exiting (None = forever — the service mode).
        ``max_rows`` stops after that many rows settled (tests).
        """
        self.register()
        self._beat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"agent-heartbeat-{self.agent_id}",
            daemon=True,
        )
        self._beat_thread.start()
        idle_since: Optional[float] = None
        try:
            with GracefulSignals(enabled=self.handle_signals) as signals:
                while not self._stop.is_set():
                    if signals.triggered is not None:
                        break
                    try:
                        lease = self.client.lease(
                            self.agent_id, self.max_batch or 1
                        )
                    except ClusterError:
                        # Dead-to-the-master or a 4xx: re-register
                        # once, then keep polling.
                        try:
                            self.register()
                            continue
                        except ClusterError:
                            break
                    rows = lease.get("rows") or []
                    if not rows:
                        now = time.monotonic()
                        if idle_since is None:
                            idle_since = now
                        elif (
                            max_idle_s is not None
                            and now - idle_since > max_idle_s
                        ):
                            break
                        self._stop.wait(self.poll_interval)
                        continue
                    idle_since = None
                    sweep_id = str(lease.get("sweep_id"))
                    settled = self._execute_rows(
                        rows, str(lease.get("obs_level", "off"))
                    )
                    self._push(sweep_id, settled)
                    if (
                        max_rows is not None
                        and self.executed >= max_rows
                    ):
                        break
        finally:
            self._stop.set()
            try:
                self.client.goodbye(self.agent_id)
            except ClusterError:
                pass  # the heartbeat timeout will reap us instead
            if self._beat_thread is not None:
                self._beat_thread.join(timeout=2.0)
        return self.executed

