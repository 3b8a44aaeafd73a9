"""``repro master``: the sweep control plane.

The master is the *authority* side of a distributed sweep: it owns
the result cache and the sweep journal — the exact same two stores a
local sweep uses, rooted at the same ``--cache-dir``.  Sweeps arrive
over HTTP from ``--master-url`` clients as lists of canonical spec
documents; the master plans them with the executor's own
:func:`~repro.exec.executor.plan_rows` (cache probe, journal resume,
artifact hit/miss — identical semantics), queues the pending rows,
and leases them in batches to registered agents.  Every pushed result
(with its obs artifact, when observed) lands through
:func:`~repro.exec.executor.persist_outcome`, the same single write
path the local executor flushes through, so journals and caches —
telemetry included — merge cleanly no matter who settled a row; the
records reply hands each ok row's artifact back to the client.

Failure attribution (see docs/distributed_execution.md): an agent
silent past ``heartbeat_timeout`` is dead; its leases expire and
requeue with ``attempt + 1`` while the sweep's ``max_attempts``
budget lasts, then settle as structured synthetic failures — the
supervisor's ladder, one level up.  Deterministic failures arrive
already poisoned and quarantine exactly as locally.

The server is stdlib ``http.server`` (``ThreadingHTTPServer``): no
new dependency, good enough for a control plane whose requests are
small JSON documents a few times a second per agent.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro import failpoints
from repro.errors import ClusterError
from repro.exec.cache import ResultCache
from repro.exec.executor import RunRecord, persist_outcome, plan_rows
from repro.exec.journal import (
    SweepJournal,
    journal_root,
    load_journal,
    sweep_id_for,
)
from repro.exec.spec import spec_digest
from repro.exec.supervisor import Supervision, synthetic_failure
from repro.cluster.protocol import (
    API_PREFIX,
    check_handshake,
    spec_from_wire,
)
from repro.cluster.registry import ClusterRegistry

#: Failpoint site in the result-push handler, before any sweep state
#: mutates — an injected error becomes an HTTP 500 the pushing
#: agent's transport retries through.
SITE_RESULT_PRE_PERSIST = failpoints.register_site(
    "master.result.pre_persist",
    "result push received, nothing persisted yet",
)

#: How often agents should poll for leases when idle, seconds.
DEFAULT_POLL_INTERVAL = 0.2

#: Default rows per lease batch.
DEFAULT_LEASE_BATCH = 2


@dataclass
class _QueuedRow:
    """One dispatchable row: the lead index of its digest group."""

    index: int
    digest: str
    attempt: int = 1


class MasterSweep:
    """One sweep's server-side state: plan, queue, leases, outcomes."""

    def __init__(
        self,
        sweep_id: str,
        specs: List[Any],
        digests: List[str],
        options: Supervision,
        cache: ResultCache,
        obs_level: str = "off",
        argv: Optional[List[str]] = None,
    ) -> None:
        self.sweep_id = sweep_id
        self.specs = specs
        self.digests = digests
        self.options = options
        self.cache = cache
        self.obs_level = obs_level
        self.journal = SweepJournal(journal_root(cache.root), sweep_id)
        prior = load_journal(self.journal.path)
        # jobs=0: in a distributed sweep the worker count is the agents'.
        self.journal.begin(argv, digests, jobs=0, obs_level=obs_level)
        self.records, self.pending, self.artifacts = plan_rows(
            specs,
            digests,
            cache,
            prior.resumable() if prior is not None else {},
            self.journal,
            sweep_id=sweep_id,
            journal_file=str(self.journal.path),
            obs_level=obs_level,
        )
        #: Lead-index outcome for every executed digest.
        self.outcomes: Dict[int, Dict[str, Any]] = {}
        self.queue: List[_QueuedRow] = [
            _QueuedRow(index=indices[0], digest=digest)
            for digest, indices in self.pending.items()
        ]
        #: index -> (row, agent_id) for rows currently leased out.
        self.leased: Dict[int, Tuple[_QueuedRow, str]] = {}
        self.ended = False
        if self.complete:
            self._end()

    # -- state ---------------------------------------------------------
    @property
    def total(self) -> int:
        return len(set(self.digests))

    @property
    def settled(self) -> int:
        return len(self.records) - self._duplicate_count() + len(self.outcomes)

    def _duplicate_count(self) -> int:
        """Plan-settled records beyond one per digest (spec dedup)."""
        seen = set()
        duplicates = 0
        for index in self.records:
            digest = self.digests[index]
            if digest in seen:
                duplicates += 1
            else:
                seen.add(digest)
        return duplicates

    @property
    def complete(self) -> bool:
        return all(
            indices[0] in self.outcomes
            for indices in self.pending.values()
        )

    def _end(self) -> None:
        if self.ended:
            return
        self.ended = True
        self.journal.end("complete", settled=self.settled)

    # -- leasing -------------------------------------------------------
    def lease_batch(
        self, agent_id: str, max_batch: int
    ) -> List[Dict[str, Any]]:
        """Pop up to ``max_batch`` queued rows for ``agent_id``."""
        from repro.cluster.protocol import spec_to_wire

        rows: List[Dict[str, Any]] = []
        while self.queue and len(rows) < max_batch:
            row = self.queue.pop(0)
            self.leased[row.index] = (row, agent_id)
            rows.append(
                {
                    "index": row.index,
                    "digest": row.digest,
                    "attempt": row.attempt,
                    "spec": spec_to_wire(self.specs[row.index]),
                }
            )
        if rows:
            self.journal.emit(
                "lease_granted",
                agent=agent_id,
                indexes=[row["index"] for row in rows],
                labels=[
                    self.specs[row["index"]].describe() for row in rows
                ],
                attempt=rows[0]["attempt"],
            )
        return rows

    def push_result(
        self,
        agent_id: str,
        index: int,
        outcome: Dict[str, Any],
        artifact: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Accept one settled outcome; False for duplicates.

        A result may arrive for a row that was requeued (the agent
        was declared dead but its push was merely slow): the result
        is accepted anyway — runs are deterministic, so the late
        answer is exactly what the retry would compute — and the
        queued retry is withdrawn.  Only rows already settled are
        refused.
        """
        if index in self.outcomes:
            return False
        self.leased.pop(index, None)
        self.queue = [row for row in self.queue if row.index != index]
        digest = self.digests[index]
        # Before any state mutates: an error injected here turns into
        # a 500, and the agent's retried push must land cleanly.
        failpoints.fire(SITE_RESULT_PRE_PERSIST)
        if not (
            isinstance(artifact, dict)
            and artifact.get("level") == self.obs_level
            and isinstance(artifact.get("runs"), list)
        ):
            artifact = None
        outcome["artifact"] = artifact
        if artifact is not None and outcome.get("status") == "ok":
            self.artifacts[digest] = artifact
        self.outcomes[index] = outcome
        persist_outcome(
            self.specs[index],
            index,
            digest,
            outcome,
            self.cache,
            self.journal,
        )
        self.journal.emit(
            "result_pushed",
            agent=agent_id,
            index=index,
            digest=digest,
            status=outcome.get("status"),
        )
        if self.complete:
            self._end()
        return True

    def requeue(self, keys: List[int], agent_id: str, reason: str) -> None:
        """Expire leases: retry within budget, else settle a failure."""
        expired: List[int] = []
        for index in keys:
            entry = self.leased.pop(index, None)
            if entry is None:
                continue
            row, _holder = entry
            expired.append(index)
            if row.attempt < self.options.max_attempts:
                self.queue.append(
                    _QueuedRow(
                        index=row.index,
                        digest=row.digest,
                        attempt=row.attempt + 1,
                    )
                )
                self.journal.emit(
                    "run_retried",
                    index=row.index,
                    digest=row.digest,
                    attempt=row.attempt,
                    delay_s=0.0,
                    reason=reason[:200],
                )
            else:
                spec = self.specs[row.index]
                outcome = synthetic_failure(
                    spec, reason, row.attempt, self.options.max_attempts
                )
                self.outcomes[row.index] = outcome
                persist_outcome(
                    spec,
                    row.index,
                    row.digest,
                    outcome,
                    self.cache,
                    self.journal,
                )
        if expired:
            self.journal.emit(
                "lease_expired",
                agent=agent_id,
                indexes=expired,
                reason=reason[:200],
            )
        if self.complete:
            self._end()

    # -- results -------------------------------------------------------
    def record_rows(self) -> List[Dict[str, Any]]:
        """Every spec's RunRecord as a JSON-able row, in spec order;
        an ok row whose telemetry the master holds carries it as
        ``artifact``."""
        rows: List[Dict[str, Any]] = []
        journal_file = str(self.journal.path)
        for index, spec in enumerate(self.specs):
            digest = self.digests[index]
            record = self.records.get(index)
            if record is None:
                lead = self.pending.get(digest, [index])[0]
                outcome = self.outcomes.get(lead)
                if outcome is None:
                    continue  # still in flight
                record = RunRecord.from_outcome(
                    index,
                    spec,
                    digest,
                    outcome,
                    cached=index != lead,
                    sweep_id=self.sweep_id,
                    journal_path=journal_file,
                )
            row = dict(vars(record))
            if record.ok and digest in self.artifacts:
                row["artifact"] = self.artifacts[digest]
            rows.append(row)
        return rows

    def state_document(self) -> Dict[str, Any]:
        return {
            "sweep_id": self.sweep_id,
            "total": self.total,
            "settled": self.settled,
            "pending": len(self.queue),
            "leased": len(self.leased),
            "complete": self.complete,
        }


class ClusterMaster:
    """The standing master: HTTP server + registry + sweep table."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        options: Optional[Supervision] = None,
        lease_batch: int = DEFAULT_LEASE_BATCH,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        from repro.exec.cache import resolve_cache_dir

        self.options = options if options is not None else Supervision()
        self.cache = ResultCache(resolve_cache_dir(cache_dir))
        self.registry = ClusterRegistry(self.options.heartbeat_timeout)
        self.lease_batch = lease_batch
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        #: sweep_id -> MasterSweep, in submission order (dict is ordered).
        self.sweeps: Dict[str, MasterSweep] = {}
        self._stop = threading.Event()
        self.server = ThreadingHTTPServer(
            (host, port), _make_handler(self)
        )
        self.server.daemon_threads = True
        self._threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve in background threads (returns immediately)."""
        serve = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-master-http",
            daemon=True,
        )
        expiry = threading.Thread(
            target=self._expiry_loop, name="repro-master-expiry", daemon=True
        )
        serve.start()
        expiry.start()
        self._threads = [serve, expiry]

    def stop(self) -> None:
        self._stop.set()
        self.server.shutdown()
        self.server.server_close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def serve_until_stopped(self) -> None:
        """Foreground mode for the ``repro master`` CLI."""
        self.start()
        try:
            while not self._stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- failure attribution -------------------------------------------
    def _expiry_loop(self) -> None:
        interval = max(0.05, self.options.heartbeat_interval)
        while not self._stop.wait(interval):
            self.reap_dead_agents()

    def reap_dead_agents(self, now: Optional[float] = None) -> List[str]:
        """One expiry pass; returns the ids of agents declared dead."""
        now = time.time() if now is None else now
        died = self.registry.expire(now)
        stale = self.registry.collect_stale()
        dead_ids: List[str] = []
        with self._lock:
            for key in stale:
                sweep = self.sweeps.get(key[0])
                if sweep is not None:
                    sweep.requeue([key[1]], "?", "agent re-registered")
            for info, leases in died:
                dead_ids.append(info.agent_id)
                silent = now - info.last_seen
                reason = (
                    f"agent {info.agent_id} heartbeat silent for "
                    f"{silent:.1f}s (dead?)"
                )
                by_sweep: Dict[str, List[int]] = {}
                for sweep_id, index in leases:
                    by_sweep.setdefault(sweep_id, []).append(index)
                for sweep in self.sweeps.values():
                    if not sweep.ended:
                        sweep.journal.emit(
                            "agent_died", agent=info.agent_id, reason=reason
                        )
                for sweep_id, indexes in by_sweep.items():
                    sweep = self.sweeps.get(sweep_id)
                    if sweep is not None:
                        sweep.requeue(indexes, info.agent_id, reason)
        return dead_ids

    # -- API operations (called by the HTTP handler) --------------------
    def api_register(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        rejection = check_handshake(doc)
        if rejection:
            raise ClusterError(rejection)
        agent_id = str(doc.get("agent", ""))
        if not agent_id:
            raise ClusterError("register needs an agent id")
        info = self.registry.register(
            agent_id,
            int(doc.get("cores", 1)),
            str(doc.get("host", "")),
            time.time(),
        )
        with self._lock:
            for sweep in self.sweeps.values():
                if not sweep.ended:
                    sweep.journal.emit(
                        "agent_registered",
                        agent=info.agent_id,
                        cores=info.cores,
                        host=info.host,
                    )
        return {
            "ok": True,
            "agent": agent_id,
            "poll_interval": self.poll_interval,
            "heartbeat_interval": self.options.heartbeat_interval,
            "batch": self.lease_batch,
        }

    def api_heartbeat(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        agent_id = str(doc.get("agent", ""))
        return {"ok": self.registry.heartbeat(agent_id, time.time())}

    def api_lease(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        agent_id = str(doc.get("agent", ""))
        max_batch = max(1, int(doc.get("max_batch", self.lease_batch)))
        if not self.registry.heartbeat(agent_id, time.time()):
            raise ClusterError(
                f"unknown or dead agent {agent_id!r}: re-register first"
            )
        with self._lock:
            for sweep in self.sweeps.values():
                if sweep.ended or not sweep.queue:
                    continue
                rows = sweep.lease_batch(agent_id, max_batch)
                if rows:
                    self.registry.grant(
                        agent_id,
                        [(sweep.sweep_id, row["index"]) for row in rows],
                        time.time(),
                    )
                    return {
                        "sweep_id": sweep.sweep_id,
                        "obs_level": sweep.obs_level,
                        "rows": rows,
                    }
        return {"sweep_id": None, "rows": []}

    def api_result(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        agent_id = str(doc.get("agent", ""))
        sweep_id = str(doc.get("sweep_id", ""))
        index = int(doc.get("index", -1))
        outcome = doc.get("outcome")
        if not isinstance(outcome, dict):
            raise ClusterError("result push needs an outcome document")
        with self._lock:
            sweep = self.sweeps.get(sweep_id)
            if sweep is None:
                raise ClusterError(f"unknown sweep {sweep_id!r}")
            accepted = sweep.push_result(
                agent_id, index, outcome, doc.get("artifact")
            )
        self.registry.release(agent_id, (sweep_id, index), time.time())
        return {"ok": True, "accepted": accepted}

    def api_goodbye(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        agent_id = str(doc.get("agent", ""))
        leases = self.registry.goodbye(agent_id)
        with self._lock:
            by_sweep: Dict[str, List[int]] = {}
            for sweep_id, index in leases:
                by_sweep.setdefault(sweep_id, []).append(index)
            for sweep_id, indexes in by_sweep.items():
                sweep = self.sweeps.get(sweep_id)
                if sweep is not None:
                    sweep.requeue(
                        indexes, agent_id, f"agent {agent_id} left"
                    )
        return {"ok": True}

    def api_submit(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        rejection = check_handshake(doc)
        if rejection:
            raise ClusterError(rejection)
        wires = doc.get("specs")
        if not isinstance(wires, list) or not wires:
            raise ClusterError("sweep submission needs a spec list")
        specs = [spec_from_wire(wire) for wire in wires]
        digests = [spec_digest(spec) for spec in specs]
        sweep_id = sweep_id_for(digests)
        with self._lock:
            sweep = self.sweeps.get(sweep_id)
            if sweep is None:
                sweep = MasterSweep(
                    sweep_id,
                    specs,
                    digests,
                    self.options,
                    self.cache,
                    obs_level=str(doc.get("obs_level", "off")),
                    argv=[str(part) for part in doc.get("argv") or []],
                )
                for info in self.registry.agents():
                    if info.alive and not sweep.ended:
                        sweep.journal.emit(
                            "agent_registered",
                            agent=info.agent_id,
                            cores=info.cores,
                            host=info.host,
                        )
                self.sweeps[sweep_id] = sweep
            return sweep.state_document()

    def api_sweep_state(self, sweep_id: str) -> Dict[str, Any]:
        with self._lock:
            sweep = self.sweeps.get(sweep_id)
            if sweep is None:
                raise ClusterError(f"unknown sweep {sweep_id!r}")
            return sweep.state_document()

    def api_sweep_records(self, sweep_id: str) -> Dict[str, Any]:
        with self._lock:
            sweep = self.sweeps.get(sweep_id)
            if sweep is None:
                raise ClusterError(f"unknown sweep {sweep_id!r}")
            return {
                "sweep_id": sweep_id,
                "complete": sweep.complete,
                "records": sweep.record_rows(),
            }

    def api_status(self) -> Dict[str, Any]:
        with self._lock:
            sweeps = {
                sweep_id: sweep.state_document()
                for sweep_id, sweep in self.sweeps.items()
            }
        return {
            "url": self.url,
            "cache_root": str(self.cache.root),
            "agents": [
                {
                    "agent": info.agent_id,
                    "state": info.state,
                    "cores": info.cores,
                    "host": info.host,
                    "leases": len(info.leases),
                    "settled": info.settled,
                }
                for info in self.registry.agents()
            ],
            "sweeps": sweeps,
        }

    def api_shutdown(self) -> Dict[str, Any]:
        self._stop.set()
        return {"ok": True}


def _make_handler(master: ClusterMaster):
    """The request handler class bound to one master instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 — stdlib name
            pass  # the sweep journal is the log; stderr chatter helps no one

        def _reply(self, code: int, document: Dict[str, Any]) -> None:
            body = json.dumps(document).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _route(self, method: str) -> None:
            if not self.path.startswith(API_PREFIX + "/"):
                self._reply(404, {"error": "unknown endpoint"})
                return
            endpoint = self.path[len(API_PREFIX) + 1:]
            document: Dict[str, Any] = {}
            if method == "POST":
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    try:
                        document = json.loads(
                            self.rfile.read(length).decode("utf-8")
                        )
                    except (ValueError, UnicodeDecodeError):
                        self._reply(400, {"error": "malformed JSON body"})
                        return
            try:
                self._reply(200, self._dispatch(method, endpoint, document))
            except ClusterError as error:
                self._reply(409, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 — server must answer
                self._reply(500, {"error": f"{type(error).__name__}: {error}"})

        def _dispatch(
            self, method: str, endpoint: str, doc: Dict[str, Any]
        ) -> Dict[str, Any]:
            if method == "POST":
                if endpoint == "register":
                    return master.api_register(doc)
                if endpoint == "heartbeat":
                    return master.api_heartbeat(doc)
                if endpoint == "lease":
                    return master.api_lease(doc)
                if endpoint == "result":
                    return master.api_result(doc)
                if endpoint == "goodbye":
                    return master.api_goodbye(doc)
                if endpoint == "sweeps":
                    return master.api_submit(doc)
                if endpoint == "shutdown":
                    return master.api_shutdown()
            else:
                if endpoint == "status":
                    return master.api_status()
                parts = endpoint.split("/")
                if len(parts) == 2 and parts[0] == "sweeps":
                    return master.api_sweep_state(parts[1])
                if (
                    len(parts) == 3
                    and parts[0] == "sweeps"
                    and parts[2] == "records"
                ):
                    return master.api_sweep_records(parts[1])
            raise ClusterError(f"unknown endpoint {method} {endpoint!r}")

        def do_POST(self) -> None:  # noqa: N802 — stdlib API
            self._route("POST")

        def do_GET(self) -> None:  # noqa: N802 — stdlib API
            self._route("GET")

    return Handler
