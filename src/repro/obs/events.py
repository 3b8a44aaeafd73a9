"""Sweep-scope progress events: the vocabulary and fold of the journal.

While the per-run telemetry of :mod:`repro.obs` answers "what did one
simulation do", a week-long parameter study needs the *sweep* itself
to be observable: which rows are done, which worker holds which run,
how often retries fire, and when the grid will finish.  Every record
of a journaled sweep — the durable rows a resume depends on and the
advisory progress events alike — is one line of the sweep's journal,
``<journal_root>/<sweep_id>.jsonl``, written by the one writer
:class:`~repro.exec.journal.SweepJournal` (durability, locking, torn
tails and disk-full behaviour are described there):

===================  ====================================================
event                emitted when
===================  ====================================================
``sweep_begin``      a session opens the sweep (total, argv, jobs,
                     code salt) [d]
``cache_hit``        a row is served from the result cache at plan time
``journal_hit``      a row is recovered from a prior session (resume)
``artifact_hit``     a cached row's obs artifact was reused
``artifact_miss``    a cached row lacked its obs artifact (re-executed)
``worker_spawned``   the pool starts a worker process
``worker_died``      a worker is reaped (death / timeout / hung)
``run_leased``       a run is dispatched to a worker (or runs in-process)
``run_retried``      a transient failure is re-queued with backoff
``run_settled``      a run reaches its final state (ok / error / poison),
                     with its payload [d]
``sweep_end``        the session completes or is gracefully interrupted [d]
``agent_registered`` a cluster agent joins the master (cores, host)
``agent_died``       an agent misses its heartbeat timeout, or says
                     goodbye while the sweep is in flight
``lease_granted``    the master leases a batch of rows to an agent
``lease_expired``    a dead, departed or re-registered agent's leases
                     are reclaimed (rows requeue)
``result_pushed``    an agent pushes a settled row back to the master
===================  ====================================================

[d] marks the durable records.  The five ``agent_*``/``lease_*``/
``result_pushed`` events are emitted only by a ``repro master`` (see
:mod:`repro.cluster.master` and docs/distributed_execution.md);
purely local sweeps never produce them, and :func:`replay_events`
folds them into the ``agents`` table of the progress snapshot.

Liveness is not history: worker and agent heartbeats never reach the
journal (the pool watches heartbeat files, the master its agent
registry), so every record is a state change and the fold stays exact
from those alone.  A record of a kind the fold does not know — such as
a ``heartbeat`` line in a journal an older version wrote — folds to
nothing.

:func:`replay_events` folds a journal's records into a
:class:`SweepProgress` — the one state behind resume, ``repro
sweep-status`` (``--journal``, ``--json``, ``--follow``), ``repro
sweep-resume``, ``repro obs-diff`` and the chaos digest.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.integrity import sha256


def __getattr__(name: str) -> Any:
    # ``SweepEventBus`` is a second name for the journal's writer, bound
    # lazily: repro.exec.journal imports this module.
    if name == "SweepEventBus":
        from repro.exec.journal import SweepJournal

        return SweepJournal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# Replay: events -> progress snapshot
# ----------------------------------------------------------------------
#: Progress-snapshot schema identifier (``sweep-status --json`` emits
#: it; the ``--follow`` renderer consumes it).  ``/2`` added the
#: ``agents`` table folded from cluster events (empty for purely
#: local sweeps) — see docs/sweep_observability.md.
PROGRESS_SCHEMA = "repro-sweep-progress/2"


@dataclass
class SweepProgress:
    """Everything :func:`replay_events` recovers from one journal."""

    sweep_id: str = ""
    #: "in-flight" | "complete" | "interrupted" | "unknown"
    status: str = "unknown"
    total: int = 0
    jobs: int = 1
    argv: List[str] = field(default_factory=list)
    #: The code salt of the latest session that recorded one ("" for a
    #: journal written before sessions recorded it).
    code_salt: str = ""
    #: digest -> final outcome row for every settled digest; rows a
    #: session executed carry their ``payload`` and ``error``.
    settled: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache_hits: int = 0
    resumed: int = 0
    executed: int = 0
    failed: int = 0
    poisoned: int = 0
    retries: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    workers_spawned: int = 0
    workers_died: int = 0
    #: index -> {label, worker, since} for runs currently dispatched.
    in_flight: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: worker id -> {state, task, last_ts} (state: alive | dead).
    workers: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: agent id -> {state, cores, leased, settled, last_ts} folded
    #: from cluster events; empty for purely local sweeps.
    agents: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    started_at: float = 0.0
    updated_at: float = 0.0
    #: Wall-clock timestamps of executed (non-cached) settles, for the
    #: settled-run rate and the ETA.
    settle_times: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Digests settled successfully (fresh, cached, or resumed)."""
        return sum(
            1 for row in self.settled.values() if row.get("status") == "ok"
        )

    @property
    def pending(self) -> int:
        return max(0, self.total - len(self.settled))

    @property
    def outstanding(self) -> int:
        """Rows a resume still owes: settled neither ok nor poisoned
        (retryable errors count)."""
        done = sum(
            1 for row in self.settled.values()
            if row["status"] == "ok" or row["poisoned"]
        )
        return max(0, self.total - done)

    def resumable(self) -> Dict[str, Dict[str, Any]]:
        """Rows a resume may reuse without the cache: ok or poisoned
        rows journaled with their payload.

        Transient errors (retries exhausted, worker killed, timeout)
        are deliberately *not* reusable — a resume retries them.
        """
        return {
            digest: row
            for digest, row in self.settled.items()
            if "payload" in row and (row["status"] == "ok" or row["poisoned"])
        }

    def settled_digest(self) -> str:
        """Order-independent digest of every settled row's
        ``(digest, status, poisoned)``."""
        triples = sorted(
            (digest, row["status"], row["poisoned"])
            for digest, row in self.settled.items()
        )
        canonical = json.dumps(triples, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()

    @property
    def rate_per_s(self) -> float:
        """Executed-settle throughput over the observed window."""
        if len(self.settle_times) < 1 or self.started_at <= 0:
            return 0.0
        window = self.settle_times[-1] - self.started_at
        if window <= 0:
            return 0.0
        return len(self.settle_times) / window

    @property
    def eta_s(self) -> Optional[float]:
        """Seconds until done at the current settled-run rate."""
        if self.pending == 0:
            return 0.0
        rate = self.rate_per_s
        if rate <= 0:
            return None
        return self.pending / rate

    @property
    def age_s(self) -> float:
        """Seconds since the last event."""
        if self.updated_at <= 0:
            return 0.0
        return max(0.0, time.time() - self.updated_at)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON schema shared by ``--json`` and ``--follow``."""
        eta = self.eta_s
        return {
            "schema": PROGRESS_SCHEMA,
            "sweep_id": self.sweep_id,
            "status": self.status,
            "total": self.total,
            "completed": self.completed,
            "settled": len(self.settled),
            "pending": self.pending,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "executed": self.executed,
            "failed": self.failed,
            "poisoned": self.poisoned,
            "retries": self.retries,
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
            "jobs": self.jobs,
            "workers_spawned": self.workers_spawned,
            "workers_died": self.workers_died,
            "workers": {
                str(worker_id): dict(info)
                for worker_id, info in sorted(self.workers.items())
            },
            "agents": {
                agent_id: dict(info)
                for agent_id, info in sorted(self.agents.items())
            },
            "in_flight": [
                {"index": index, **info}
                for index, info in sorted(self.in_flight.items())
            ],
            "rate_per_s": round(self.rate_per_s, 4),
            "eta_s": None if eta is None else round(eta, 1),
            "age_s": round(self.age_s, 1),
            "started_at": self.started_at,
            "updated_at": self.updated_at,
            "argv": list(self.argv),
        }


def _release(progress: SweepProgress, index: int, ts: float) -> None:
    """Take run ``index`` out of flight and idle the worker holding it."""
    leased = progress.in_flight.pop(index, None)
    if leased is None:
        return
    info = progress.workers.get(leased.get("worker"))
    if info is not None and info.get("task") == index:
        info.update({"task": None, "last_ts": ts})


def replay_events(events: Iterable[Dict[str, Any]]) -> SweepProgress:
    """Fold a journal's records into its current :class:`SweepProgress`.

    Tolerates overlap from resumed sweeps (the same journal accumulates
    every session): later events win, settles are keyed by digest, and
    a fresh ``sweep_begin`` clears the transient in-flight state.
    """
    progress = SweepProgress()
    for record in events:
        kind = record.get("event")
        ts = float(record.get("ts", 0.0))
        if ts:
            progress.updated_at = max(progress.updated_at, ts)
        if kind == "sweep_begin":
            progress.sweep_id = str(record.get("sweep_id", progress.sweep_id))
            progress.total = int(record.get("total", progress.total))
            progress.jobs = int(record.get("jobs", progress.jobs))
            argv = record.get("argv")
            if argv:
                progress.argv = [str(part) for part in argv]
            salt = record.get("code_salt")
            if salt:
                progress.code_salt = str(salt)
            if not progress.started_at and ts:
                progress.started_at = ts
            progress.status = "in-flight"
            # A resume restarts the transient state; settled digests
            # and cumulative counters carry over.
            progress.in_flight.clear()
            progress.workers.clear()
        elif kind == "cache_hit":
            digest = str(record.get("digest", ""))
            if digest and digest not in progress.settled:
                progress.cache_hits += 1
                progress.settled[digest] = {
                    "status": "ok", "cached": True, "poisoned": False,
                }
        elif kind == "journal_hit":
            digest = str(record.get("digest", ""))
            if digest and digest not in progress.settled:
                progress.resumed += 1
                progress.settled[digest] = {
                    "status": str(record.get("status", "ok")),
                    "resumed": True,
                    "poisoned": bool(record.get("poisoned", False)),
                }
        elif kind == "artifact_hit":
            progress.artifact_hits += 1
        elif kind == "artifact_miss":
            progress.artifact_misses += 1
        elif kind == "worker_spawned":
            worker = int(record.get("worker", -1))
            progress.workers_spawned += 1
            progress.workers[worker] = {
                "state": "alive", "task": None, "last_ts": ts,
            }
        elif kind == "worker_died":
            worker = int(record.get("worker", -1))
            progress.workers_died += 1
            info = progress.workers.setdefault(worker, {})
            info.update(
                {"state": "dead", "task": None, "last_ts": ts,
                 "reason": str(record.get("reason", ""))}
            )
        elif kind == "run_leased":
            index = int(record.get("index", -1))
            worker = record.get("worker")
            progress.in_flight[index] = {
                "label": str(record.get("label", "")),
                "worker": worker,
                "attempt": int(record.get("attempt", 1)),
                "since": ts,
            }
            if isinstance(worker, int) and worker in progress.workers:
                progress.workers[worker].update(
                    {"task": index, "last_ts": ts}
                )
        elif kind == "run_retried":
            progress.retries += 1
            _release(progress, int(record.get("index", -1)), ts)
        elif kind == "run_settled":
            _release(progress, int(record.get("index", -1)), ts)
            digest = str(record.get("digest", ""))
            status = str(record.get("status", "error"))
            poisoned = bool(record.get("poisoned", False))
            progress.executed += 1
            if status != "ok":
                progress.failed += 1
            if poisoned:
                progress.poisoned += 1
            if digest:
                progress.settled[digest] = {
                    "status": status,
                    "poisoned": poisoned,
                    "attempts": int(record.get("attempts", 1)),
                    "duration_s": float(record.get("duration_s", 0.0)),
                }
                if "payload" in record:
                    progress.settled[digest]["payload"] = record["payload"]
                    progress.settled[digest]["error"] = record.get("error")
            if ts:
                progress.settle_times.append(ts)
        elif kind == "agent_registered":
            agent = str(record.get("agent", ""))
            if agent:
                progress.agents[agent] = {
                    "state": "alive",
                    "cores": int(record.get("cores", 1)),
                    "host": str(record.get("host", "")),
                    "leased": 0,
                    "settled": 0,
                    "last_ts": ts,
                }
        elif kind == "agent_died":
            agent = str(record.get("agent", ""))
            if agent:
                info = progress.agents.setdefault(
                    agent, {"leased": 0, "settled": 0}
                )
                info.update(
                    {"state": "dead", "last_ts": ts,
                     "reason": str(record.get("reason", ""))}
                )
        elif kind == "lease_granted":
            agent = str(record.get("agent", ""))
            indexes = [int(i) for i in record.get("indexes") or []]
            labels = record.get("labels") or []
            for position, index in enumerate(indexes):
                label = labels[position] if position < len(labels) else ""
                progress.in_flight[index] = {
                    "label": str(label),
                    "worker": agent,
                    "attempt": int(record.get("attempt", 1)),
                    "since": ts,
                }
            if agent:
                info = progress.agents.setdefault(
                    agent, {"state": "alive", "leased": 0, "settled": 0}
                )
                info["leased"] = int(info.get("leased", 0)) + len(indexes)
                info["last_ts"] = ts
        elif kind == "lease_expired":
            agent = str(record.get("agent", ""))
            for raw_index in record.get("indexes") or []:
                progress.in_flight.pop(int(raw_index), None)
            if agent and agent in progress.agents:
                progress.agents[agent]["last_ts"] = ts
        elif kind == "result_pushed":
            agent = str(record.get("agent", ""))
            if agent:
                info = progress.agents.setdefault(
                    agent, {"state": "alive", "leased": 0, "settled": 0}
                )
                info["settled"] = int(info.get("settled", 0)) + 1
                info["last_ts"] = ts
        elif kind == "sweep_end":
            progress.status = str(record.get("status", "complete"))
            progress.in_flight.clear()
            for info in progress.workers.values():
                info["task"] = None
    return progress


# ----------------------------------------------------------------------
# Rendering (sweep-status)
# ----------------------------------------------------------------------
def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def progress_bar(done: int, total: int, width: int = 30) -> str:
    """A ``[#####....]`` bar for ``done``/``total``."""
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(round(width * min(1.0, done / total)))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_progress(snapshot: Dict[str, Any]) -> str:
    """Human-readable live view of one progress snapshot.

    Consumes exactly the :meth:`SweepProgress.to_dict` schema — the
    same document ``repro sweep-status --json`` prints — so scripts
    and the renderer can never drift apart.
    """
    lines: List[str] = []
    total = int(snapshot.get("total", 0))
    settled = int(snapshot.get("settled", 0))
    status = snapshot.get("status", "unknown")
    lines.append(
        f"sweep {snapshot.get('sweep_id', '?')}  [{status}]  "
        f"{progress_bar(settled, total)} {settled}/{total}"
    )
    eta = snapshot.get("eta_s")
    lines.append(
        "  completed {completed}  cached {cached}  resumed {resumed}  "
        "executed {executed}  failed {failed}  poisoned {poisoned}  "
        "retries {retries}".format(
            completed=snapshot.get("completed", 0),
            cached=snapshot.get("cache_hits", 0),
            resumed=snapshot.get("resumed", 0),
            executed=snapshot.get("executed", 0),
            failed=snapshot.get("failed", 0),
            poisoned=snapshot.get("poisoned", 0),
            retries=snapshot.get("retries", 0),
        )
    )
    rate = float(snapshot.get("rate_per_s") or 0.0)
    lines.append(
        f"  rate {rate:.2f} runs/s  eta {_format_duration(eta)}  "
        f"last event {_format_duration(snapshot.get('age_s', 0.0))} ago  "
        f"jobs {snapshot.get('jobs', 1)}"
    )
    hits = int(snapshot.get("artifact_hits", 0))
    misses = int(snapshot.get("artifact_misses", 0))
    if hits or misses:
        lines.append(f"  obs artifacts: {hits} reused, {misses} backfilled")
    workers = snapshot.get("workers") or {}
    if workers:
        parts = []
        for worker_id, info in sorted(
            workers.items(), key=lambda item: int(item[0])
        ):
            state = info.get("state", "?")
            task = info.get("task")
            if state != "alive":
                parts.append(f"w{worker_id}:dead")
            elif task is None:
                parts.append(f"w{worker_id}:idle")
            else:
                parts.append(f"w{worker_id}:run#{task}")
        lines.append("  workers: " + "  ".join(parts))
    agents = snapshot.get("agents") or {}
    if agents:
        parts = []
        for agent_id, info in sorted(agents.items()):
            state = info.get("state", "?")
            if state != "alive":
                parts.append(f"{agent_id}:dead")
            else:
                parts.append(
                    f"{agent_id}:{info.get('settled', 0)}"
                    f"/{info.get('leased', 0)}"
                )
        lines.append("  agents (settled/leased): " + "  ".join(parts))
    in_flight = snapshot.get("in_flight") or []
    for entry in in_flight[:8]:
        worker = entry.get("worker")
        who = "in-process" if worker is None else f"worker {worker}"
        lines.append(
            f"  running #{entry.get('index')}: {entry.get('label', '')} "
            f"({who}, attempt {entry.get('attempt', 1)})"
        )
    if len(in_flight) > 8:
        lines.append(f"  ... and {len(in_flight) - 8} more in flight")
    argv = snapshot.get("argv") or []
    if argv:
        lines.append("  command: repro " + " ".join(argv))
    return "\n".join(lines)
