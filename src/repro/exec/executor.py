"""The sweep executor: cache probe, supervised workers, journaling.

:func:`execute` takes a list of :class:`~repro.exec.spec.RunSpec`,
probes the result cache *and* the sweep journal, deduplicates
identical specs, runs the misses through
:func:`~repro.exec.supervisor.run_tasks` — in-process for
``jobs == 1``, across a supervised worker pool otherwise — and
returns one :class:`RunRecord` per spec **in spec order**,
regardless of worker scheduling.

Robustness (see docs/resilient_execution.md):

* every settled row is flushed to the cache **and** the append-only
  sweep journal the moment it exists, so a crash costs at most the
  rows in flight;
* workers are supervised — death, hang, and timeout are detected and
  the task re-dispatched with bounded backoff retries; deterministic
  :class:`~repro.errors.ReproError` failures are poisoned instead of
  retried;
* the first SIGINT/SIGTERM drains in-flight runs, flushes, and raises
  :class:`~repro.errors.SweepInterrupted` carrying the journal path
  and the exact ``repro sweep-resume`` command.

Failure is data, not control flow: a run that raises yields a record
with ``status == "error"`` and the worker's traceback instead of
killing the sweep.  Callers that need all runs (every experiment
module) raise :class:`SweepFailure` via :func:`records_to_results`.

Telemetry: with an :class:`~repro.obs.Observability` session, the
executor opens one run-observation of its own whose
:class:`~repro.obs.PhaseProfiler` splits plan / execute / collect and
whose registry tallies per-run wall-clock and counts runs, cache
hits, retries, and failures.  Every run of an observed sweep is
captured where it executes (in-process or in a worker); its outcome
carries the artifact, :func:`persist_outcome` stores it in the run's
cache record, and collect adopts it from memory (warm hits: the
telemetry :func:`plan_rows` read from the record), so per-run
snapshots do not depend on ``jobs`` or the cache.
A single-spec ``execute`` threads the session into the run instead.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import failpoints
from repro.errors import ConfigurationError, ReproError, SweepInterrupted
from repro.exec.cache import ResultCache
from repro.exec.journal import (
    SweepJournal,
    journal_root,
    load_journal,
    sweep_id_for,
)
from repro.exec.spec import RunSpec, spec_digest
from repro.exec.supervisor import GracefulSignals, Supervision, run_tasks
from repro.simulation.results import SimulationResult

#: Failpoint sites bracketing the shared settle/persist path.
SITE_PERSIST_PRE = failpoints.register_site(
    "executor.persist.pre",
    "a run settled, nothing flushed yet (cache/journal pending)",
)
SITE_PERSIST_POST = failpoints.register_site(
    "executor.persist.post",
    "one settled row fully flushed to cache and journal",
)

#: Failure summaries embedded in a SweepFailure message (the full
#: records remain on ``.failures``).
MAX_LISTED_FAILURES = 3


class SweepFailure(ReproError):
    """One or more runs of a sweep failed; carries their records."""

    def __init__(self, failures: List["RunRecord"]) -> None:
        self.failures = failures
        lines = []
        for record in failures[:MAX_LISTED_FAILURES]:
            detail = (record.error or "").strip().splitlines()
            tail = detail[-1] if detail else "unknown"
            name = record.label or record.kind
            lines.append(f"{name}: {tail}")
        message = (
            f"{len(failures)} of the sweep's runs failed: " + "; ".join(lines)
        )
        extra = len(failures) - MAX_LISTED_FAILURES
        if extra > 0:
            message += f"; ... and {extra} more"
        first = failures[0]
        if first.journal_path:
            message += (
                f" (journal: {first.journal_path}; retry failed rows with "
                f"`repro sweep-resume {first.sweep_id}`)"
            )
        super().__init__(message)


@dataclass
class RunRecord:
    """Outcome of one spec: payload or error, provenance, timing."""

    index: int
    kind: str
    label: str
    digest: str
    status: str  # "ok" | "error"
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    duration_s: float = 0.0
    cached: bool = False
    #: Attempts the run took (retries leave a trace).
    attempts: int = 1
    #: True when the failure was deterministic (quarantined, no retry).
    poisoned: bool = False
    #: True when the row was recovered from a sweep journal.
    resumed: bool = False
    #: Sweep provenance (set when the sweep was journaled).
    sweep_id: str = ""
    journal_path: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_outcome(
        cls,
        index: int,
        spec: RunSpec,
        digest: str,
        outcome: Dict[str, Any],
        cached: bool = False,
        sweep_id: str = "",
        journal_path: str = "",
    ) -> "RunRecord":
        """The record of a settled outcome; ``cached`` marks a duplicate
        spec filled from its lead's run."""
        return cls(
            index=index,
            kind=spec.kind,
            label=spec.describe(),
            digest=digest,
            status=outcome["status"],
            payload=outcome["payload"],
            error=outcome.get("error"),
            duration_s=outcome["duration_s"],
            cached=cached,
            attempts=outcome.get("attempt", 1),
            poisoned=outcome.get("poison", False),
            sweep_id=sweep_id,
            journal_path=journal_path,
        )

    def result(self) -> SimulationResult:
        """The payload as a :class:`SimulationResult` (experiment kinds)."""
        if not self.ok:
            raise SweepFailure([self])
        return SimulationResult.from_dict(self.payload)


def plan_rows(
    specs: Sequence[RunSpec],
    digests: Sequence[str],
    cache: Optional[ResultCache],
    settled_prior: Dict[str, Dict[str, Any]],
    journal: Optional[SweepJournal],
    sweep_id: str = "",
    journal_file: str = "",
    obs_level: str = "off",
) -> Tuple[
    Dict[int, RunRecord], Dict[str, List[int]], Dict[str, Dict[str, Any]]
]:
    """The lease-aware sweep planner: split specs into settled records
    and pending work.

    Probes the result cache and the prior journal rows for every spec,
    journaling the plan-time events
    (``cache_hit``/``journal_hit``/``artifact_hit``/``artifact_miss``).
    Returns ``(records, pending, artifacts)`` where
    ``records`` maps already-settled indices to their
    :class:`RunRecord`, ``pending`` maps each digest still owed to the
    spec indices wanting it (the first index of each group is the
    *lead* — the one actually dispatched; duplicates are filled at
    collect time), and ``artifacts`` maps each settled digest whose
    cache record carries telemetry at ``obs_level`` to ``{"runs",
    "trace"}`` — read once, here, and adopted from memory at collect.

    This is the single planning path for both the local executor and
    the cluster master (:mod:`repro.cluster.master`), so a sweep
    executed remotely reuses exactly the local cache/resume semantics.
    """
    records: Dict[int, RunRecord] = {}
    pending: Dict[str, List[int]] = {}
    artifacts: Dict[str, Dict[str, Any]] = {}
    emitted: set = set()  # digests whose artifact was already journaled
    observed = cache is not None and obs_level != "off"
    for index, (spec, digest) in enumerate(zip(specs, digests)):
        journal_row = settled_prior.get(digest)
        if not observed:
            stored = cache.get(digest) if cache is not None else None
        else:
            # Telemetry lives only in the cache record: an ok row
            # whose record lacks it at this level (captured lower,
            # quarantined, or only journaled) re-executes.  Runs are
            # deterministic, so the payload cannot change, and the
            # fresh execute rewrites the whole record.
            stored, telemetry = cache.get_observed(digest, obs_level)
            if journal_row is not None and journal_row.get("status") == "ok":
                journal_row = None
                settled = True
            else:
                settled = stored is not None
            if journal is not None and settled and digest not in emitted:
                emitted.add(digest)
                journal.emit(
                    "artifact_miss" if telemetry is None else "artifact_hit",
                    digest=digest,
                    index=index,
                )
            if telemetry is None:
                stored = None
            else:
                artifacts[digest] = telemetry
        if stored is not None:
            records[index] = RunRecord(
                index=index,
                kind=spec.kind,
                label=spec.describe(),
                digest=digest,
                status="ok",
                payload=stored.get("payload", {}),
                duration_s=float(stored.get("duration_s", 0.0)),
                cached=True,
                sweep_id=sweep_id,
                journal_path=journal_file,
            )
            if journal is not None:
                journal.emit(
                    "cache_hit",
                    digest=digest,
                    index=index,
                    label=spec.describe(),
                )
        elif journal_row is not None:
            row = journal_row
            records[index] = RunRecord(
                index=index,
                kind=spec.kind,
                label=spec.describe(),
                digest=digest,
                status=str(row.get("status", "error")),
                payload=row.get("payload", {}),
                error=row.get("error"),
                duration_s=float(row.get("duration_s", 0.0)),
                attempts=int(row.get("attempts", 1)),
                poisoned=bool(row.get("poisoned", False)),
                resumed=True,
                sweep_id=sweep_id,
                journal_path=journal_file,
            )
            if journal is not None:
                journal.emit(
                    "journal_hit",
                    digest=digest,
                    index=index,
                    status=records[index].status,
                    poisoned=records[index].poisoned,
                )
        else:
            # Identical specs (same digest) simulate once.
            pending.setdefault(digest, []).append(index)
    return records, pending, artifacts


def persist_outcome(
    spec: RunSpec,
    index: int,
    digest: str,
    outcome: Dict[str, Any],
    cache: Optional[ResultCache],
    journal: Optional[SweepJournal],
) -> None:
    """Flush one settled outcome to the cache and journal.

    The single write path shared by the local executor and the cluster
    master: whoever settles a run — an in-process worker or a remote
    agent pushing its result — the row lands in the same stores with
    the same shape, so caches and journals merge cleanly.  It is the
    only telemetry writer: an ok outcome's ``artifact`` rides in the
    same :meth:`ResultCache.put` as its result.
    """
    failpoints.fire(SITE_PERSIST_PRE)
    if cache is not None and outcome["status"] == "ok":
        cache.put(
            digest,
            {
                "kind": spec.kind,
                "label": spec.describe(),
                "status": "ok",
                "payload": outcome["payload"],
                "duration_s": outcome["duration_s"],
            },
            outcome.get("artifact"),
        )
    if journal is not None:
        journal.record_run(
            digest,
            index=index,
            kind=spec.kind,
            label=spec.describe(),
            status=outcome["status"],
            payload=outcome["payload"],
            error=outcome.get("error"),
            duration_s=outcome["duration_s"],
            attempts=outcome.get("attempt", 1),
            poisoned=outcome.get("poison", False),
        )
    failpoints.fire(SITE_PERSIST_POST)


def adopt_artifacts(
    obs, records: Sequence[RunRecord], artifacts: Dict[str, Dict[str, Any]]
) -> int:
    """Fold each ok digest's artifact into ``obs`` once, in record
    order; returns how many were adopted.

    The one adoption step for a local sweep's collect and a
    ``--master-url`` client alike, so a sweep's metrics document is
    the same however its runs executed.
    """
    adopted: set = set()
    for record in records:
        artifact = artifacts.get(record.digest)
        if not record.ok or artifact is None or record.digest in adopted:
            continue
        adopted.add(record.digest)
        obs.adopt_runs(artifact["runs"], artifact.get("trace"))
    return len(adopted)


def _open_journal(
    supervision: Supervision,
    cache: Optional[ResultCache],
    digests: Sequence[str],
    jobs: int,
    obs_level: str,
) -> Tuple[Optional[SweepJournal], Dict[str, Dict[str, Any]]]:
    """The sweep's journal, opened with this session's ``sweep_begin``,
    plus the rows a prior session settled; ``(None, {})`` without one.

    Journaling is on exactly when there is a cache (the journal lives
    beside it) or a ``supervision.journal_dir``: ``--no-cache`` runs
    are explicitly ephemeral.  Every journaled sweep is followable, at
    any obs level.
    """
    if supervision.journal_dir is not None:
        root = supervision.journal_dir
    elif cache is not None:
        root = journal_root(cache.root)
    else:
        return None, {}
    journal = SweepJournal(root, sweep_id_for(digests))
    prior = load_journal(journal.path)
    journal.begin(
        supervision.argv, list(digests), jobs=jobs, obs_level=obs_level
    )
    return journal, prior.resumable() if prior is not None else {}


def execute(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    obs=None,
    supervision: Optional[Supervision] = None,
) -> List[RunRecord]:
    """Run every spec; one record per spec, in spec order.

    Raises :class:`~repro.errors.SweepInterrupted` when a first
    SIGINT/SIGTERM arrives mid-sweep: in-flight runs drain, settled
    rows are already flushed, and the exception names the journal and
    the resume command.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    specs = list(specs)
    if not specs:
        return []
    supervision = supervision if supervision is not None else Supervision()

    if supervision.master_url:
        # Distributed execution: submit the plan to a running
        # ``repro master`` and collect the settled records.  The
        # cluster modules import lazily — the default local path never
        # pays for them (see docs/distributed_execution.md).
        from repro.cluster.client import execute_via_master

        return execute_via_master(specs, supervision, obs=obs)

    # A single spec is not a sweep: skip the executor's own run
    # observation so `repro run --metrics` documents stay one-run.
    exec_obs = None
    if obs is not None and obs.enabled and len(specs) > 1:
        exec_obs = obs.begin_run(f"sweep-exec[{len(specs)} runs]")

    def phase(name):
        if exec_obs is not None:
            return exec_obs.profiler.phase(name)
        return contextlib.nullcontext()

    # An observed sweep captures every run; its artifacts ride the
    # result cache records when there is a cache.  A single spec keeps
    # threading the session through (no capture).
    obs_level = obs.level.value if exec_obs is not None else "off"

    with phase("plan"):
        digests = [spec_digest(spec) for spec in specs]
        journal, settled_prior = (
            _open_journal(
                supervision, cache, digests, jobs,
                obs.level.value if obs is not None else "off",
            )
            if len(specs) > 1
            else (None, {})
        )
        sweep_id = journal.sweep_id if journal is not None else ""
        journal_file = str(journal.path) if journal is not None else ""
        records, pending, artifacts = plan_rows(
            specs, digests, cache, settled_prior, journal,
            sweep_id=sweep_id, journal_file=journal_file, obs_level=obs_level,
        )

    index_digest = {indices[0]: digest for digest, indices in pending.items()}
    tasks = [(indices[0], specs[indices[0]]) for indices in pending.values()]
    outcomes: Dict[int, Dict[str, Any]] = {}
    with phase("execute"), GracefulSignals(
        enabled=supervision.handle_signals and bool(tasks)
    ) as signals:
        for outcome in run_tasks(
            tasks,
            jobs,
            supervision,
            lambda: signals.triggered is not None,
            index_digest,
            journal=journal,
            obs=obs,
            obs_level=obs_level,
        ):
            # Each settled row reaches the cache and journal at once.
            index = outcome["index"]
            outcomes[index] = outcome
            persist_outcome(
                specs[index], index, index_digest[index], outcome, cache, journal
            )

    interrupted = signals.triggered if tasks else None

    with phase("collect"):
        for digest, indices in pending.items():
            outcome = outcomes.get(indices[0])
            if outcome is None:
                continue  # interrupted before this task settled
            for index in indices:
                records[index] = RunRecord.from_outcome(
                    index,
                    specs[index],
                    digest,
                    outcome,
                    cached=index != indices[0],
                    sweep_id=sweep_id,
                    journal_path=journal_file,
                )

        if exec_obs is not None:
            # Fold per-run telemetry into the session, in spec order:
            # warm hits adopt what the plan read, fresh runs what they
            # carried.
            for index, outcome in outcomes.items():
                if outcome.get("artifact") is not None:
                    artifacts[index_digest[index]] = outcome["artifact"]
            adopted = adopt_artifacts(
                obs, [records[index] for index in sorted(records)], artifacts
            )
            registry = exec_obs.registry
            registry.counter("exec.runs").inc(len(specs))
            registry.counter("exec.cache_hits").inc(
                sum(1 for record in records.values() if record.cached)
            )
            registry.counter("exec.resumed").inc(
                sum(1 for record in records.values() if record.resumed)
            )
            registry.counter("exec.executed").inc(len(outcomes))
            registry.counter("exec.retries").inc(
                sum(outcome["attempt"] - 1 for outcome in outcomes.values())
            )
            registry.counter("exec.failures").inc(
                sum(1 for record in records.values() if not record.ok)
            )
            registry.counter("exec.poisoned").inc(
                sum(1 for record in records.values() if record.poisoned)
            )
            registry.gauge("exec.jobs").set(jobs)
            registry.counter("exec.obs_artifacts").inc(adopted)
            run_seconds = registry.tally("exec.run_seconds")
            for outcome in outcomes.values():
                run_seconds.record(outcome["duration_s"])

    if journal is not None:
        journal.end(
            "interrupted" if interrupted is not None else "complete",
            settled=len(records),
        )
    if interrupted is not None:
        if exec_obs is not None:
            obs.finish_run(exec_obs)
        done = len(records)
        raise SweepInterrupted(
            sweep_id=sweep_id,
            journal_path=journal_file,
            completed=done,
            pending=len(specs) - done,
            signal_name=interrupted,
        )

    if exec_obs is not None:
        obs.finish_run(exec_obs)
    return [records[index] for index in range(len(specs))]


def require_ok(records: Sequence[RunRecord]) -> List[RunRecord]:
    """The records, or :class:`SweepFailure` if any run failed."""
    failures = [record for record in records if not record.ok]
    if failures:
        raise SweepFailure(failures)
    return list(records)


def records_to_results(records: Sequence[RunRecord]) -> List[SimulationResult]:
    """Materialise experiment results, raising if any run failed."""
    return [record.result() for record in require_ok(records)]
