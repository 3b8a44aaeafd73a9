"""Supervised worker pool: timeouts, heartbeats, retries, quarantine.

The bare ``Pool.imap_unordered`` executor had three blind spots:

* a worker killed by the OS (OOM killer, ``kill -9``) hangs the whole
  sweep — the pool waits forever for a result that will never come;
* a wedged worker (deadlock, runaway run) is indistinguishable from a
  slow one;
* a transient failure (resource blip) costs the whole row even though
  a second attempt would have succeeded.

:class:`SupervisedPool` replaces it with explicitly managed
``multiprocessing.Process`` workers:

* **per-worker mailboxes** — each worker owns a size-1 task queue, so
  the parent always knows *exactly* which task a dead worker held and
  can re-dispatch it (a shared task queue loses that attribution);
* **heartbeat files** — each worker's daemon thread touches an empty
  heartbeat file every ``heartbeat_interval`` seconds (only its mtime
  is read); a busy worker whose heartbeat goes stale past
  ``heartbeat_timeout`` is declared hung, killed, and its task
  re-dispatched;
* **wall-clock timeouts** — ``run_timeout`` bounds any single attempt;
* **bounded retries** — transient failures (worker death, timeout,
  non-:class:`~repro.errors.ReproError` exceptions) retry up to
  ``max_attempts`` with exponential backoff + jitter, while
  deterministic :class:`~repro.errors.ReproError` failures are
  **poisoned**: re-running identical code on an identical spec would
  fail identically, so they settle immediately and are quarantined in
  the journal (a resume will not re-run them either).

:func:`run_tasks` is the one dispatch path, used by the local
executor and by a cluster agent alike: in process for one job, across
the pool otherwise, under one retry rule.  Outcomes are yielded *as
they settle*, so the executor can flush each row to the cache and
journal the moment it exists — the crash-safety window is one row,
not one sweep.

Telemetry: above ``obs_level="off"`` every run, in a worker or
in-process, is captured under its own session and its outcome carries
``artifact = {"level": ..., "runs": [...], "trace": [...] | None}``;
the caller persists and adopts it (nothing here writes a store).
"""

from __future__ import annotations

import os
import queue
import signal
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import failpoints
from repro.errors import ConfigurationError, ReproError
from repro.exec.retry import RetryPolicy
from repro.exec.spec import RunSpec, run_spec

#: Environment default for ``Supervision.run_timeout`` (seconds).
RUN_TIMEOUT_ENV = "REPRO_RUN_TIMEOUT"

#: Failpoint site in the worker loop: the outcome is computed but not
#: yet handed back — a crash here exercises dead-worker attribution
#: and the retry ladder (pair with ``!once`` so the replacement
#: worker survives).
SITE_WORKER_PRE_RESULT = failpoints.register_site(
    "worker.result.pre_put",
    "worker computed an outcome, not yet pushed to the results queue",
)


@dataclass
class Supervision:
    """Execution-robustness knobs for one sweep.

    The defaults are production-shaped: generous timeouts, three
    attempts, heartbeats cheap enough to always leave on.  Tests dial
    them down to milliseconds.
    """

    #: Wall-clock bound per run attempt, seconds.  ``None`` (the
    #: default) reads ``REPRO_RUN_TIMEOUT``; unset means unbounded.
    #: Enforced by the worker pool — the in-process ``jobs=1`` path
    #: cannot preempt a running simulation.
    run_timeout: Optional[float] = None
    #: Total attempts per spec (1 = no retries).
    max_attempts: int = 3
    #: First retry delay, seconds; doubles each further attempt.
    backoff_base: float = 0.5
    #: Ceiling on the backoff delay, seconds.
    backoff_cap: float = 30.0
    #: How often workers touch their heartbeat file, seconds.
    heartbeat_interval: float = 0.5
    #: A busy worker silent this long is declared hung and killed.
    heartbeat_timeout: float = 30.0
    #: Where heartbeat files live (default: a private temp dir).
    heartbeat_dir: Optional[Path] = None
    #: Journal directory (default: ``<cache root>/journals``; without
    #: a cache or this directory the sweep is not journaled).
    journal_dir: Optional[Path] = None
    #: The command line to record for ``repro sweep-resume``.
    argv: Optional[List[str]] = None
    #: Install SIGINT/SIGTERM graceful-drain handlers during execute()
    #: (skipped automatically off the main thread).
    handle_signals: bool = True
    #: Submit the sweep to a running ``repro master`` at this URL
    #: instead of executing locally (see docs/distributed_execution.md).
    #: The master owns the cache/journal; ``jobs`` and ``cache`` of the
    #: local invocation are ignored in that mode.
    master_url: Optional[str] = None

    def __post_init__(self) -> None:
        if self.run_timeout is None:
            env = os.environ.get(RUN_TIMEOUT_ENV)
            if env:
                self.run_timeout = float(env)
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigurationError(
                f"run_timeout must be > 0 seconds, got {self.run_timeout}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def retry_policy(self) -> RetryPolicy:
        """This sweep's knobs as the stack-wide retry contract."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
        )

    def backoff_delay(self, attempt: int) -> float:
        """Delay before attempt ``attempt + 1`` (exponential + jitter).

        Jitter decorrelates retries across workers; it perturbs only
        *when* a retry runs, never *what* it computes, so results stay
        byte-identical.  Delegates to the shared
        :class:`~repro.exec.retry.RetryPolicy` so the supervisor, the
        cluster transport, and agent pushes back off identically.
        """
        return self.retry_policy().delay(attempt)


def classify_failure(error: BaseException) -> bool:
    """True when ``error`` poisons the spec (deterministic failure).

    :class:`ReproError` and subclasses (configuration, scheduling,
    sanitize violations...) are functions of the spec and the code —
    retrying cannot change the outcome.  Everything else is presumed
    transient.
    """
    return isinstance(error, ReproError)


def synthetic_failure(
    spec: RunSpec,
    reason: str,
    attempt: int,
    max_attempts: int,
    duration_s: float = 0.0,
) -> Dict[str, Any]:
    """The outcome of an attempt whose executor never answered (a
    reaped worker, an expired cluster lease): a transient error naming
    the reason, the spec and the attempt."""
    return {
        "status": "error",
        "payload": {},
        "error": (
            f"{reason} (spec {spec.describe()!r}, attempt "
            f"{attempt}/{max_attempts})\n"
        ),
        "poison": False,
        "duration_s": duration_s,
        "attempt": attempt,
    }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _supervised_worker(
    worker_id: int,
    mailbox,
    results,
    heartbeat_path: str,
    heartbeat_interval: float,
    obs_level: str = "off",
) -> None:
    """Worker main loop (module-level: must be picklable for spawn).

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    process group) interrupts only the parent, which then drains the
    in-flight runs gracefully.

    Above ``off``, each run is captured (see :func:`_run_captured`) and
    its artifact rides the outcome back to the parent.  The telemetry
    contract guarantees the observed payload is byte-identical to an
    unobserved one.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    beat_path = Path(heartbeat_path)
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.is_set():
            try:
                beat_path.touch()
            except OSError:
                pass  # a missed beat is indistinguishable from a slow one
            stop_beating.wait(heartbeat_interval)

    threading.Thread(
        target=_beat, name=f"heartbeat-{worker_id}", daemon=True
    ).start()
    while True:
        task = mailbox.get()
        if task is None:
            break
        outcome = _attempt(*task, obs_level)
        failpoints.fire(SITE_WORKER_PRE_RESULT)
        results.put(outcome)
    stop_beating.set()


def _attempt(
    index: int, spec: RunSpec, attempt: int, obs_level: str, obs=None
) -> Dict[str, Any]:
    """One attempt at one task, in a worker or in process: ok with its
    payload and artifact, or an error with its traceback and whether
    it poisons the spec."""
    start = time.perf_counter()
    try:
        payload, artifact = _run_captured(spec, obs_level, obs=obs)
    except Exception as error:  # noqa: BLE001 — failure capture is the point
        return {
            "index": index,
            "status": "error",
            "payload": {},
            "error": traceback.format_exc(),
            "poison": classify_failure(error),
            "duration_s": time.perf_counter() - start,
            "attempt": attempt,
        }
    return {
        "index": index,
        "status": "ok",
        "payload": payload,
        "error": None,
        "poison": False,
        "duration_s": time.perf_counter() - start,
        "attempt": attempt,
        "artifact": artifact,
    }


def _retry_delay(
    options: Supervision,
    outcome: Dict[str, Any],
    journal,
    digest: Optional[str],
    draining: bool,
) -> Optional[float]:
    """The one retry rule, in process and in the pool alike.

    ``None`` when ``outcome`` settles: it succeeded, it is poisoned,
    its attempt budget is spent, or the sweep is draining.  Otherwise
    the backoff before the next attempt, journaled as ``run_retried``
    with the error's last line.
    """
    attempt = outcome["attempt"]
    if (
        outcome["status"] == "ok"
        or outcome["poison"]
        or attempt >= options.max_attempts
        or draining
    ):
        return None
    delay = options.backoff_delay(attempt)
    if journal is not None:
        journal.emit(
            "run_retried",
            index=outcome["index"],
            digest=digest,
            attempt=attempt,
            delay_s=round(delay, 3),
            reason=(outcome.get("error") or "").strip().rsplit("\n", 1)[-1][:200],
        )
    return delay


def _run_captured(
    spec: RunSpec, obs_level: str, obs=None
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one spec; returns ``(payload, artifact)``.

    Above ``off`` the run executes under a fresh single-run telemetry
    session (memory trace sink) and ``artifact`` holds its level, its
    snapshots and (at trace level) its trace events; the payload is
    byte-identical to an unobserved run's, so capture is safe in
    process, in a worker and on an agent alike.  At ``off`` this is a
    plain :func:`run_spec` threading ``obs`` through (a single-spec
    execute, which streams straight into the caller's session) and
    ``artifact`` is ``None``.
    """
    if obs_level == "off":
        return run_spec(spec, obs=obs), None
    from repro.obs import Observability

    capture = Observability(level=obs_level)
    payload = run_spec(spec, obs=capture)
    trace_events = [event.to_json() for event in capture.memory_events()]
    capture.finish()
    return payload, {
        "level": obs_level, "runs": capture.runs, "trace": trace_events or None
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def pool_context():
    """Fork where available (cheap, inherits imports), else spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass
class _PendingTask:
    """One dispatchable unit: a spec, its attempt count, and the
    earliest monotonic time it may run (backoff)."""

    index: int
    spec: RunSpec
    attempt: int = 1
    not_before: float = 0.0


class _WorkerHandle:
    """Parent-side view of one worker process."""

    def __init__(self, worker_id: int, process, mailbox, heartbeat_path: Path):
        self.worker_id = worker_id
        self.process = process
        self.mailbox = mailbox
        self.heartbeat_path = heartbeat_path
        self.task: Optional[_PendingTask] = None
        self.dispatched_at = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def last_beat(self) -> Optional[float]:
        """Wall-clock time of the last heartbeat (None before the first)."""
        try:
            return self.heartbeat_path.stat().st_mtime
        except OSError:
            return None


class SupervisedPool:
    """Runs tasks on supervised workers; yields outcomes as they settle.

    A *settled* outcome is final for its task: success, poison, or a
    transient failure whose retry budget is exhausted.  Transient
    failures below the budget are silently re-queued with backoff.
    """

    def __init__(
        self,
        tasks: List[Tuple[int, RunSpec]],
        jobs: int,
        options: Supervision,
        context,
        journal=None,
        obs_level: str = "off",
        digests: Optional[Dict[int, str]] = None,
    ) -> None:
        self.options = options
        self.context = context
        self.journal = journal
        self.obs_level = obs_level
        self.digests = digests or {}
        self.pending: List[_PendingTask] = [
            _PendingTask(index=index, spec=spec) for index, spec in tasks
        ]
        self.total = len(self.pending)
        self.jobs = min(jobs, self.total) or 1
        self.results = context.Queue()
        self.workers: List[_WorkerHandle] = []
        self.settled: Dict[int, Dict[str, Any]] = {}
        self.stop_requested = False
        self._next_worker_id = 0
        self._own_heartbeat_dir: Optional[str] = None
        if options.heartbeat_dir is not None:
            self.heartbeat_dir = Path(options.heartbeat_dir)
            self.heartbeat_dir.mkdir(parents=True, exist_ok=True)
        else:
            self._own_heartbeat_dir = tempfile.mkdtemp(prefix="repro-hb-")
            self.heartbeat_dir = Path(self._own_heartbeat_dir)

    def _emit(self, event: str, **fields) -> None:
        """Journal one progress event (if the sweep is journaled)."""
        if self.journal is not None:
            self.journal.emit(event, **fields)

    # -- lifecycle -----------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        mailbox = self.context.Queue(maxsize=1)
        heartbeat_path = self.heartbeat_dir / f"worker-{worker_id}.beat"
        process = self.context.Process(
            target=_supervised_worker,
            args=(
                worker_id,
                mailbox,
                self.results,
                str(heartbeat_path),
                self.options.heartbeat_interval,
                self.obs_level,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(worker_id, process, mailbox, heartbeat_path)
        self.workers.append(handle)
        self._emit("worker_spawned", worker=worker_id, pid=process.pid)
        return handle

    def request_stop(self) -> None:
        """Graceful drain: no new dispatches; in-flight runs finish."""
        self.stop_requested = True

    @property
    def outstanding(self) -> int:
        """Tasks not yet settled (pending queue + in flight)."""
        return self.total - len(self.settled)

    # -- supervision core ----------------------------------------------
    def _dispatch_ready(self) -> None:
        if self.stop_requested:
            return
        now = time.monotonic()
        idle = [w for w in self.workers if not w.busy and w.process.is_alive()]
        while idle and self.pending:
            ready_at = min(task.not_before for task in self.pending)
            if ready_at > now:
                break
            position = next(
                i for i, task in enumerate(self.pending)
                if task.not_before <= now
            )
            task = self.pending.pop(position)
            worker = idle.pop()
            worker.task = task
            worker.dispatched_at = now
            worker.mailbox.put((task.index, task.spec, task.attempt))
            self._emit(
                "run_leased",
                index=task.index,
                digest=self.digests.get(task.index),
                label=task.spec.describe(),
                worker=worker.worker_id,
                attempt=task.attempt,
            )

    def _retry_or_settle(
        self, task: _PendingTask, outcome: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Re-queue a failure with backoff, or settle the outcome (see
        :func:`_retry_delay`)."""
        delay = _retry_delay(
            self.options,
            outcome,
            self.journal,
            self.digests.get(task.index),
            self.stop_requested,
        )
        if delay is None:
            self.settled[task.index] = outcome
            return outcome
        self.pending.append(
            _PendingTask(
                index=task.index,
                spec=task.spec,
                attempt=task.attempt + 1,
                not_before=time.monotonic() + delay,
            )
        )
        return None

    def _reap(self, worker: _WorkerHandle, reason: str) -> Optional[Dict[str, Any]]:
        """Kill/cull a misbehaving worker; retry or settle its task."""
        task = worker.task
        worker.task = None
        self._emit(
            "worker_died",
            worker=worker.worker_id,
            reason=reason,
            index=task.index if task is not None else None,
        )
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
        self.workers.remove(worker)
        if task is None or task.index in self.settled:
            return None
        outcome = synthetic_failure(
            task.spec, reason, task.attempt, self.options.max_attempts,
            duration_s=time.monotonic() - worker.dispatched_at,
        )
        return self._retry_or_settle(task, {"index": task.index, **outcome})

    def _check_health(self) -> Iterator[Dict[str, Any]]:
        """Detect dead, timed-out, and hung workers."""
        now = time.monotonic()
        wall = time.time()
        options = self.options
        for worker in list(self.workers):
            if not worker.process.is_alive():
                exitcode = worker.process.exitcode
                settled = self._reap(
                    worker,
                    f"worker process died mid-run (exit code {exitcode})",
                )
                if settled is not None:
                    yield settled
                continue
            if not worker.busy:
                continue
            elapsed = now - worker.dispatched_at
            if options.run_timeout is not None and elapsed > options.run_timeout:
                settled = self._reap(
                    worker,
                    f"run exceeded --run-timeout {options.run_timeout:g}s",
                )
                if settled is not None:
                    yield settled
                continue
            beat = worker.last_beat()
            silent = wall - beat if beat is not None else elapsed
            if silent > options.heartbeat_timeout:
                settled = self._reap(
                    worker,
                    f"worker heartbeat silent for {silent:.1f}s (hung?)",
                )
                if settled is not None:
                    yield settled

    def _maintain_workers(self) -> None:
        """Keep one worker per remaining task, up to ``jobs``.

        Reaped workers are replaced here (the pool shrinks only as the
        outstanding work does).
        """
        target = min(self.jobs, self.outstanding)
        if self.stop_requested:
            target = self._in_flight()
        while len(self.workers) < target:
            self._spawn_worker()

    def _in_flight(self) -> int:
        return sum(1 for w in self.workers if w.busy)

    def run(self) -> Iterator[Dict[str, Any]]:
        """Yield settled outcomes until done (or drained after stop)."""
        try:
            while len(self.settled) < self.total:
                if self.stop_requested and self._in_flight() == 0:
                    break
                self._maintain_workers()
                self._dispatch_ready()
                try:
                    outcome = self.results.get(timeout=0.05)
                except queue.Empty:
                    outcome = None
                if outcome is not None:
                    task = None
                    for worker in self.workers:
                        if worker.task is not None and (
                            worker.task.index == outcome["index"]
                        ):
                            task = worker.task
                            worker.task = None
                            break
                    if task is None:
                        # Result from a worker already reaped (it
                        # finished in the kill window) — the synthetic
                        # failure settled or re-queued the task; a
                        # settled real result would be preferable but
                        # re-running it is merely redundant, never
                        # wrong (runs are deterministic).
                        continue
                    settled = self._retry_or_settle(task, outcome)
                    if settled is not None:
                        yield settled
                for settled in self._check_health():
                    yield settled
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for worker in self.workers:
            if worker.process.is_alive():
                try:
                    worker.mailbox.put_nowait(None)
                except queue.Full:
                    pass
        deadline = time.monotonic() + 2.0
        for worker in self.workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.kill()
        for worker in self.workers:
            worker.mailbox.close()
            worker.mailbox.cancel_join_thread()
        self.results.close()
        self.results.cancel_join_thread()
        if self._own_heartbeat_dir is not None:
            import shutil

            shutil.rmtree(self._own_heartbeat_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# The one dispatch path
# ----------------------------------------------------------------------
def run_tasks(
    tasks: List[Tuple[int, RunSpec]],
    jobs: int,
    options: Supervision,
    stopping: Callable[[], bool],
    digests: Dict[int, str],
    journal=None,
    obs=None,
    obs_level: str = "off",
) -> Iterator[Dict[str, Any]]:
    """Yield each task's settled outcome, ``"index"`` included.

    The dispatch unit of the local executor and of a cluster agent.
    With ``jobs == 1`` or a single task the tasks run in process, one
    after another, with no preemption (a hung run hangs; workers
    enforce timeouts); otherwise they run on a
    :class:`SupervisedPool`.  Both apply :func:`_retry_delay`.  Once
    ``stopping()`` reads true, no further task starts and no failure
    is retried: in-flight runs drain and settle.

    Above ``off``, ``obs_level`` captures each run as a worker does
    (``obs`` is then unused: the caller adopts the outcome's artifact);
    at ``off`` an in-process run threads ``obs`` through.  With a
    ``journal``, ``run_leased`` and ``run_retried`` progress events
    name each task by ``digests[index]``.
    """
    if jobs > 1 and len(tasks) > 1:
        pool = SupervisedPool(
            tasks,
            jobs,
            options,
            pool_context(),
            journal=journal,
            obs_level=obs_level,
            digests=digests,
        )
        for outcome in pool.run():
            yield outcome
            if stopping():
                pool.request_stop()
        return
    for index, spec in tasks:
        if stopping():
            return
        attempt = 1
        while True:
            if journal is not None:
                journal.emit(
                    "run_leased",
                    index=index,
                    digest=digests[index],
                    label=spec.describe(),
                    worker=None,
                    attempt=attempt,
                )
            outcome = _attempt(index, spec, attempt, obs_level, obs)
            delay = _retry_delay(
                options, outcome, journal, digests[index], stopping()
            )
            if delay is None:
                break
            time.sleep(delay)
            attempt += 1
        yield outcome


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class GracefulSignals:
    """Context manager turning the first SIGINT/SIGTERM into a drain
    request and the second into an immediate stop.

    Off the main thread (where ``signal.signal`` is illegal) it
    degrades to a no-op whose ``triggered`` is always ``None``.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.triggered: Optional[str] = None
        self._previous: Dict[int, Any] = {}

    def _handler(self, signum, frame) -> None:
        if self.triggered is None:
            self.triggered = signal.Signals(signum).name
            return
        raise KeyboardInterrupt  # second signal: the user means *now*

    def __enter__(self) -> "GracefulSignals":
        if not self.enabled:
            return self
        if threading.current_thread() is not threading.main_thread():
            self.enabled = False
            return self
        for signum in self.SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except (ValueError, OSError):
                continue
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                continue
        self._previous.clear()
