"""The sweep journal: the one crash-safe record of a sweep.

A sweep's identity is the content of its work, not the time it ran:
:func:`sweep_id_for` hashes the sorted spec digests, so re-running the
same command after a crash computes the same sweep id and finds the
same journal.  The journal is an **append-only JSONL file** at
``<journal_root>/<sweep_id>.jsonl`` holding every record of the sweep
in the order it happened (the vocabulary is the table in
:mod:`repro.obs.events`); nothing ever truncates or rewrites it.
Records come in two strengths:

* **durable** — ``sweep_begin`` (command line, row count, code salt;
  one per session), ``run_settled`` (one per finished digest, carrying
  the full payload, so resume works even with ``--no-cache``) and
  ``sweep_end`` (clean completion or graceful interruption, one per
  session).  Each is fsynced before the append returns, and an I/O
  error raises;
* **advisory** — every other progress event (cache and journal hits,
  leases, retries, workers, cluster agents).  Written the same way
  but not fsynced, and an error is swallowed: progress telemetry must
  never fail a sweep.

Every append is a single ``os.write`` of one ``\\n``-terminated line on
an ``O_APPEND`` descriptor, under an exclusive ``flock``, so concurrent
writers (the executor, a cluster master's handler threads) never
interleave bytes and a crash can at worst tear the *final* line;
:func:`read_records` skips a torn line and everything before it
stands.  A disk-full error (ENOSPC/EDQUOT) darkens the whole journal
with one warning: the sweep continues and a resume relies on the
result cache.

:func:`load_journal` folds a journal with
:func:`~repro.obs.events.replay_events` into the one
:class:`~repro.obs.events.SweepProgress` state every reader uses:
resume, ``repro sweep-status`` (``--journal``, ``--json``,
``--follow``), ``repro sweep-resume``, ``repro obs-diff`` and the chaos
harness.  Resume has two entry points: ``repro sweep-resume
<sweep-id>`` replays the recorded command line, and simply re-running
the original command hits the same journal automatically.  Either way
the executor treats journaled ``ok`` rows (and poisoned rows —
deterministic failures that would fail identically again) as done and
only dispatches the rest.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import failpoints
from repro.errors import ConfigurationError
from repro.exec.hashing import code_salt, digest_document
from repro.integrity import out_of_space, warn_degraded
from repro.obs.events import SweepProgress, replay_events

PathLike = Union[str, Path]

#: Failpoint sites bracketing the single-write append (every record).
SITE_APPEND_PRE_WRITE = failpoints.register_site(
    "journal.append.pre_write",
    "journal fd open and locked, record not yet written (torn-capable)",
)
SITE_APPEND_POST_WRITE = failpoints.register_site(
    "journal.append.post_write",
    "journal record written (and fsynced, if durable)",
)

#: Journal format version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Subdirectory of the cache root where journals live.
JOURNAL_SUBDIR = "journals"

#: Records a resume depends on: fsynced, and their I/O errors raise.
DURABLE_EVENTS = frozenset({"sweep_begin", "run_settled", "sweep_end"})


def sweep_id_for(digests) -> str:
    """Deterministic sweep identity: a digest of the sorted digests.

    Spec digests already include the code-version salt, so a code
    change yields a fresh sweep id — a stale journal can never satisfy
    a sweep whose rows it does not actually answer.
    """
    document = {"version": JOURNAL_VERSION, "digests": sorted(set(digests))}
    return digest_document(document)[:16]


def journal_root(cache_root: PathLike) -> Path:
    """Where journals live for a cache rooted at ``cache_root``."""
    return Path(cache_root) / JOURNAL_SUBDIR


def journal_path(root: PathLike, sweep_id: str) -> Path:
    """The journal file for ``sweep_id`` under ``root``."""
    return Path(root) / f"{sweep_id}.jsonl"


def _flock(fd: int, operation: int) -> None:
    try:
        fcntl.flock(fd, operation)
    except OSError:
        pass  # no lock support here: single-write appends still work


def _open_locked(path: Path):
    """``path`` opened for append and exclusively locked (its directory
    is made on the first append that finds it missing)."""
    try:
        handle = open(path, "a+b", buffering=0)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a+b", buffering=0)
    _flock(handle.fileno(), fcntl.LOCK_EX)
    return handle


class SweepJournal:
    """Append-only writer for one sweep's journal file.

    Every append opens the path and takes the exclusive lock,
    terminates a torn tail left by a killed writer (appending onto it
    would glue two records into one unparsable line), writes its one
    line and closes, which drops the lock.  Nothing ever rewrites the
    file.
    """

    def __init__(self, root: PathLike, sweep_id: str) -> None:
        self.sweep_id = sweep_id
        self.path = journal_path(root, sweep_id)
        #: Set when the disk filled up — appends become no-ops.
        self.dead = False

    def __repr__(self) -> str:
        return f"<SweepJournal {self.sweep_id} at {self.path}>"

    def _append(self, line: bytes, durable: bool) -> None:
        with _open_locked(self.path) as handle:
            fd = handle.fileno()
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                os.write(fd, b"\n")
            failpoints.fire(
                SITE_APPEND_PRE_WRITE,
                data=line,
                writer=lambda prefix: (os.write(fd, prefix), os.fsync(fd)),
            )
            os.write(fd, line)
            if durable:
                os.fsync(fd)
            failpoints.fire(SITE_APPEND_POST_WRITE)

    def emit(self, event: str, **fields: Any) -> None:
        """Append one record (durable kinds: fsynced, errors raise)."""
        if self.dead:
            return
        durable = event in DURABLE_EVENTS
        try:
            record = {"event": event, "ts": time.time(), **fields}
            self._append((json.dumps(record) + "\n").encode("utf-8"), durable)
        except (OSError, TypeError, ValueError) as error:
            if isinstance(error, OSError) and out_of_space(error):
                self.dead = True
                warn_degraded(
                    "sweep journal",
                    f"{error} — sweep continues without journaling "
                    f"(resume will rely on the result cache)",
                )
            elif durable:
                raise

    def begin(
        self,
        argv: Optional[List[str]],
        digests: List[str],
        jobs: int = 1,
        obs_level: str = "off",
    ) -> None:
        """Record a session's start (every session writes one).

        The code salt is the one every spec digest of the session was
        keyed with: replaying ``argv`` under another salt computes other
        digests, hence another sweep.
        """
        self.emit(
            "sweep_begin",
            version=JOURNAL_VERSION,
            sweep_id=self.sweep_id,
            total=len(set(digests)),
            jobs=jobs,
            obs_level=obs_level,
            argv=list(argv) if argv else [],
            code_salt=code_salt(),
        )

    def record_run(
        self,
        digest: str,
        *,
        kind: str,
        label: str,
        status: str,
        payload: Dict[str, Any],
        index: int = -1,
        error: Optional[str] = None,
        duration_s: float = 0.0,
        attempts: int = 1,
        poisoned: bool = False,
    ) -> None:
        """Append one finished (or settled-failed) row."""
        self.emit(
            "run_settled",
            index=index,
            digest=digest,
            kind=kind,
            label=label,
            status=status,
            duration_s=duration_s,
            attempts=attempts,
            poisoned=poisoned,
            error=error,
            payload=payload,
        )

    def end(self, status: str, settled: int = 0) -> None:
        """Append the session's terminal record."""
        self.emit("sweep_end", status=status, settled=settled)


def read_records(path: PathLike) -> List[Dict[str, Any]]:
    """Every readable record of one journal, in append order.

    Unparsable lines (a torn tail after a crash, a scribble) are
    skipped; everything before them stands.  A missing file reads as
    no records.
    """
    try:
        lines = Path(path).read_bytes().decode("utf-8", "replace").splitlines()
    except OSError:
        return []
    records: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "event" in record:
            records.append(record)
    return records


def load_journal(path: PathLike) -> Optional[SweepProgress]:
    """Fold one journal into its :class:`SweepProgress`, or ``None``
    when the file is missing or holds no readable ``sweep_begin``."""
    progress = replay_events(read_records(path))
    return progress if progress.sweep_id else None


def list_journals(root: PathLike) -> List[SweepProgress]:
    """All readable journals under ``root``, newest activity first."""
    root = Path(root)
    if not root.is_dir():
        return []
    states = [load_journal(path) for path in sorted(root.glob("*.jsonl"))]
    found = [state for state in states if state is not None]
    found.sort(key=lambda state: state.updated_at, reverse=True)
    return found


def find_journal(root: PathLike, sweep_id: Optional[str]) -> SweepProgress:
    """The journal for ``sweep_id`` (exact or unique-prefix match;
    ``None`` picks the most recently active sweep)."""
    root = Path(root)
    if sweep_id is not None:
        exact = load_journal(journal_path(root, sweep_id))
        if exact is not None:
            return exact
    known = list_journals(root)
    if sweep_id is None:
        if known:
            return known[0]
        raise ConfigurationError(
            f"no sweep journals under {root} (a sweep writes one whenever "
            "it has a cache or a journal directory)"
        )
    matches = [state for state in known if state.sweep_id.startswith(sweep_id)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        hint = (
            f"; known sweeps: {', '.join(state.sweep_id for state in known)}"
            if known
            else " (no journals yet)"
        )
        raise ConfigurationError(
            f"no sweep journal matches {sweep_id!r} under {root}{hint} "
            "(see `repro sweep-status --journal`)"
        )
    ids = ", ".join(state.sweep_id for state in matches)
    raise ConfigurationError(
        f"sweep id {sweep_id!r} is ambiguous: matches {ids}"
    )


def journal_status_rows(root: PathLike) -> List[Dict[str, Any]]:
    """One row per journal for ``repro sweep-status --journal``."""
    rows = []
    for state in list_journals(root):
        rows.append(
            {
                "sweep_id": state.sweep_id,
                "status": state.status,
                "total": state.total,
                "completed": state.completed,
                "pending": state.outstanding,
                "poisoned": state.poisoned,
                "age_s": round(state.age_s, 1),
                "command": " ".join(state.argv) if state.argv else "?",
            }
        )
    return rows
