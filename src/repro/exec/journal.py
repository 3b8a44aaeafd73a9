"""Durable sweep journal: crash-safe checkpoint/resume for sweeps.

A sweep's identity is the content of its work, not the time it ran:
:func:`sweep_id_for` hashes the sorted spec digests, so re-running the
same command after a crash computes the same sweep id and finds the
same journal.  The journal itself is an **append-only JSONL file** at
``<journal_root>/<sweep_id>.jsonl``:

* a ``begin`` record with the command line, total row count, and the
  spec digests (written once, the first time the sweep starts);
* one ``run`` record per finished digest, carrying the full payload —
  the journal is self-contained, so resume works even with
  ``--no-cache``;
* an ``end`` record marking a clean completion or a graceful
  interruption.

Appends are single ``write()`` calls of one ``\\n``-terminated line
each, made under an exclusive ``flock`` and flushed + fsynced, so a
crash can at worst tear the *final* line; :func:`load_journal`
tolerates a torn tail (and any other unparsable line) by skipping it.
Everything before the tear is intact — that is the checkpoint.

Resume has two entry points: ``repro sweep-resume <sweep-id>`` replays
the recorded command line, and simply re-running the original command
hits the same journal automatically.  Either way the executor treats
journaled ``ok`` rows (and poisoned rows — deterministic failures that
would fail identically again) as done and only dispatches the rest.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro import failpoints
from repro.errors import ConfigurationError
from repro.exec.hashing import digest_document
from repro.integrity import out_of_space, warn_degraded

PathLike = Union[str, Path]

#: Failpoint sites bracketing the single-write append.
SITE_APPEND_PRE_WRITE = failpoints.register_site(
    "journal.append.pre_write",
    "journal fd open, record not yet written (torn-capable)",
)
SITE_APPEND_POST_WRITE = failpoints.register_site(
    "journal.append.post_write",
    "journal record written and fsynced",
)

#: Journal format version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Subdirectory of the cache root where journals live.
JOURNAL_SUBDIR = "journals"


def sweep_id_for(digests: Iterable[str]) -> str:
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


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovers from one journal."""

    sweep_id: str = ""
    path: Optional[Path] = None
    argv: List[str] = field(default_factory=list)
    total: int = 0
    digests: List[str] = field(default_factory=list)
    #: digest -> last ``run`` record seen for it.
    runs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: "in-progress" | "complete" | "interrupted"
    status: str = "in-progress"
    created_at: float = 0.0
    updated_at: float = 0.0

    @property
    def completed(self) -> int:
        """Rows finished successfully."""
        return sum(1 for row in self.runs.values() if row.get("status") == "ok")

    @property
    def poisoned(self) -> int:
        """Rows quarantined by a deterministic failure."""
        return sum(1 for row in self.runs.values() if row.get("poisoned"))

    @property
    def pending(self) -> int:
        """Rows the sweep still owes (retryable errors count as pending)."""
        return max(0, self.total - self.completed - self.poisoned)

    def settled_runs(self) -> Dict[str, Dict[str, Any]]:
        """Records a resume may reuse: successes and poisoned rows.

        Transient errors (retries exhausted, worker killed, timeout)
        are deliberately *not* settled — a resume retries them.
        """
        return {
            digest: row
            for digest, row in self.runs.items()
            if row.get("status") == "ok" or row.get("poisoned")
        }

    @property
    def resume_command(self) -> str:
        return f"repro sweep-resume {self.sweep_id}" if self.sweep_id else ""


class SweepJournal:
    """Append-only writer for one sweep's journal file."""

    def __init__(self, root: PathLike, sweep_id: str) -> None:
        self.sweep_id = sweep_id
        self.path = journal_path(root, sweep_id)
        #: Set when the disk filled up — appends become no-ops.
        self.dead = False
        self._tail_checked = False

    def __repr__(self) -> str:
        return f"<SweepJournal {self.sweep_id} at {self.path}>"

    def _repair_tail(self, fd: int) -> None:
        """Terminate a torn tail before the session's first append.

        A crash mid-append can leave the file ending in a partial
        record with no newline.  Appending the next record directly
        after it would glue two records onto one unparsable line —
        losing the *new* record too.  Writing a lone newline first
        confines the damage to the already-lost fragment.
        """
        if self._tail_checked:
            return
        self._tail_checked = True
        try:
            size = os.fstat(fd).st_size
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                os.write(fd, b"\n")
        except OSError:
            pass  # pread unsupported or racing writer: appends still work

    def _append(self, record: Dict[str, Any]) -> None:
        if self.dead:
            return
        line = (json.dumps(record, sort_keys=False) + "\n").encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A single os.write() on an O_APPEND descriptor per record: a
            # crash tears at most the last line (which load_journal skips),
            # and concurrent settlers — the local executor and a cluster
            # master flushing agent results into the same journal — cannot
            # interleave bytes *within* a row the way a buffered writer
            # splitting one line across flushes could.
            fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                # The kernel grows a file page by page inside one
                # write(), so a tail check racing another process's
                # append can see half a line and add a spurious blank
                # one.  Appenders serialise on the file; closing the
                # descriptor drops the lock.
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:
                    pass  # no lock support here: appends still work
                self._repair_tail(fd)
                failpoints.fire(
                    SITE_APPEND_PRE_WRITE,
                    data=line,
                    writer=lambda prefix: (
                        os.write(fd, prefix),
                        os.fsync(fd),
                    ),
                )
                os.write(fd, line)
                os.fsync(fd)
                failpoints.fire(SITE_APPEND_POST_WRITE)
            finally:
                os.close(fd)
        except OSError as error:
            if not out_of_space(error):
                raise
            self.dead = True
            warn_degraded(
                "sweep journal",
                f"{error} — sweep continues without journaling "
                f"(resume will rely on the result cache)",
            )

    def begin(self, argv: Optional[List[str]], digests: List[str]) -> None:
        """Record the sweep's start (idempotent across resumes).

        A resumed sweep appends nothing here: the original ``begin``
        already carries the command line and digest set, and appending
        another would only bloat the file.
        """
        if self.path.exists():
            state = load_journal(self.path)
            if state is not None and state.sweep_id == self.sweep_id:
                return
        self._append(
            {
                "event": "begin",
                "version": JOURNAL_VERSION,
                "sweep_id": self.sweep_id,
                "argv": list(argv) if argv else [],
                "total": len(set(digests)),
                "digests": sorted(set(digests)),
                "created_at": time.time(),
            }
        )

    def record_run(
        self,
        digest: str,
        *,
        kind: str,
        label: str,
        status: str,
        payload: Dict[str, Any],
        error: Optional[str] = None,
        duration_s: float = 0.0,
        attempts: int = 1,
        poisoned: bool = False,
    ) -> None:
        """Append one finished (or settled-failed) row."""
        self._append(
            {
                "event": "run",
                "digest": digest,
                "kind": kind,
                "label": label,
                "status": status,
                "payload": payload,
                "error": error,
                "duration_s": duration_s,
                "attempts": attempts,
                "poisoned": poisoned,
                "recorded_at": time.time(),
            }
        )

    def end(self, status: str) -> None:
        """Append the terminal record: ``complete`` or ``interrupted``."""
        self._append(
            {"event": "end", "status": status, "recorded_at": time.time()}
        )


def load_journal(path: PathLike) -> Optional[JournalState]:
    """Replay one journal file into a :class:`JournalState`.

    Returns ``None`` when the file is missing or contains no readable
    ``begin`` record.  Unparsable lines (torn tail after a crash) are
    skipped; later records win, so the state reflects the newest
    attempt at each row.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    state = JournalState(path=path)
    saw_begin = False
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail or scribble — everything before it stands
        if not isinstance(record, dict):
            continue
        event = record.get("event")
        if event == "begin":
            saw_begin = True
            state.sweep_id = str(record.get("sweep_id", ""))
            state.argv = [str(part) for part in record.get("argv", [])]
            state.total = int(record.get("total", 0))
            state.digests = [str(d) for d in record.get("digests", [])]
            state.created_at = float(record.get("created_at", 0.0))
            state.status = "in-progress"
        elif event == "run":
            digest = record.get("digest")
            if isinstance(digest, str):
                state.runs[digest] = record
                state.status = "in-progress"
                state.updated_at = float(record.get("recorded_at", 0.0))
        elif event == "end":
            state.status = str(record.get("status", "complete"))
            state.updated_at = float(record.get("recorded_at", 0.0))
    if not saw_begin:
        return None
    return state


def list_journals(root: PathLike) -> List[JournalState]:
    """All readable journals under ``root``, newest activity first."""
    root = Path(root)
    if not root.is_dir():
        return []
    states = []
    for path in sorted(root.glob("*.jsonl")):
        if path.name.endswith(".events.jsonl"):
            continue  # a sweep's progress event stream, not a journal
        state = load_journal(path)
        if state is not None:
            states.append(state)
    states.sort(key=lambda s: max(s.created_at, s.updated_at), reverse=True)
    return states


def find_journal(root: PathLike, sweep_id: str) -> JournalState:
    """The journal for ``sweep_id`` (exact or unique-prefix match)."""
    root = Path(root)
    exact = load_journal(journal_path(root, sweep_id))
    if exact is not None:
        return exact
    matches = [
        state for state in list_journals(root)
        if state.sweep_id.startswith(sweep_id)
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        known = [state.sweep_id for state in list_journals(root)]
        hint = (
            f"; known sweeps: {', '.join(known)}"
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
    now = time.time()
    rows = []
    for state in list_journals(root):
        stamp = max(state.created_at, state.updated_at)
        rows.append(
            {
                "sweep_id": state.sweep_id,
                "status": state.status,
                "total": state.total,
                "completed": state.completed,
                "pending": state.pending,
                "poisoned": state.poisoned,
                "age_s": 0.0 if not stamp else round(max(0.0, now - stamp), 1),
                "command": " ".join(state.argv) if state.argv else "?",
            }
        )
    return rows
