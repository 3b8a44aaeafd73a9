"""Content-addressed on-disk result cache: one record per run.

Layout: ``<root>/objects/<digest[:2]>/<digest>.json``, the only record
of a finished run.  The digest is :func:`repro.exec.spec.spec_digest`
(config + params + kind + code-version salt), so a cache hit is
*proof* the identical simulation already ran under identical code —
the stored payload is returned byte-for-byte.

A record file holds one or two lines:

* line 1 is the run's JSON record (payload, timing, provenance);
* line 2 exists only for a run an observed sweep captured
  (``--obs-level metrics|trace``): its telemetry, ``{"runs": [...]}``
  plus ``"trace": [...]`` at trace level.  Line 1 then names it with
  ``obs_level`` and ``obs_checksum`` (SHA-256 of line 2's bytes).

Telemetry runs 30–45× the size of the record, so :meth:`ResultCache.get`
— every unobserved warm hit — reads and parses line 1 only, and
:meth:`ResultCache.get_observed` is the one reader of line 2.  An
observed plan treats a record whose ``obs_level`` is below the sweep's
as a miss; the re-execution rewrites the whole file.

Records are written atomically (temp file + one rename) so a crashed
or parallel writer never leaves a torn entry; unreadable entries are
treated as misses and overwritten.  Only successful runs are cached —
failures always re-execute.

Integrity: line 1 carries a self-describing ``checksum`` field
(SHA-256 over the canonical JSON of the rest of line 1, so it covers
``obs_checksum`` too).  A record whose checksum does not verify —
corrupt-but-still-valid JSON, which the parse-based guards cannot
catch — or whose telemetry line does not match its ``obs_checksum``
is moved to ``<root>/quarantine/`` and treated as a miss, so a
poisoned cache can degrade a sweep to re-execution but can never serve
wrong bytes.

Robustness: a full disk (ENOSPC/EDQUOT) disables further writes, of
results and telemetry alike, with a single warning instead of failing
the sweep — the cache is an accelerator, never a dependency.  Crash
behaviour at the atomic-write boundary is testable via the
``cache.write.*`` failpoints (:mod:`repro.failpoints`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro import failpoints
from repro.integrity import (
    out_of_space,
    quarantine_file,
    record_checksum,
    sha256,
    warn_degraded,
)

#: Failpoint sites at the atomic-write choreography.
SITE_WRITE_PRE_RENAME = failpoints.register_site(
    "cache.write.pre_rename",
    "after the cache temp file is written, before os.replace",
)
SITE_WRITE_POST_RENAME = failpoints.register_site(
    "cache.write.post_rename",
    "after the cache record is atomically in place",
)

PathLike = Union[str, Path]

#: Default cache location (relative to the working directory); the
#: ``REPRO_CACHE_DIR`` environment variable overrides it.
DEFAULT_CACHE_DIR = ".repro-cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Telemetry levels by detail: a record captured at a level serves
#: every level at or below it.
_LEVEL_RANK = {"off": 0, "metrics": 1, "trace": 2}


def resolve_cache_dir(explicit: Optional[PathLike] = None) -> Path:
    """The cache directory to use: flag > environment > default."""
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def _telemetry(record: Dict[str, Any], line: bytes) -> Optional[Dict[str, Any]]:
    """The telemetry ``line`` holds, or ``None`` unless it matches the
    record's ``obs_checksum``."""
    line = line.rstrip(b"\n")
    if record.get("obs_checksum") != sha256(line).hexdigest():
        return None
    try:
        telemetry = json.loads(line)
    except ValueError:
        return None
    return telemetry if isinstance(telemetry, dict) else None


def record_telemetry(data: bytes) -> Optional[Dict[str, Any]]:
    """The telemetry of a record file's bytes (``{"runs", ...}``), or
    ``None`` when they are not a record carrying verified telemetry —
    how ``obs-diff`` and ``obs-report`` read a record file."""
    head, _, line = data.partition(b"\n")
    try:
        record = json.loads(head)
    except ValueError:
        return None
    return _telemetry(record, line) if isinstance(record, dict) else None


class ResultCache:
    """A content-addressed store of finished run records."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        #: Set when the disk filled up — writes become no-ops.
        self.disabled = False

    def __repr__(self) -> str:
        return f"<ResultCache root={str(self.root)!r} entries={len(self)}>"

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    def _record_paths(self) -> Iterator[Path]:
        """The run records under ``objects/``, in digest order."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return iter(())
        return iter(sorted(objects.glob("*/*.json")))

    def size_bytes(self) -> int:
        """Total on-disk size of all records, in bytes."""
        total = 0
        for path in self._record_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def path_for(self, digest: str) -> Path:
        """Where the record for ``digest`` lives (existing or not)."""
        return self.root / "objects" / digest[:2] / f"{digest}.json"

    def _quarantine(self, path: Path) -> None:
        # Valid JSON, wrong bytes: never serve it.  Preserve the
        # evidence and let the row re-execute.
        self.quarantined += 1
        quarantine_file(self.root, path)

    def _read(
        self, digest: str, observed: bool
    ) -> Tuple[Optional[Dict[str, Any]], bytes]:
        """Line 1 as a verified record (or ``None``), and line 2's raw
        bytes when ``observed`` — the only lines either reader parses."""
        path = self.path_for(digest)
        try:
            with path.open("rb") as handle:
                head = handle.readline()
                line = handle.readline() if observed else b""
            record = json.loads(head)
        except (OSError, ValueError):
            return None, b""
        if not isinstance(record, dict) or record.get("digest") != digest:
            return None, b""
        checksum = record.get("checksum")
        if not isinstance(checksum, str) or checksum != record_checksum(
            record
        ):
            self._quarantine(path)
            return None, b""
        return record, line

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored record (line 1 only), or ``None`` (corrupt
        entries count as misses)."""
        record, _ = self._read(digest, observed=False)
        self._count(record is not None)
        return record

    def get_observed(
        self, digest: str, level: str
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
        """``(record, telemetry)`` for an observed plan at ``level``.

        ``telemetry`` is ``{"runs": [...], "trace": [...] | None}``
        (the trace only at ``trace`` level), or ``None`` — a miss —
        when the record lacks telemetry at ``level``.  A telemetry
        line that does not match its ``obs_checksum`` quarantines the
        whole file; ``record`` is still returned so the caller can
        tell "settled without telemetry" from "never settled".
        """
        record, line = self._read(digest, observed=True)
        telemetry = None
        if record is not None and _LEVEL_RANK.get(
            record.get("obs_level", "off"), 0
        ) >= _LEVEL_RANK[level]:
            telemetry = _telemetry(record, line)
            if telemetry is None:
                self._quarantine(self.path_for(digest))
            elif level != "trace":
                telemetry["trace"] = None
        self._count(telemetry is not None)
        return record, telemetry

    def put(
        self,
        digest: str,
        record: Dict[str, Any],
        artifact: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically persist ``record`` under ``digest``; a captured
        run's ``artifact`` (``{"level", "runs", "trace"}``) rides in
        the same file as line 2.

        Best-effort: an out-of-space error disables the cache for the
        rest of the process (one warning) rather than failing the
        sweep.  Other I/O errors still propagate.
        """
        path = self.path_for(digest)
        if self.disabled:
            return path
        payload = dict(record)
        payload["digest"] = digest
        payload.setdefault("created_at", time.time())
        line = b""
        if artifact is not None:
            telemetry: Dict[str, Any] = {"runs": artifact["runs"]}
            if artifact["level"] == "trace":
                telemetry["trace"] = artifact.get("trace") or []
            line = json.dumps(telemetry, separators=(",", ":")).encode("utf-8")
            payload["obs_level"] = artifact["level"]
            payload["obs_checksum"] = sha256(line).hexdigest()
            line += b"\n"
        payload["checksum"] = record_checksum(payload)
        # Insertion order is part of the payload: a cache hit must
        # reproduce the original run's serialization byte-for-byte.
        data = (json.dumps(payload) + "\n").encode("utf-8") + line
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with temp.open("wb") as handle:
                handle.write(data)
            failpoints.fire(
                SITE_WRITE_PRE_RENAME,
                data=data,
                writer=temp.write_bytes,
            )
            os.replace(temp, path)
            failpoints.fire(SITE_WRITE_POST_RENAME)
        except OSError as error:
            if not out_of_space(error):
                raise
            self.disabled = True
            warn_degraded(
                "result cache",
                f"{error} — continuing without caching new results",
            )
            try:
                temp.unlink()
            except OSError:
                pass
        return path

    def entries(self) -> Iterator[Dict[str, Any]]:
        """All readable records (line 1 of each), in digest order."""
        for path in self._record_paths():
            try:
                with path.open("rb") as handle:
                    record = json.loads(handle.readline())
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                yield record

    def clear(self) -> int:
        """Delete every record, telemetry included; returns how many
        were removed."""
        removed = 0
        for path in self._record_paths():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed


def format_bytes(size: int) -> str:
    """A human-readable byte count (``"1.2 MiB"``)."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TiB"


def cache_status_rows(cache: ResultCache) -> List[Dict[str, Any]]:
    """One summary row per run kind for ``repro sweep-status``."""
    by_kind: Dict[str, Dict[str, Any]] = {}
    now = time.time()
    for record in cache.entries():
        kind = str(record.get("kind", "?"))
        row = by_kind.setdefault(
            kind,
            {"kind": kind, "runs": 0, "sim_seconds_banked": 0.0,
             "newest_age_s": float("inf")},
        )
        row["runs"] += 1
        row["sim_seconds_banked"] += float(record.get("duration_s", 0.0))
        created = float(record.get("created_at", 0.0))
        row["newest_age_s"] = min(row["newest_age_s"], max(0.0, now - created))
    rows = []
    for kind in sorted(by_kind):
        row = by_kind[kind]
        rows.append(
            {
                "kind": kind,
                "runs": row["runs"],
                "sim_seconds_banked": round(row["sim_seconds_banked"], 2),
                "newest_age_s": (
                    0.0 if row["newest_age_s"] == float("inf")
                    else round(row["newest_age_s"], 1)
                ),
            }
        )
    return rows
