"""Content-addressed on-disk result cache.

Layout: ``<root>/objects/<digest[:2]>/<digest>.json``, one JSON record
per finished run.  The digest is :func:`repro.exec.spec.spec_digest`
(config + params + kind + code-version salt), so a cache hit is
*proof* the identical simulation already ran under identical code —
the stored payload is returned byte-for-byte.

Records are written atomically (temp file + rename) so a crashed or
parallel writer never leaves a torn entry; unreadable entries are
treated as misses and overwritten.  Only successful runs are cached —
failures always re-execute.

Integrity: every record carries a self-describing ``checksum`` field
(SHA-256 over the canonical JSON of the rest of the record).  A
record whose checksum does not verify — corrupt-but-still-valid JSON,
which the parse-based guards cannot catch — is moved to
``<root>/quarantine/`` and treated as a miss, so a poisoned cache can
degrade a sweep to re-execution but can never serve wrong bytes.

Robustness: a full disk (ENOSPC/EDQUOT) disables further writes with
a single warning instead of failing the sweep — the cache is an
accelerator, never a dependency.  Crash behaviour at the atomic-write
boundary is testable via the ``cache.write.*`` failpoints
(:mod:`repro.failpoints`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro import failpoints
from repro.integrity import (
    out_of_space,
    quarantine_file,
    record_checksum,
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


def resolve_cache_dir(explicit: Optional[PathLike] = None) -> Path:
    """The cache directory to use: flag > environment > default."""
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


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
        """The run records under ``objects/``, in digest order.  Obs
        artifacts (``<digest>.obs.*``) share the directories but are
        not records."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return iter(())
        return (
            path for path in sorted(objects.glob("*/*.json"))
            if "." not in path.stem
        )

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

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` (corrupt entries count as misses)."""
        path = self.path_for(digest)
        try:
            with path.open() as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError):
            self.misses += 1
            return None
        if not isinstance(record, dict) or record.get("digest") != digest:
            self.misses += 1
            return None
        checksum = record.get("checksum")
        if not isinstance(checksum, str) or checksum != record_checksum(
            record
        ):
            # Valid JSON, wrong bytes: never serve it.  Preserve the
            # evidence and let the row re-execute.
            self.misses += 1
            self.quarantined += 1
            quarantine_file(self.root, path)
            return None
        self.hits += 1
        return record

    def put(self, digest: str, record: Dict[str, Any]) -> Path:
        """Atomically persist ``record`` under ``digest``.

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
        payload["checksum"] = record_checksum(payload)
        # Insertion order is part of the payload: a cache hit must
        # reproduce the original run's serialization byte-for-byte.
        data = (json.dumps(payload) + "\n").encode("utf-8")
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
        """All readable records, in digest order."""
        for path in self._record_paths():
            try:
                with path.open() as handle:
                    record = json.load(handle)
            except (json.JSONDecodeError, OSError):
                continue
            if isinstance(record, dict):
                yield record

    def clear(self) -> int:
        """Delete every record, and the obs artifacts stored beside the
        records with them; returns how many records were removed."""
        removed = 0
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        for path in objects.glob("*/*"):
            if path.name.startswith("."):
                continue  # an in-flight temp file
            try:
                path.unlink()
            except OSError:
                continue
            if "." not in path.stem:
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
