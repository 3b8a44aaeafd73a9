"""Content-addressed obs artifact store: telemetry that rides the cache.

When a sweep runs with ``--obs-level metrics|trace`` and a result
cache, every fresh execute also persists the run's telemetry next to
its cached result, keyed by the *same*
:func:`~repro.exec.spec.spec_digest`:

* ``<root>/objects/<d[:2]>/<digest>.obs.json`` — the obs *artifact*:
  the run's metrics snapshot(s) and phase profile
  (schema ``repro-obs-artifact/1``);
* ``<root>/objects/<d[:2]>/<digest>.obs.trace.jsonl`` — the run's
  structured trace (written only at ``trace`` level, same JSONL format
  as ``--trace FILE``).

A warm-cache run then reuses the stored telemetry byte-identically
instead of having none, and any historical run can be replayed through
``repro obs-report`` or diffed with ``repro obs-diff`` later.  The
semantics deliberately mirror :class:`~repro.exec.cache.ResultCache`:
writes are atomic (temp file + rename), and a corrupt or missing
artifact is **a miss** — the executor re-executes the run (results are
deterministic, so the payload is unchanged) and rewrites both halves.

:func:`capture_run` is how artifacts come to exist: every run of an
observed sweep executes under a fresh single-run
:class:`~repro.obs.Observability` session (memory trace sink, 100k
events), wherever it runs — in-process, in a worker, or on an agent.
The outcome carries the capture, and
:func:`~repro.exec.executor.persist_outcome` is the only caller of
:meth:`ObsArtifactStore.put`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import failpoints
from repro.integrity import (
    out_of_space,
    quarantine_file,
    record_checksum,
    warn_degraded,
)

PathLike = Union[str, Path]

#: Artifact JSON schema identifier; bump on incompatible changes.
ARTIFACT_SCHEMA = "repro-obs-artifact/1"

#: Failpoint site at the artifact/trace atomic-write boundary.
SITE_STORE_WRITE_PRE_RENAME = failpoints.register_site(
    "obs.store.write.pre_rename",
    "after an obs artifact/trace temp file is written, before rename",
)


class ObsArtifactStore:
    """Per-run telemetry artifacts, content-addressed beside the cache.

    ``root`` is the *result-cache* root: artifacts share its
    ``objects/<digest[:2]>/`` sharding so a run's result and telemetry
    live side by side and are garbage-collected together.
    """

    def __init__(self, root: PathLike, level: str = "metrics") -> None:
        from repro.obs import ObsLevel

        self.root = Path(root)
        self.level = ObsLevel.parse(level)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    def __repr__(self) -> str:
        return (
            f"<ObsArtifactStore root={str(self.root)!r} "
            f"level={self.level.value}>"
        )

    @property
    def tracing(self) -> bool:
        from repro.obs import ObsLevel

        return self.level is ObsLevel.TRACE

    # -- paths ---------------------------------------------------------
    def artifact_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / f"{digest}.obs.json"

    def trace_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / f"{digest}.obs.trace.jsonl"

    # -- read side -----------------------------------------------------
    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored artifact, or ``None`` (corrupt counts as a miss).

        At ``trace`` level the trace sidecar must be present and
        readable too — a half-written pair is a miss, mirroring
        :meth:`ResultCache.get`'s corrupt→miss semantics — and its
        events come back under the artifact's ``trace`` key, so one
        ``get`` reads the sidecar once.
        """
        path = self.artifact_path(digest)
        try:
            with path.open() as handle:
                artifact = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if (
            not isinstance(artifact, dict)
            or artifact.get("schema") != ARTIFACT_SCHEMA
            or artifact.get("digest") != digest
            or not isinstance(artifact.get("runs"), list)
        ):
            self.misses += 1
            return None
        checksum = artifact.get("checksum")
        if not isinstance(checksum, str) or checksum != record_checksum(
            artifact
        ):
            # Valid JSON but corrupted content: quarantine the pair
            # (the trace sidecar is only trustworthy via its artifact)
            # and re-capture on the next execute.
            self.misses += 1
            self.quarantined += 1
            quarantine_file(self.root, path)
            trace = self.trace_path(digest)
            if trace.exists():
                quarantine_file(self.root, trace)
            return None
        if self.tracing:
            trace = (
                self.get_trace(digest)
                if artifact.get("level") == "trace"
                else None
            )
            if trace is None:
                self.misses += 1
                return None
            artifact["trace"] = trace
        self.hits += 1
        return artifact

    def get_trace(self, digest: str) -> Optional[List[Dict[str, Any]]]:
        """The stored trace events, or ``None`` (corrupt = miss)."""
        path = self.trace_path(digest)
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return None
        events: List[Dict[str, Any]] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return None  # a torn trace is useless: treat whole as miss
            if isinstance(record, dict):
                events.append(record)
        return events

    # -- write side ----------------------------------------------------
    def _atomic_write(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        data = text.encode("utf-8")
        with temp.open("wb") as handle:
            handle.write(data)
        failpoints.fire(
            SITE_STORE_WRITE_PRE_RENAME,
            data=data,
            writer=temp.write_bytes,
        )
        os.replace(temp, path)

    def put(
        self,
        digest: str,
        runs: List[Dict[str, Any]],
        trace_events: Optional[List[Dict[str, Any]]] = None,
    ) -> Path:
        """Atomically persist one run's telemetry under ``digest``.

        Never raises: artifact persistence is telemetry, so an
        unwritable store degrades to "no artifact" (the next warm run
        treats it as a miss and backfills).
        """
        artifact = {
            "schema": ARTIFACT_SCHEMA,
            "digest": digest,
            "level": self.level.value,
            "runs": runs,
            "created_at": time.time(),
        }
        artifact["checksum"] = record_checksum(artifact)
        path = self.artifact_path(digest)
        try:
            if self.tracing:
                lines = "".join(
                    json.dumps(event, separators=(",", ":")) + "\n"
                    for event in (trace_events or [])
                )
                self._atomic_write(self.trace_path(digest), lines)
            self._atomic_write(
                path, json.dumps(artifact, sort_keys=True) + "\n"
            )
            self.writes += 1
        except (OSError, TypeError, ValueError) as error:
            if out_of_space(error):
                warn_degraded(
                    "obs artifact store",
                    f"{error} — continuing without persisting telemetry",
                )
        return path

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.obs.json"))


def capture_run(
    spec, level: str = "metrics"
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Execute one spec under a fresh single-run telemetry session.

    Returns ``(payload, run_snapshots, trace_events)``.  The payload is
    byte-identical to an unobserved execution (the PR 1 telemetry
    contract, pinned by tests), so capture is safe anywhere a plain
    :func:`~repro.exec.spec.run_spec` call would be — in-process, in
    worker processes, and on cluster agents alike.
    """
    from repro.exec.spec import run_spec
    from repro.obs import Observability

    obs = Observability(level=level)
    payload = run_spec(spec, obs=obs)
    trace_events = [event.to_json() for event in obs.memory_events()]
    obs.finish()
    return payload, obs.runs, trace_events
