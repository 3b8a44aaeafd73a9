"""Test-only conveniences over the package's readers and writers.

Each is one call over a production API the package itself uses:
:class:`~repro.obs.trace.JsonlSink` for trace files,
:func:`~repro.obs.events.replay_events` for a journal's settled
digest, and ``csv`` / ``json`` for reading an export back.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.errors import ConfigurationError
from repro.obs.events import replay_events
from repro.obs.trace import JsonlSink, TraceEvent

PathLike = Union[str, Path]


def write_jsonl(events: List[TraceEvent], path: PathLike) -> Path:
    """Write ``events`` to ``path`` in the JSONL trace format."""
    sink = JsonlSink(path)
    try:
        for event in events:
            sink.write(event)
    finally:
        sink.close()
    return Path(path)


def settled_events_digest(events: Iterable[Dict[str, Any]]) -> str:
    """Order-independent digest of a journal's *settled* outcomes: the
    :meth:`~repro.obs.events.SweepProgress.settled_digest` of the
    records' fold, so ``jobs=1`` and ``jobs=4`` runs of one sweep agree
    however their records interleave."""
    return replay_events(events).settled_digest()


def read_rows(path: PathLike) -> List[Dict]:
    """Read rows back from a ``.csv`` or ``.json`` export."""
    target = Path(path)
    if target.suffix == ".json":
        with target.open() as handle:
            return json.load(handle)
    if target.suffix == ".csv":
        with target.open(newline="") as handle:
            return [dict(row) for row in csv.DictReader(handle)]
    raise ConfigurationError(f"unknown export format: {target.suffix!r}")
