"""Structured event tracing: events, sinks, and Chrome export.

A :class:`Tracer` turns instrumented call sites into
:class:`TraceEvent` records and hands them to a *sink*:

* :class:`MemorySink` — a capacity-bounded ring buffer
  (:class:`BoundedLog`), for tests and in-process reports;
* :class:`JsonlSink` — streams one JSON object per line to a file,
  the on-disk trace format (``--trace FILE``).

A JSONL trace round-trips through :func:`read_jsonl` and converts to
the Chrome trace-event format (``chrome://tracing`` / Perfetto) with
:func:`chrome_trace_events` / :func:`write_chrome_trace`.

Instrumented call sites hold ``tracer = None`` when tracing is
disabled, so the hot path pays exactly one attribute test.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Generic, Iterator, List, Optional, TypeVar, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]
T = TypeVar("T")


class BoundedLog(Generic[T]):
    """A capacity-bounded FIFO that counts what it dropped: the
    buffer behind :class:`MemorySink`."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._entries: Deque[T] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._entries)

    def append(self, entry: T) -> None:
        """Add one entry, dropping the oldest when full."""
        if self.capacity is not None and len(self._entries) == self.capacity:
            self.dropped += 1
        self._entries.append(entry)

    def tail(self, count: int = 20) -> List[T]:
        """The most recent ``count`` entries."""
        return list(self._entries)[-count:]

    def clear(self) -> None:
        """Discard all entries (the drop counter is kept)."""
        self._entries.clear()


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``t`` is *simulated* time, never wall-clock time, so traces are
    deterministic under a fixed seed.  ``ph`` is the Chrome phase hint: ``B``/``E`` span
    begin/end, ``X`` complete (with ``dur``), ``C`` counter, ``i``
    instant.
    """

    t: float
    kind: str
    name: str
    ph: str = "i"
    dur: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "t": self.t,
            "kind": self.kind,
            "name": self.name,
            "ph": self.ph,
        }
        if self.dur is not None:
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(
            t=float(record["t"]),
            kind=str(record["kind"]),
            name=str(record["name"]),
            ph=str(record.get("ph", "i")),
            dur=record.get("dur"),
            args=dict(record.get("args", {})),
        )


class MemorySink:
    """Ring-buffer sink; keeps the latest ``capacity`` events."""

    def __init__(self, capacity: Optional[int] = 100_000) -> None:
        self.buffer: BoundedLog[TraceEvent] = BoundedLog(capacity)
        self.emitted = 0

    def write(self, event: TraceEvent) -> None:
        self.emitted += 1
        self.buffer.append(event)

    def events(self) -> List[TraceEvent]:
        """All retained events, oldest first."""
        return list(self.buffer)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonlSink:
    """Streams events to ``path`` as one JSON object per line."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w")
        self.emitted = 0

    def write(self, event: TraceEvent) -> None:
        self.emitted += 1
        json.dump(event.to_json(), self._handle, separators=(",", ":"))
        self._handle.write("\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class Tracer:
    """The emit-side API instrumented code talks to.

    All helpers are thin; the convention for zero-cost disabling is
    that call sites hold ``None`` instead of a tracer, so a
    constructed :class:`Tracer` is always live.
    """

    def __init__(self, sink) -> None:
        self.sink = sink

    def __repr__(self) -> str:
        return f"<Tracer sink={type(self.sink).__name__}>"

    def emit(
        self,
        kind: str,
        name: str,
        t: float,
        ph: str = "i",
        dur: Optional[float] = None,
        **args,
    ) -> None:
        """Record one event."""
        self.sink.write(TraceEvent(t=t, kind=kind, name=name, ph=ph,
                                   dur=dur, args=args))

    def instant(self, kind: str, name: str, t: float, **args) -> None:
        self.emit(kind, name, t, ph="i", **args)

    def begin(self, kind: str, name: str, t: float, **args) -> None:
        self.emit(kind, name, t, ph="B", **args)

    def end(self, kind: str, name: str, t: float, **args) -> None:
        self.emit(kind, name, t, ph="E", **args)

    def complete(self, kind: str, name: str, t: float, dur: float, **args) -> None:
        self.emit(kind, name, t, ph="X", dur=dur, **args)

    def counter(self, name: str, t: float, **values) -> None:
        """Record counter samples (rendered as a stacked chart)."""
        self.emit("counter", name, t, ph="C", **values)

    def close(self) -> None:
        self.sink.close()


def write_jsonl(events: List[TraceEvent], path: PathLike) -> Path:
    """Write ``events`` to ``path`` in the JSONL trace format."""
    sink = JsonlSink(path)
    try:
        for event in events:
            sink.write(event)
    finally:
        sink.close()
    return Path(path)


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Parse a JSONL trace back into :class:`TraceEvent` records."""
    events: List[TraceEvent] = []
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_json(json.loads(line)))
            except (ValueError, KeyError) as error:
                raise ConfigurationError(
                    f"{path}:{line_number}: not a trace event ({error})"
                ) from error
    return events


def chrome_trace_events(
    events: List[TraceEvent], time_scale: float = 1e6
) -> List[Dict[str, Any]]:
    """Convert trace events to Chrome trace-event dicts.

    ``time_scale`` maps model time to the format's microseconds (the
    default treats model time as seconds).  Tracks (``tid``) are
    interned from each event's ``track`` arg, falling back to the
    event kind, so related events share a row in the viewer.
    """
    tracks: Dict[str, int] = {}

    def tid_of(event: TraceEvent) -> int:
        track = str(event.args.get("track", event.kind))
        if track not in tracks:
            tracks[track] = len(tracks) + 1
        return tracks[track]

    chrome: List[Dict[str, Any]] = []
    for event in events:
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.kind,
            "ph": event.ph if event.ph in ("B", "E", "X", "C", "i") else "i",
            "ts": event.t * time_scale,
            "pid": 0,
            "tid": 0 if event.ph == "C" else tid_of(event),
            "args": {k: v for k, v in event.args.items() if k != "track"},
        }
        if event.ph == "X":
            record["dur"] = (event.dur or 0.0) * time_scale
        if event.ph == "i":
            record["s"] = "t"  # instant scope: thread
        chrome.append(record)
    # Name the interned tracks so the viewer shows labels, not numbers.
    for track, tid in sorted(tracks.items(), key=lambda item: item[1]):
        chrome.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return chrome


def write_chrome_trace(events: List[TraceEvent], path: PathLike,
                       time_scale: float = 1e6) -> Path:
    """Write ``events`` as a Chrome trace JSON file."""
    target = Path(path)
    document = {"traceEvents": chrome_trace_events(events, time_scale),
                "displayTimeUnit": "ms"}
    with target.open("w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return target


def convert_jsonl_to_chrome(jsonl_path: PathLike, chrome_path: PathLike,
                            time_scale: float = 1e6) -> Path:
    """Read a JSONL trace and write its Chrome trace-event equivalent."""
    return write_chrome_trace(read_jsonl(jsonl_path), chrome_path, time_scale)
