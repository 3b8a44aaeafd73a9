"""Unified telemetry: metrics, tracing, and profiling (``repro.obs``).

Three levels, selected per session (``--obs-level`` on the CLI):

* ``off`` — no telemetry objects are created at all; instrumented
  call sites see ``None`` and skip with a single attribute test, so
  results and performance are identical to an uninstrumented build.
* ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` per run
  (per-disk / per-tertiary / per-buffer instrument families) plus
  wall-clock phase profiling.
* ``trace`` — metrics plus structured event tracing through a shared
  sink (ring buffer or streaming JSONL), exportable to the Chrome
  trace-event format.

An :class:`Observability` session owns the trace sink and collects one
snapshot per experiment run; a :class:`RunObservation` is the per-run
context handed down through the runner, engine, policies, and device
managers.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tally,
    TimeSeries,
    UtilizationMatrix,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.trace import (
    BoundedLog,
    JsonlSink,
    MemorySink,
    TraceEvent,
    Tracer,
    chrome_trace_events,
    convert_jsonl_to_chrome,
    read_jsonl,
    write_chrome_trace,
)

PathLike = Union[str, Path]


class ObsLevel(enum.Enum):
    """How much telemetry the session collects."""

    OFF = "off"
    METRICS = "metrics"
    TRACE = "trace"

    @classmethod
    def parse(cls, value: Union[str, "ObsLevel", None]) -> "ObsLevel":
        if value is None:
            return cls.OFF
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"obs level must be one of off/metrics/trace, got {value!r}"
            ) from None


class RunObservation:
    """Per-run telemetry context threaded through the stack.

    Instrumented components receive either a :class:`RunObservation`
    or ``None``; when present, metrics are always live and
    :attr:`tracer` is non-``None`` only at trace level.
    """

    def __init__(
        self,
        label: str = "",
        index: int = 0,
        tracer: Optional[Tracer] = None,
        expected_intervals: Optional[int] = None,
    ) -> None:
        self.label = label
        self.index = index
        self.registry = MetricsRegistry(name=label or f"run-{index}")
        self.tracer = tracer
        self.profiler = PhaseProfiler()
        # Per-interval scans (busy-disk walks, depth samples) run every
        # ``sample_stride`` intervals — about 32 samples per run — so
        # observation cost amortises to near zero on long runs; event
        # counters stay exact (they live on the event paths and are
        # published via snapshot-time flushers).
        self.sample_stride = max(1, (expected_intervals or 0) // 32)
        # Hot-path components accumulate plain ints and publish them to
        # registry counters lazily, via a flusher run at snapshot time.
        self._flushers: List[Any] = []

    def add_flusher(self, flush) -> None:
        """Register a callable run before each :meth:`snapshot`.

        Lets hot paths count with plain integer adds and defer the
        registry update to snapshot time (counters stay exact without
        per-event method-call overhead).
        """
        self._flushers.append(flush)

    def __repr__(self) -> str:
        return (
            f"<RunObservation {self.label!r} tracing="
            f"{self.tracer is not None}>"
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable record of this run's telemetry."""
        for flush in self._flushers:
            flush()
        return {
            "label": self.label,
            "index": self.index,
            "profile": self.profiler.report(),
            "metrics": self.registry.snapshot(),
        }


class Observability:
    """A telemetry session: level, shared trace sink, per-run snapshots.

    Typical use (mirrors the CLI)::

        obs = Observability(level="trace", trace_path="out.jsonl",
                            metrics_path="metrics.json")
        run_experiment(config, obs=obs)
        obs.finish()                      # writes metrics, closes trace
    """

    def __init__(
        self,
        level: Union[str, ObsLevel] = ObsLevel.OFF,
        trace_path: Optional[PathLike] = None,
        metrics_path: Optional[PathLike] = None,
        trace_capacity: Optional[int] = 100_000,
    ) -> None:
        self.level = ObsLevel.parse(level)
        # Asking for an output file is an implicit opt-in to the level
        # that produces it.
        if trace_path is not None and self.level is not ObsLevel.TRACE:
            self.level = ObsLevel.TRACE
        if metrics_path is not None and self.level is ObsLevel.OFF:
            self.level = ObsLevel.METRICS
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.metrics_path = (
            Path(metrics_path) if metrics_path is not None else None
        )
        self.tracer: Optional[Tracer] = None
        if self.level is ObsLevel.TRACE:
            sink = (
                JsonlSink(self.trace_path)
                if self.trace_path is not None
                else MemorySink(trace_capacity)
            )
            self.tracer = Tracer(sink)
        self.runs: List[Dict[str, Any]] = []
        self._run_count = 0
        self._finished = False

    def __repr__(self) -> str:
        return f"<Observability level={self.level.value} runs={len(self.runs)}>"

    @property
    def enabled(self) -> bool:
        """True at metrics level or above."""
        return self.level is not ObsLevel.OFF

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(
        self, label: str = "", expected_intervals: Optional[int] = None
    ) -> Optional[RunObservation]:
        """Open a per-run context; ``None`` when the session is off."""
        if not self.enabled:
            return None
        run = RunObservation(
            label=label,
            index=self._run_count,
            tracer=self.tracer,
            expected_intervals=expected_intervals,
        )
        self._run_count += 1
        if self.tracer is not None:
            self.tracer.instant("run", label or f"run-{run.index}", 0.0,
                                run=run.index, track="runs")
        return run

    def finish_run(self, run: Optional[RunObservation], result=None) -> None:
        """Snapshot a finished run and surface its profile on ``result``.

        The run's flushers are dropped once the snapshot is taken: they
        are bound methods of components that hold ``run``, so keeping
        them would leave each finished run a cycle for the collector.
        """
        if run is None:
            return
        snapshot = run.snapshot()
        run._flushers.clear()
        self.runs.append(snapshot)
        if result is not None:
            result.profile = run.profiler.totals()
            result.observation = snapshot

    def adopt_runs(
        self,
        runs: List[Dict[str, Any]],
        trace_events: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Fold externally captured run snapshots into this session.

        Used by the executor to merge telemetry captured elsewhere —
        by a sweep run's own capture session, or reloaded from its
        cache record on a warm cache hit — so the session's metrics
        document and trace stream cover every run regardless of where
        (or when) it actually executed.  Snapshots are re-indexed into
        this session's run numbering; trace events are forwarded to
        the session sink when tracing, with each ``run`` instant's
        ``run`` argument re-indexed the same way.
        """
        if not self.enabled:
            return
        base = self._run_count
        for snapshot in runs:
            adopted = dict(snapshot)
            adopted["index"] = self._run_count
            self._run_count += 1
            self.runs.append(adopted)
        if self.tracer is not None and trace_events:
            for record in trace_events:
                try:
                    event = TraceEvent.from_json(record)
                    if event.kind == "run" and "run" in event.args:
                        event.args["run"] = base + int(event.args["run"])
                    self.tracer.sink.write(event)
                except (KeyError, ValueError, TypeError):
                    continue

    # ------------------------------------------------------------------
    # Session output
    # ------------------------------------------------------------------
    def metrics_document(self) -> Dict[str, Any]:
        """The full metrics JSON document for this session."""
        return {"level": self.level.value, "runs": self.runs}

    def memory_events(self) -> List[TraceEvent]:
        """Events retained by an in-memory sink (empty otherwise)."""
        if self.tracer is not None and isinstance(self.tracer.sink, MemorySink):
            return self.tracer.sink.events()
        return []

    def finish(self) -> List[Path]:
        """Write the metrics file, close the trace; returns paths written."""
        if self._finished:
            return []
        self._finished = True
        written: List[Path] = []
        if self.metrics_path is not None:
            with self.metrics_path.open("w") as handle:
                json.dump(self.metrics_document(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            written.append(self.metrics_path)
        if self.tracer is not None:
            self.tracer.close()
            if self.trace_path is not None:
                written.append(self.trace_path)
        return written


from repro.obs.events import (  # noqa: E402 — re-export
    PROGRESS_SCHEMA,
    SweepProgress,
    render_progress,
    replay_events,
)

__all__ = [
    "BoundedLog",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "ObsLevel",
    "Observability",
    "PROGRESS_SCHEMA",
    "PhaseProfiler",
    "RunObservation",
    "SweepProgress",
    "Tally",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "UtilizationMatrix",
    "chrome_trace_events",
    "convert_jsonl_to_chrome",
    "read_jsonl",
    "render_progress",
    "replay_events",
    "write_chrome_trace",
]
