"""Trace round-trip tests: emit → JSONL → parse → Chrome export."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
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
from tests.helpers import write_jsonl


class TestBoundedLog:
    def test_drops_oldest_and_counts(self):
        log = BoundedLog(capacity=3)
        for i in range(5):
            log.append(i)
        assert list(log) == [2, 3, 4]
        assert log.dropped == 2
        assert log.tail(2) == [3, 4]

    def test_unbounded(self):
        log = BoundedLog()
        for i in range(100):
            log.append(i)
        assert len(log) == 100 and log.dropped == 0


class TestTracer:
    def test_memory_sink_ring_buffer(self):
        tracer = Tracer(MemorySink(capacity=2))
        for i in range(4):
            tracer.instant("k", f"e{i}", float(i))
        events = tracer.sink.events()
        assert [e.name for e in events] == ["e2", "e3"]
        assert tracer.sink.emitted == 4

    def test_helpers_set_phases(self):
        tracer = Tracer(MemorySink())
        tracer.begin("process", "p", 0.0)
        tracer.end("process", "p", 1.0)
        tracer.complete("display", "d", 0.0, dur=3.0, object=7)
        tracer.counter("load", 2.0, queued=4)
        phases = [e.ph for e in tracer.sink.events()]
        assert phases == ["B", "E", "X", "C"]
        complete = tracer.sink.events()[2]
        assert complete.dur == 3.0 and complete.args["object"] == 7


class TestJsonlRoundTrip:
    EVENTS = [
        TraceEvent(t=0.0, kind="process", name="clock", ph="B",
                   args={"track": "clock"}),
        TraceEvent(t=1.5, kind="hold", name="clock", ph="i",
                   args={"delay": 1.5, "track": "clock"}),
        TraceEvent(t=2.0, kind="display", name="display-1", ph="X", dur=4.0,
                   args={"track": "displays"}),
        TraceEvent(t=2.0, kind="counter", name="load", ph="C",
                   args={"queued": 3}),
    ]

    def test_write_read_identity(self, tmp_path):
        path = write_jsonl(self.EVENTS, tmp_path / "trace.jsonl")
        assert read_jsonl(path) == self.EVENTS

    def test_streaming_sink_matches_batch_writer(self, tmp_path):
        streamed = tmp_path / "streamed.jsonl"
        sink = JsonlSink(streamed)
        for event in self.EVENTS:
            sink.write(event)
        sink.close()
        batch = write_jsonl(self.EVENTS, tmp_path / "batch.jsonl")
        assert streamed.read_text() == batch.read_text()

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "kind": "k", "name": "n"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            read_jsonl(path)


class TestChromeExport:
    def test_phases_timescale_and_track_interning(self):
        chrome = chrome_trace_events(TestJsonlRoundTrip.EVENTS)
        data = [r for r in chrome if r.get("ph") != "M"]
        meta = [r for r in chrome if r.get("ph") == "M"]
        assert [r["ph"] for r in data] == ["B", "i", "X", "C"]
        # Model seconds → microseconds.
        assert data[1]["ts"] == pytest.approx(1.5e6)
        assert data[2]["dur"] == pytest.approx(4.0e6)
        # Same track → same tid; the 'track' arg never leaks into args.
        assert data[0]["tid"] == data[1]["tid"]
        assert all("track" not in r["args"] for r in data)
        # Interned tracks get thread_name metadata for the viewer.
        assert {m["args"]["name"] for m in meta} == {"clock", "displays"}

    def test_full_pipeline_to_chrome_file(self, tmp_path):
        jsonl = write_jsonl(TestJsonlRoundTrip.EVENTS, tmp_path / "t.jsonl")
        chrome_path = convert_jsonl_to_chrome(jsonl, tmp_path / "t.json")
        document = json.loads(chrome_path.read_text())
        assert "traceEvents" in document
        assert len(document["traceEvents"]) >= len(TestJsonlRoundTrip.EVENTS)

    def test_write_chrome_trace_direct(self, tmp_path):
        path = write_chrome_trace(TestJsonlRoundTrip.EVENTS, tmp_path / "c.json")
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
