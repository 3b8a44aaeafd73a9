"""Unit tests for the sweep journal's progress records and their fold
(repro.obs.events, written by repro.exec.journal.SweepJournal)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec.journal import (
    SweepJournal,
    find_journal,
    list_journals,
    load_journal,
    read_records,
)
from repro.obs.events import (
    PROGRESS_SCHEMA,
    progress_bar,
    render_progress,
    replay_events,
)
from tests.helpers import settled_events_digest


class TestBusAndLoad:
    def test_round_trip(self, tmp_path):
        bus = SweepJournal(tmp_path, "abc123")
        bus.emit("sweep_begin", sweep_id="abc123", total=2, jobs=1)
        bus.emit("run_settled", index=0, digest="d0", status="ok")
        events = read_records(bus.path)
        assert [e["event"] for e in events] == ["sweep_begin", "run_settled"]
        assert all("ts" in e for e in events)

    def test_missing_file_is_empty_stream(self, tmp_path):
        assert read_records(tmp_path / "nope.jsonl") == []
        assert load_journal(tmp_path / "nope.jsonl") is None

    def test_torn_tail_tolerated(self, tmp_path):
        """A crash mid-append loses only the torn line."""
        bus = SweepJournal(tmp_path, "torn")
        bus.emit("sweep_begin", sweep_id="torn", total=3)
        bus.emit("run_settled", index=0, digest="d0", status="ok")
        with bus.path.open("a") as handle:
            handle.write('{"event": "run_settled", "index": 1, "dig')
        events = read_records(bus.path)
        assert [e["event"] for e in events] == ["sweep_begin", "run_settled"]
        # Appends after the torn line still load (scribble mid-journal).
        bus2 = SweepJournal(tmp_path, "torn")
        bus2.emit("sweep_end", status="complete")
        events = read_records(bus.path)
        assert events[-1]["event"] == "sweep_end"

    def test_non_event_lines_skipped(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('[1,2]\n{"no_event_key": 1}\n{"event": "run_leased"}\n')
        assert [e["event"] for e in read_records(path)] == ["run_leased"]

    def test_emission_failure_never_raises(self, tmp_path):
        """Advisory records swallow I/O errors; durable ones raise."""
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        bus = SweepJournal(blocker / "sub", "dead")  # parent is a file
        bus.emit("run_leased", index=0)  # advisory: must not raise
        bus.emit("run_leased", index=0)
        assert not bus.dead  # not a full disk: durable appends still try
        with pytest.raises(OSError):
            bus.begin(["sweep"], ["d0"])

    def test_list_journals(self, tmp_path):
        SweepJournal(tmp_path, "bbb").begin(["b"], ["d1"])
        SweepJournal(tmp_path, "aaa").begin(["a"], ["d0"])
        (tmp_path / "cc.jsonl").write_text('{"event": "run_leased"}\n')
        assert {s.sweep_id for s in list_journals(tmp_path)} == {"aaa", "bbb"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aaa.jsonl", "bbb.jsonl", "cc.jsonl",
        ]


class TestSettledDigest:
    def settled(self, digest, status="ok", **extra):
        return {
            "event": "run_settled",
            "digest": digest,
            "status": status,
            **extra,
        }

    def test_order_independent(self):
        a = [self.settled("d0"), self.settled("d1", "error", poisoned=True)]
        b = list(reversed(a))
        assert settled_events_digest(a) == settled_events_digest(b)

    def test_cache_hit_equals_fresh_ok(self):
        """A warm sweep (cache hits) digests identically to the fresh
        sweep that populated the cache."""
        fresh = [self.settled("d0"), self.settled("d1")]
        warm = [
            {"event": "cache_hit", "digest": "d1"},
            {"event": "cache_hit", "digest": "d0"},
        ]
        assert settled_events_digest(fresh) == settled_events_digest(warm)

    def test_status_changes_digest(self):
        ok = [self.settled("d0")]
        err = [self.settled("d0", "error")]
        assert settled_events_digest(ok) != settled_events_digest(err)

    def test_journal_hit_carries_status(self):
        resumed = [
            {"event": "journal_hit", "digest": "d0", "status": "error",
             "poisoned": True},
        ]
        fresh = [self.settled("d0", "error", poisoned=True)]
        assert settled_events_digest(resumed) == settled_events_digest(fresh)

    def test_duplicates_collapse(self):
        once = [self.settled("d0")]
        twice = [self.settled("d0"), {"event": "cache_hit", "digest": "d0"}]
        assert settled_events_digest(once) == settled_events_digest(twice)

    def test_scheduling_events_ignored(self):
        noisy = [
            {"event": "worker_spawned", "worker": 0},
            self.settled("d0"),
            {"event": "heartbeat", "settled": 1},
            {"event": "run_retried", "index": 3},
        ]
        assert settled_events_digest(noisy) == settled_events_digest(
            [self.settled("d0")]
        )


class TestReplay:
    def stream(self):
        return [
            {"event": "sweep_begin", "ts": 10.0, "sweep_id": "s1", "total": 4,
             "jobs": 2, "argv": ["sweep", "--values", "1", "2"]},
            {"event": "cache_hit", "ts": 10.1, "digest": "dc", "index": 0},
            {"event": "worker_spawned", "ts": 10.2, "worker": 0},
            {"event": "worker_spawned", "ts": 10.2, "worker": 1},
            {"event": "run_leased", "ts": 10.3, "index": 1, "digest": "d1",
             "label": "run-1", "worker": 0, "attempt": 1},
            {"event": "run_leased", "ts": 10.3, "index": 2, "digest": "d2",
             "label": "run-2", "worker": 1, "attempt": 1},
            {"event": "run_settled", "ts": 11.0, "index": 1, "digest": "d1",
             "status": "ok", "duration_s": 0.7, "attempts": 1},
            {"event": "run_retried", "ts": 11.2, "index": 2, "attempt": 1,
             "delay_s": 0.5},
            {"event": "worker_died", "ts": 11.5, "worker": 1,
             "reason": "worker process died mid-run (exit code -9)"},
        ]

    def test_mid_flight_snapshot(self):
        progress = replay_events(self.stream())
        assert progress.sweep_id == "s1"
        assert progress.status == "in-flight"
        assert progress.total == 4
        assert progress.cache_hits == 1
        assert progress.executed == 1
        assert progress.retries == 1
        assert progress.workers_spawned == 2
        assert progress.workers_died == 1
        assert len(progress.settled) == 2  # dc + d1
        assert progress.completed == 2
        assert progress.pending == 2
        assert progress.workers[1]["state"] == "dead"
        assert progress.in_flight == {}  # 1 settled, 2 retried away

    def test_sweep_end_and_eta(self):
        events = self.stream() + [
            {"event": "run_settled", "ts": 12.0, "index": 2, "digest": "d2",
             "status": "error", "poisoned": True, "attempts": 2},
            {"event": "run_settled", "ts": 13.0, "index": 3, "digest": "d3",
             "status": "ok"},
            {"event": "sweep_end", "ts": 13.1, "status": "complete"},
        ]
        progress = replay_events(events)
        assert progress.status == "complete"
        assert progress.pending == 0
        assert progress.failed == 1
        assert progress.poisoned == 1
        assert progress.eta_s == 0.0
        assert progress.rate_per_s == pytest.approx(3 / 3.0)

    def test_resume_clears_transient_state(self):
        """A resumed sweep appends to the same stream: settled digests
        carry over, in-flight leases and workers do not."""
        events = self.stream() + [
            {"event": "sweep_begin", "ts": 20.0, "sweep_id": "s1",
             "total": 4, "jobs": 1},
            {"event": "journal_hit", "ts": 20.1, "digest": "d1",
             "status": "ok"},
        ]
        progress = replay_events(events)
        assert progress.status == "in-flight"
        assert progress.workers == {}
        assert progress.in_flight == {}
        # d1 settled fresh earlier: the journal hit must not double-count.
        assert len(progress.settled) == 2
        assert progress.resumed == 0

    def test_retry_frees_the_worker(self):
        """A retried run leaves its worker idle: no later record (the
        journal holds no heartbeats) would otherwise correct it."""
        events = self.stream()[:6] + [
            {"event": "run_retried", "ts": 11.2, "index": 1, "attempt": 1,
             "delay_s": 0.5},
        ]
        progress = replay_events(events)
        assert progress.workers[0]["task"] is None
        assert progress.workers[0]["last_ts"] == 11.2
        assert progress.workers[1]["task"] == 2  # untouched
        assert "w0:idle" in render_progress(progress.to_dict())

    def test_load_journal_missing_log(self, tmp_path):
        assert load_journal(tmp_path / "nope.jsonl") is None
        with pytest.raises(ConfigurationError, match="no journals yet"):
            find_journal(tmp_path, "nope")

    def test_resumable_rows_carry_payloads(self):
        """Resume reuses ok and poisoned rows journaled with their
        payload; a cache hit (no payload) and a transient error do not
        qualify, and a later session's settle wins."""
        events = self.stream() + [
            {"event": "run_settled", "ts": 12.0, "index": 2, "digest": "d2",
             "status": "error", "poisoned": False, "payload": {}},
            {"event": "run_settled", "ts": 12.5, "index": 3, "digest": "d3",
             "status": "error", "poisoned": True, "payload": {},
             "error": "bad config"},
            {"event": "run_settled", "ts": 13.0, "index": 1, "digest": "d1",
             "status": "ok", "payload": {"value": 1}},
        ]
        progress = replay_events(events)
        resumable = progress.resumable()
        assert set(resumable) == {"d1", "d3"}
        assert resumable["d1"]["payload"] == {"value": 1}
        assert resumable["d3"]["error"] == "bad config"
        assert progress.outstanding == 1  # d2: a resume retries it
        assert "payload" not in json.dumps(progress.to_dict())


class TestRendering:
    def test_progress_bar(self):
        assert progress_bar(0, 0, width=4) == "[    ]"
        assert progress_bar(2, 4, width=4) == "[##..]"
        assert progress_bar(9, 4, width=4) == "[####]"

    def test_snapshot_schema_and_render_agree(self):
        """--json emits exactly what the --follow renderer consumes."""
        progress = replay_events(TestReplay().stream())
        snapshot = progress.to_dict()
        assert snapshot["schema"] == PROGRESS_SCHEMA
        assert json.loads(json.dumps(snapshot)) == snapshot  # JSON-safe
        text = render_progress(snapshot)
        assert "sweep s1" in text
        assert "2/4" in text
        assert "w1:dead" in text
        assert "command: repro sweep --values 1 2" in text

    def test_render_empty_snapshot(self):
        text = render_progress(replay_events([]).to_dict())
        assert "[unknown]" in text
        # Kinds the fold does not know fold to nothing; older journals
        # still hold heartbeat records.
        unknown = [{"event": "heartbeat"}, {"event": "no_such_kind"}]
        assert replay_events(unknown).to_dict() == replay_events([]).to_dict()
