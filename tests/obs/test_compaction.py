"""Heartbeat compaction: bounded journal growth, identical fold.

A long sweep emits heartbeats every ``heartbeat_interval`` — by far
the dominant line count in ``<sweep_id>.jsonl``.  On reopen (resume,
or a master restarting) the writer compacts runs of consecutive
heartbeats down to the latest per source.  The regression bar:
:func:`replay_events` must fold to the identical
:class:`SweepProgress` before and after compaction, and a compaction
must lose no record a concurrent appender writes.
"""

from __future__ import annotations

import json

from repro.exec.journal import SweepJournal, compact_journal, read_records
from repro.obs.events import (
    compact_heartbeat_lines,
    replay_events,
    settled_events_digest,
)


def _line(event: str, ts: float, **fields) -> str:
    record = {"event": event, "ts": ts}
    record.update(fields)
    return json.dumps(record) + "\n"


def synthetic_stream() -> list:
    """A busy stream: two local workers, two agents, one settle."""
    lines = [
        _line("sweep_begin", 1.0, sweep_id="abc", total=3, jobs=2),
        _line("worker_spawned", 1.1, worker=0),
        _line("worker_spawned", 1.2, worker=1),
    ]
    # A long run of heartbeats from three sources, interleaved.  Each
    # heartbeat is a full snapshot for its source, so only the latest
    # per source matters to any fold.
    for tick in range(20):
        ts = 2.0 + tick
        lines.append(
            _line("heartbeat", ts, workers={"0": None, "1": tick})
        )
        lines.append(_line("heartbeat", ts + 0.1, agent="agent-a"))
        lines.append(_line("heartbeat", ts + 0.2, agent="agent-b"))
    lines += [
        _line("run_leased", 30.0, index=0, label="row-0", worker=0),
        _line("heartbeat", 30.5, workers={"0": 0, "1": None}),
        _line("heartbeat", 30.6, workers={"0": 0, "1": None}),
        _line(
            "run_settled", 31.0, index=0, digest="d0", status="ok",
            poisoned=False, attempts=1, duration_s=1.0,
        ),
        _line("heartbeat", 31.5, workers={"0": None, "1": None}),
    ]
    return lines


class TestCompaction:
    def test_keeps_latest_heartbeat_per_source(self):
        lines = [
            _line("heartbeat", 1.0, agent="a"),
            _line("heartbeat", 2.0, agent="b"),
            _line("heartbeat", 3.0, agent="a"),
            _line("heartbeat", 4.0, agent="a"),
        ]
        compacted = compact_heartbeat_lines(lines)
        assert len(compacted) == 2
        assert json.loads(compacted[0])["ts"] == 4.0  # latest "a", in place
        assert json.loads(compacted[1])["agent"] == "b"

    def test_non_heartbeat_lines_are_barriers(self):
        lines = [
            _line("heartbeat", 1.0, agent="a"),
            _line("run_settled", 2.0, index=0, digest="d", status="ok"),
            _line("heartbeat", 3.0, agent="a"),
        ]
        compacted = compact_heartbeat_lines(lines)
        # The settle separates the two heartbeats: both survive, and
        # relative order with the barrier is untouched.
        assert compacted == lines

    def test_torn_tail_preserved_verbatim(self):
        torn = '{"event": "heartbeat", "ts": 9.0, "ag'
        lines = [
            _line("heartbeat", 1.0, agent="a"),
            _line("heartbeat", 2.0, agent="a"),
            torn,
        ]
        compacted = compact_heartbeat_lines(lines)
        assert compacted[-1] == torn
        assert len(compacted) == 2

    def test_replay_folds_identically_before_and_after(self, tmp_path):
        path = tmp_path / "abc.jsonl"
        path.write_text("".join(synthetic_stream()))

        before = replay_events(read_records(path))
        digest_before = settled_events_digest(read_records(path))
        raw_before = len(path.read_text().splitlines())

        assert compact_journal(path) is True
        after = replay_events(read_records(path))
        raw_after = len(path.read_text().splitlines())

        assert raw_after < raw_before
        assert after.to_dict() == before.to_dict()
        assert settled_events_digest(read_records(path)) == digest_before

    def test_compaction_is_idempotent(self, tmp_path):
        path = tmp_path / "abc.jsonl"
        path.write_text("".join(synthetic_stream()))
        assert compact_journal(path) is True
        once = path.read_text()
        assert compact_journal(path) is False  # nothing left to drop
        assert path.read_text() == once

    def test_appender_reopens_after_compaction(self, tmp_path):
        """A writer whose open descriptor a compaction replaced writes
        its next record into the new file, not the orphaned one."""
        writer = SweepJournal(tmp_path, "abc")
        writer.emit("sweep_begin", sweep_id="abc", total=1, jobs=1)
        for _ in range(5):
            writer.emit("heartbeat", workers={"0": None})
        assert compact_journal(writer.path) is True
        writer.record_run(
            "d0", kind="test", label="row", status="ok", payload={"v": 1}
        )
        kinds = [r["event"] for r in read_records(writer.path)]
        assert kinds == ["sweep_begin", "heartbeat", "run_settled"]

    def test_bus_reopen_compacts_previous_session(self, tmp_path):
        bus = SweepJournal(tmp_path, "abc")
        bus.emit("sweep_begin", sweep_id="abc", total=1, jobs=1)
        for _ in range(10):
            bus.emit("heartbeat", workers={"0": None})
        grown = len(bus.path.read_text().splitlines())
        assert grown == 11

        resumed = SweepJournal(tmp_path, "abc")
        resumed.emit("sweep_begin", sweep_id="abc", total=1, jobs=1)
        lines = [
            json.loads(line)
            for line in bus.path.read_text().splitlines()
        ]
        # 10 heartbeats folded to 1; both sweep_begin records intact.
        assert [r["event"] for r in lines] == [
            "sweep_begin", "heartbeat", "sweep_begin",
        ]
