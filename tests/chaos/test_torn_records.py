"""Torn mid-record tails in the sweep journal.

A crash inside an append may persist only a prefix of the record.
These tests tear real files with ``torn:<bytes>`` failpoints — on
durable rows and on advisory progress records — and then demand the
recovery contract: everything before the tear stands, the torn
fragment is skipped *and isolated* (the next session's first append
must not glue onto it).
"""

import json

import pytest

from repro import failpoints
from repro.exec.journal import SweepJournal, load_journal, read_records
from repro.obs.events import replay_events, settled_events_digest

PAYLOAD = {"num_stations": 4, "admitted": 7}
DIGEST_A = "a" * 64
DIGEST_B = "b" * 64


def _record(journal, digest, payload=None):
    journal.record_run(
        digest,
        kind="experiment",
        label="row",
        status="ok",
        payload=payload or PAYLOAD,
        duration_s=0.5,
    )


class TestJournalTornTail:
    def test_tear_loses_only_the_torn_record(self, tmp_path, crash):
        journal = SweepJournal(tmp_path, "sweep01")
        journal.begin(["sweep"], [DIGEST_A, DIGEST_B])
        failpoints.install("journal.append.pre_write=torn:9")
        with pytest.raises(crash):
            _record(journal, DIGEST_A)
        raw = journal.path.read_bytes()
        assert not raw.endswith(b"\n")  # a genuine mid-record tear
        state = load_journal(journal.path)
        assert state is not None  # begin record still stands
        assert state.settled == {}  # the torn run is gone, nothing else

    def test_resume_append_does_not_glue_onto_the_tear(
        self, tmp_path, crash
    ):
        journal = SweepJournal(tmp_path, "sweep01")
        journal.begin(["sweep"], [DIGEST_A, DIGEST_B])
        failpoints.install("journal.append.pre_write=torn:9")
        with pytest.raises(crash):
            _record(journal, DIGEST_A)
        failpoints.install("")
        # A fresh session (post-crash process) appends to the same
        # journal: the torn fragment must be terminated first, or this
        # record would fuse with it into one unparsable line — losing
        # the *new* record too.
        resumed = SweepJournal(tmp_path, "sweep01")
        _record(resumed, DIGEST_A)
        _record(resumed, DIGEST_B)
        state = load_journal(resumed.path)
        assert set(state.settled) == {DIGEST_A, DIGEST_B}
        assert state.settled[DIGEST_A]["payload"] == PAYLOAD
        # Exactly one line (the fragment) is unparsable.
        lines = resumed.path.read_text().splitlines()
        bad = [line for line in lines if _unparsable(line)]
        assert len(bad) == 1 and bad[0] != ""

    def test_clean_tail_is_not_repaired(self, tmp_path):
        journal = SweepJournal(tmp_path, "sweep01")
        journal.begin(["sweep"], [DIGEST_A])
        _record(journal, DIGEST_A)
        text = journal.path.read_text()
        assert "\n\n" not in text  # no spurious repair newline
        assert all(not _unparsable(line) for line in text.splitlines())

    def test_tear_at_zero_bytes_equals_clean_crash(self, tmp_path, crash):
        journal = SweepJournal(tmp_path, "sweep01")
        journal.begin(["sweep"], [DIGEST_A])
        failpoints.install("journal.append.pre_write=torn:0")
        with pytest.raises(crash):
            _record(journal, DIGEST_A)
        # Zero torn bytes: the record is simply absent, the file clean.
        state = load_journal(journal.path)
        assert state.settled == {}
        resumed = SweepJournal(tmp_path, "sweep01")
        _record(resumed, DIGEST_A)
        assert set(load_journal(resumed.path).settled) == {DIGEST_A}


class TestEventStreamTornTail:
    def _build_torn_stream(self, root, crash):
        bus = SweepJournal(root, "sweep01")
        bus.emit("sweep_begin", sweep_id="sweep01", total=2, jobs=1)
        for _ in range(3):
            bus.emit("run_leased", index=0, worker=None, attempt=1)
        bus.emit(
            "run_settled",
            digest=DIGEST_A, index=0, status="ok", poisoned=False,
        )
        for _ in range(2):
            bus.emit("run_leased", index=1, worker=None, attempt=1)
        failpoints.install("journal.append.pre_write=torn:7")
        with pytest.raises(crash):
            bus.emit("run_leased", index=1, worker=None, attempt=1)
        failpoints.install("")
        return bus.path

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path, crash):
        path = self._build_torn_stream(tmp_path, crash)
        assert not path.read_bytes().endswith(b"\n")
        events = read_records(path)
        kinds = [event["event"] for event in events]
        assert kinds.count("run_leased") == 5  # the torn one is gone
        progress = replay_events(events)
        assert set(progress.settled) == {DIGEST_A}

    def test_reopen_after_tear_starts_a_fresh_line(self, tmp_path, crash):
        path = self._build_torn_stream(tmp_path, crash)
        resumed = SweepJournal(tmp_path, "sweep01")
        resumed.emit(
            "run_settled",
            digest=DIGEST_B, index=1, status="ok", poisoned=False,
        )
        progress = replay_events(read_records(path))
        assert set(progress.settled) == {DIGEST_A, DIGEST_B}
        digest = settled_events_digest(read_records(path))
        # The recovered stream settles both rows ok — same digest as a
        # never-torn stream carrying the same outcomes.
        clean = settled_events_digest(
            [
                {"event": "run_settled", "digest": DIGEST_A,
                 "status": "ok", "poisoned": False},
                {"event": "run_settled", "digest": DIGEST_B,
                 "status": "ok", "poisoned": False},
            ]
        )
        assert digest == clean


def _unparsable(line):
    line = line.strip()
    if not line:
        return False
    try:
        json.loads(line)
        return False
    except json.JSONDecodeError:
        return True
