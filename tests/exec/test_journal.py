"""Sweep journal: identity, append-only durability, torn-tail recovery."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    SweepJournal,
    find_journal,
    journal_status_rows,
    list_journals,
    load_journal,
    sweep_id_for,
)


DIGESTS = ["d1" * 8, "d2" * 8, "d3" * 8]


def make_journal(root, digests=None, argv=("sweep", "--jobs", "2")):
    digests = digests if digests is not None else DIGESTS
    journal = SweepJournal(root, sweep_id_for(digests))
    journal.begin(list(argv), digests)
    return journal


class TestSweepIdentity:
    def test_id_is_deterministic_and_order_free(self):
        assert sweep_id_for(DIGESTS) == sweep_id_for(list(reversed(DIGESTS)))
        assert sweep_id_for(DIGESTS) == sweep_id_for(DIGESTS + [DIGESTS[0]])

    def test_different_work_different_id(self):
        assert sweep_id_for(DIGESTS) != sweep_id_for(DIGESTS[:2])


class TestJournalRoundTrip:
    def test_begin_run_end_round_trips(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_run(
            DIGESTS[0], kind="experiment", label="row-0", status="ok",
            payload={"value": 1}, duration_s=0.5,
        )
        journal.end("interrupted")
        state = load_journal(journal.path)
        assert state.sweep_id == journal.sweep_id
        assert state.argv == ["sweep", "--jobs", "2"]
        assert state.total == 3
        assert state.completed == 1
        assert state.outstanding == 2
        assert state.status == "interrupted"
        assert state.settled[DIGESTS[0]]["payload"] == {"value": 1}

    def test_begin_is_idempotent_across_resumes(self, tmp_path):
        """Each session announces itself with a ``sweep_begin``; the
        fold of any number of them is the same sweep."""
        once = load_journal(make_journal(tmp_path / "once").path)
        make_journal(tmp_path)
        make_journal(tmp_path)  # a resume re-opens the same journal
        path = make_journal(tmp_path).path
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "sweep_begin"
        ] * 3
        state = load_journal(path)
        assert (state.sweep_id, state.total, state.argv, state.status) == (
            once.sweep_id, once.total, once.argv, once.status
        )

    def test_missing_or_beginless_journal_loads_as_none(self, tmp_path):
        assert load_journal(tmp_path / "nope.jsonl") is None
        orphan = tmp_path / "orphan.jsonl"
        orphan.write_text('{"event": "run_settled", "digest": "xx"}\n')
        assert load_journal(orphan) is None

    def test_only_durable_records_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        journal = make_journal(tmp_path)  # sweep_begin: durable
        journal.emit("run_leased", index=0)
        journal.emit("run_leased", index=1)
        assert len(synced) == 1
        journal.record_run(
            DIGESTS[0], kind="experiment", label="row-0", status="ok",
            payload={},
        )
        journal.end("complete")
        assert len(synced) == 3


class TestCrashSafety:
    def test_torn_tail_is_skipped_everything_before_stands(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_run(
            DIGESTS[0], kind="experiment", label="row-0", status="ok",
            payload={"value": 1},
        )
        with journal.path.open("a") as handle:
            handle.write('{"event": "run_settled", "digest": "d2d2d2d2", "st')
        state = load_journal(journal.path)
        assert state is not None
        assert state.completed == 1  # the torn row never happened
        assert DIGESTS[0] in state.settled

    def test_later_records_win(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_run(
            DIGESTS[0], kind="experiment", label="row-0", status="error",
            payload={}, error="transient", attempts=2,
        )
        journal.record_run(
            DIGESTS[0], kind="experiment", label="row-0", status="ok",
            payload={"value": 2},
        )
        state = load_journal(journal.path)
        assert state.settled[DIGESTS[0]]["status"] == "ok"
        assert state.completed == 1


class TestSettlement:
    def test_transient_errors_stay_pending_poison_settles(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_run(
            DIGESTS[0], kind="experiment", label="ok-row", status="ok",
            payload={"value": 1},
        )
        journal.record_run(
            DIGESTS[1], kind="experiment", label="transient-row",
            status="error", payload={}, error="worker died", poisoned=False,
        )
        journal.record_run(
            DIGESTS[2], kind="experiment", label="poison-row",
            status="error", payload={}, error="bad config", poisoned=True,
        )
        state = load_journal(journal.path)
        settled = state.resumable()
        assert set(settled) == {DIGESTS[0], DIGESTS[2]}  # retry the transient
        assert state.poisoned == 1
        assert state.outstanding == 1


class TestListing:
    def test_list_and_status_rows(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_run(
            DIGESTS[0], kind="experiment", label="row", status="ok",
            payload={},
        )
        journal.end("interrupted")
        other = make_journal(tmp_path, digests=DIGESTS[:1], argv=["run"])
        other.record_run(
            DIGESTS[0], kind="experiment", label="row", status="ok",
            payload={},
        )
        other.end("complete")
        states = list_journals(tmp_path)
        assert {s.sweep_id for s in states} == {
            journal.sweep_id, other.sweep_id
        }
        rows = journal_status_rows(tmp_path)
        by_id = {row["sweep_id"]: row for row in rows}
        assert by_id[journal.sweep_id]["status"] == "interrupted"
        assert by_id[journal.sweep_id]["completed"] == 1
        assert by_id[journal.sweep_id]["pending"] == 2
        assert by_id[other.sweep_id]["status"] == "complete"
        assert by_id[other.sweep_id]["command"] == "run"

    def test_find_journal_exact_prefix_and_errors(self, tmp_path):
        journal = make_journal(tmp_path)
        assert find_journal(tmp_path, journal.sweep_id).sweep_id == journal.sweep_id
        assert find_journal(tmp_path, journal.sweep_id[:6]).sweep_id == (
            journal.sweep_id
        )
        with pytest.raises(ConfigurationError):
            find_journal(tmp_path, "zzzz")

    def test_find_journal_no_match_lists_known_sweeps(self, tmp_path):
        journal = make_journal(tmp_path)
        other = make_journal(tmp_path, digests=DIGESTS[:1])
        with pytest.raises(ConfigurationError) as caught:
            find_journal(tmp_path, "zzzz")
        message = str(caught.value)
        assert "known sweeps" in message
        assert journal.sweep_id in message
        assert other.sweep_id in message

    def test_find_journal_no_match_empty_root(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no journals yet"):
            find_journal(tmp_path, "zzzz")

    def test_find_journal_ambiguous_prefix_lists_candidates(self, tmp_path):
        # Sweep ids are content-derived, so force a shared prefix by
        # writing journals under chosen ids directly.
        for sweep_id in ("aaaa1111", "aaaa2222"):
            SweepJournal(tmp_path, sweep_id).begin(["t"], DIGESTS)
        with pytest.raises(ConfigurationError) as caught:
            find_journal(tmp_path, "aaaa")
        message = str(caught.value)
        assert "ambiguous" in message
        assert "aaaa1111" in message and "aaaa2222" in message
        # A longer, unique prefix resolves.
        assert find_journal(tmp_path, "aaaa1").sweep_id == "aaaa1111"

    def test_unreadable_directory_is_empty(self, tmp_path):
        assert list_journals(tmp_path / "absent") == []
        assert journal_status_rows(tmp_path / "absent") == []
