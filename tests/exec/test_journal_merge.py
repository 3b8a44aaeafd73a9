"""Journal merge under concurrent settlers.

The cluster master and a local executor can flush into the same
journal file (same cache root, same sweep id) at the same time — as
can multiple HTTP handler threads pushing agent results.  The append
path is a single ``os.write`` on an ``O_APPEND`` descriptor under an
exclusive ``flock``, for durable rows and advisory progress events
alike, so records from concurrent writers must never tear or
interleave, and replaying the journal must dedup by digest with the
last record winning.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading

from repro.exec.journal import SweepJournal, load_journal


def _payload(writer: int, row: int):
    # Big enough to span several pipe/page buffers if appends were
    # buffered per-character rather than atomic per-line.
    return {"writer": writer, "row": row, "filler": "x" * 4096}


def _settle_rows(root, sweep_id, writer, count):
    """Durable settles with advisory records between them."""
    journal = SweepJournal(root, sweep_id)
    for row in range(count):
        journal.emit("run_leased", index=row, worker=writer, attempt=1)
        journal.record_run(
            f"digest-{writer}-{row}",
            kind="test",
            label=f"w{writer}-r{row}",
            status="ok",
            payload=_payload(writer, row),
        )
        for _ in range(3):  # not run_leased: the tests count those
            journal.emit("run_retried", index=row, attempt=1)


def _context():
    return multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


class TestConcurrentSettlers:
    def test_threaded_writers_no_torn_or_lost_rows(self, tmp_path):
        writers, rows = 8, 25
        lead = SweepJournal(tmp_path, "threads")
        lead.begin(["t"], [f"digest-{w}-{r}" for w in range(writers) for r in range(rows)])
        threads = [
            threading.Thread(
                target=_settle_rows, args=(tmp_path, "threads", w, rows)
            )
            for w in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        # Every line parses (no torn rows) and every row arrived once.
        lines = lead.path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        runs = [r for r in records if r["event"] == "run_settled"]
        leases = [r for r in records if r["event"] == "run_leased"]
        assert len(leases) == writers * rows
        assert len(runs) == writers * rows
        digests = [r["digest"] for r in runs]
        assert len(set(digests)) == writers * rows  # no duplicates
        for record in runs:
            w, r = record["payload"]["writer"], record["payload"]["row"]
            assert record["digest"] == f"digest-{w}-{r}"
            assert record["payload"]["filler"] == "x" * 4096

        state = load_journal(lead.path)
        assert state is not None
        assert len(state.resumable()) == writers * rows
        assert state.completed == writers * rows

    def test_process_writers_no_torn_or_lost_rows(self, tmp_path):
        writers, rows = 4, 15
        lead = SweepJournal(tmp_path, "procs")
        lead.begin(["t"], [f"digest-{w}-{r}" for w in range(writers) for r in range(rows)])
        context = _context()
        processes = [
            context.Process(
                target=_settle_rows, args=(tmp_path, "procs", w, rows)
            )
            for w in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0

        records = [
            json.loads(line)
            for line in lead.path.read_text().splitlines()
        ]
        runs = [r for r in records if r["event"] == "run_settled"]
        assert len(runs) == writers * rows
        assert len({r["digest"] for r in runs}) == writers * rows
        state = load_journal(lead.path)
        assert state.completed == writers * rows

    def test_replay_dedups_by_digest_last_record_wins(self, tmp_path):
        journal = SweepJournal(tmp_path, "dedup")
        journal.begin(["t"], ["d1"])
        journal.record_run(
            "d1", kind="test", label="first", status="error",
            payload={}, error="transient", attempts=1,
        )
        journal.record_run(
            "d1", kind="test", label="second", status="ok",
            payload={"answer": 42}, attempts=2,
        )
        state = load_journal(journal.path)
        assert len(state.settled) == 1
        row = state.settled["d1"]
        assert row["status"] == "ok" and row["attempts"] == 2
        assert state.resumable()["d1"]["payload"] == {"answer": 42}
