"""Graceful ENOSPC/EDQUOT degradation (satellite of the failpoint PR).

A full disk must never fail a sweep: the cache (run telemetry
included) and the journal are accelerators/observers, so each degrades
to a no-op with a single warning.  Genuine I/O errors, by contrast, must
still propagate — silence is only for running out of space.
"""

import pytest

from repro import failpoints
from repro.exec.cache import ResultCache
from repro.exec.journal import SweepJournal, load_journal
from repro.integrity import reset_warnings, warn_degraded

DIGEST = "ab" * 32
RECORD = {
    "kind": "experiment",
    "label": "row",
    "status": "ok",
    "payload": {"admitted": 7},
    "duration_s": 0.5,
}


class TestCacheDegradation:
    def test_enospc_disables_with_one_warning(self, tmp_path, capsys):
        failpoints.install("cache.write.pre_rename=enospc")
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, dict(RECORD))  # must not raise
        assert cache.disabled
        assert cache.get(DIGEST) is None  # nothing was persisted
        cache.put(DIGEST, dict(RECORD))  # no-op, still quiet
        err = capsys.readouterr().err
        assert err.count("result cache degraded") == 1
        # No stray temp files left behind.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_io_error_still_propagates(self, tmp_path):
        failpoints.install("cache.write.pre_rename=error:io")
        cache = ResultCache(tmp_path)
        with pytest.raises(OSError):
            cache.put(DIGEST, dict(RECORD))
        assert not cache.disabled


class TestJournalDegradation:
    def test_edquot_kills_journaling_not_the_sweep(self, tmp_path, capsys):
        failpoints.install("journal.append.pre_write=error:edquot")
        journal = SweepJournal(tmp_path, "sweep01")
        journal.begin(["sweep"], [DIGEST])  # must not raise
        assert journal.dead
        journal.record_run(
            DIGEST, kind="experiment", label="row", status="ok",
            payload={"admitted": 7},
        )  # no-op
        assert load_journal(journal.path) is None
        assert capsys.readouterr().err.count("sweep journal degraded") == 1


class TestEventBusDegradation:
    def test_enospc_darkens_the_stream_once(self, tmp_path, capsys):
        """ENOSPC on an advisory record darkens the whole journal,
        durable records included, with one warning."""
        failpoints.install("journal.append.pre_write=enospc")
        journal = SweepJournal(tmp_path, "sweep01")
        journal.emit("run_leased", index=0)  # must not raise
        assert journal.dead
        failpoints.install("")
        journal.begin(["sweep"], [DIGEST])  # silent no-op
        journal.emit("run_leased", index=1)
        assert load_journal(journal.path) is None
        err = capsys.readouterr().err
        assert err.count("sweep journal degraded") == 1

    def test_advisory_io_error_is_swallowed_durable_raises(self, tmp_path):
        failpoints.install("journal.append.pre_write=error:io")
        journal = SweepJournal(tmp_path, "sweep01")
        journal.emit("run_leased", index=0)  # swallowed
        assert not journal.dead
        failpoints.install("journal.append.pre_write=error:io")
        with pytest.raises(OSError):
            journal.begin(["sweep"], [DIGEST])


class TestWarnDedup:
    def test_one_warning_per_component_per_process(self, capsys):
        assert warn_degraded("thing", "first")
        assert not warn_degraded("thing", "second")
        assert warn_degraded("other", "first")
        reset_warnings()
        assert warn_degraded("thing", "again")
        err = capsys.readouterr().err
        assert err.count("thing degraded") == 2
        assert err.count("other degraded") == 1
