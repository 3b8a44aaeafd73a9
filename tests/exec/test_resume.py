"""Resume semantics: interrupted sweeps finish byte-identically.

The contract (docs/resilient_execution.md): interrupt a sweep after N
rows, resume it, and the final rows are **byte-identical** to an
uninterrupted sweep — at ``jobs=1`` and ``jobs=4``, with or without
the result cache (the journal carries payloads itself).  The CLI
tests drive the same contract end to end: a SIGTERMed ``repro sweep``
subprocess, ``sweep-status``, a live ``--follow``, ``sweep-resume``
and ``obs-diff``, all reading the sweep's one journal.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import SweepInterrupted
from repro.exec import (
    ResultCache,
    RunSpec,
    Supervision,
    execute,
    journal_root,
    journal_status_rows,
    list_journals,
)
from repro.exec.hashing import CODE_SALT_ENV, canonical_json
from repro.exec.journal import journal_path, load_journal, read_records
from repro.exec.spec import register_kind

SRC = Path(__file__).resolve().parents[2] / "src"


@register_kind("_paced")
def _paced_kind(spec, obs=None):
    """A deterministic payload with a controllable duration."""
    time.sleep(float(spec.params.get("seconds", 0.0)))
    value = spec.params["value"]
    return {"value": value, "square": value * value}


def paced_specs(count, seconds=0.0):
    return [
        RunSpec(
            kind="_paced",
            params={"value": n, "seconds": seconds},
            label=f"paced-{n}",
        )
        for n in range(count)
    ]


def rows_of(records):
    """The byte form a caller would export: canonical payload JSON."""
    return [canonical_json(record.payload) for record in records]


def quiet_supervision(**overrides):
    options = {"handle_signals": False, "max_attempts": 1}
    options.update(overrides)
    return Supervision(**options)


def interrupt_after(delay):
    """Deliver SIGINT to this process after ``delay`` seconds."""
    pid = os.getpid()
    timer = threading.Timer(delay, lambda: os.kill(pid, signal.SIGINT))
    timer.start()
    return timer


class TestJournalResume:
    """Crash-style resume: the first invocation stops early, the second
    invocation picks the journal up."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_crash_after_two_rows_resumes_byte_identical(self, tmp_path, jobs):
        """Simulate a hard crash (kill -9 of the parent): the journal
        holds two finished rows and a torn tail.  Re-running the sweep
        replays those two and executes only the rest."""
        specs = paced_specs(6)
        ref_dir = tmp_path / "ref"
        reference = execute(
            specs, jobs=jobs, supervision=quiet_supervision(journal_dir=ref_dir)
        )
        journal_dir = tmp_path / "journal"
        shutil.copytree(ref_dir, journal_dir)
        (path,) = journal_dir.glob("*.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        kept = [
            line for line in lines
            if json.loads(line)["event"] in ("sweep_begin", "run_settled")
        ][:3]  # the session's begin + two settled rows
        path.write_text(
            "".join(kept) + '{"event": "run_settled", "digest": "torn'
        )
        resumed = execute(
            specs, jobs=jobs,
            supervision=quiet_supervision(journal_dir=journal_dir),
        )
        assert rows_of(resumed) == rows_of(reference)
        assert sum(1 for record in resumed if record.resumed) == 2

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupted_journal_resumes_without_cache(self, tmp_path, jobs):
        """The journal alone (no result cache) is enough to resume."""
        specs = paced_specs(5)
        journal_dir = tmp_path / "journals"
        supervision = quiet_supervision(journal_dir=journal_dir)
        reference = execute(specs, jobs=jobs, supervision=supervision)
        resumed = execute(specs, jobs=jobs, supervision=supervision)
        assert all(record.resumed for record in resumed)
        assert rows_of(resumed) == rows_of(reference)


class TestSignalInterrupt:
    """Real-signal resume: SIGINT mid-sweep raises SweepInterrupted,
    flushed rows survive, and a re-run completes byte-identically."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sigint_interrupt_then_resume_byte_identical(self, tmp_path, jobs):
        specs = paced_specs(6, seconds=0.25)
        reference = execute(
            specs, jobs=jobs,
            supervision=quiet_supervision(journal_dir=tmp_path / "ref"),
        )
        journal_dir = tmp_path / "journals"
        supervision = Supervision(
            handle_signals=True, max_attempts=1, journal_dir=journal_dir,
            argv=["sweep", "--paced"],
        )
        # Fire before the first 0.25 s wave finishes: the drain then
        # completes only the in-flight rows and leaves the rest pending
        # at jobs=1 (1 in flight) and jobs=4 (≤4 in flight) alike.
        timer = interrupt_after(0.15)
        try:
            with pytest.raises(SweepInterrupted) as caught:
                execute(specs, jobs=jobs, supervision=supervision)
        finally:
            timer.cancel()
        interrupt = caught.value
        assert interrupt.signal_name == "SIGINT"
        assert interrupt.sweep_id
        assert interrupt.resume_command.startswith("repro sweep-resume")
        assert 0 < interrupt.completed < len(specs)
        # The journal recorded the drain.
        states = list_journals(journal_dir)
        assert len(states) == 1
        state = states[0]
        assert state.status == "interrupted"
        assert state.completed == interrupt.completed
        assert state.argv == ["sweep", "--paced"]
        # Resume: settled rows replay from the journal, the rest run.
        resumed = execute(
            specs, jobs=jobs,
            supervision=quiet_supervision(journal_dir=journal_dir),
        )
        assert rows_of(resumed) == rows_of(reference)
        assert sum(1 for r in resumed if r.resumed) == interrupt.completed
        assert list_journals(journal_dir)[0].status == "complete"

    def test_interrupt_with_cache_names_journal_beside_it(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = paced_specs(6, seconds=0.25)
        timer = interrupt_after(0.15)
        try:
            with pytest.raises(SweepInterrupted) as caught:
                execute(
                    specs, jobs=2, cache=cache,
                    supervision=Supervision(max_attempts=1),
                )
        finally:
            timer.cancel()
        assert str(journal_root(cache.root)) in caught.value.journal_path


def repro_subprocess(*argv, **popen):
    """``python -m repro <argv>`` with this checkout's package and no
    inherited ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], env=env, **popen
    )


def wait_for(predicate, proc, timeout=60.0):
    """Poll ``predicate`` until it holds; fail if ``proc`` exits first."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert proc.poll() is None, f"process exited {proc.returncode} first"
        assert time.monotonic() < deadline, "condition never reached"
        time.sleep(0.005)


class TestCliKillAndResume:
    VALUES = ("4", "8", "12", "16", "20", "24")

    def sweep_argv(self, cache, output):
        return [
            "sweep", "--scale", "1", "--values", *self.VALUES,
            "--jobs", "2", "--obs-level", "metrics",
            "--cache-dir", str(cache), "--output", str(output),
        ]

    def test_sigterm_then_resume_matches_uninterrupted(self, tmp_path, capsys):
        ref_cache, int_cache = tmp_path / "ref-cache", tmp_path / "int-cache"
        assert main(self.sweep_argv(ref_cache, tmp_path / "ref.json")) == 0

        sweep = repro_subprocess(
            *self.sweep_argv(int_cache, tmp_path / "int.json"),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )

        def settled_once():
            return any(
                record["event"] == "run_settled"
                for path in journal_root(int_cache).glob("*.jsonl")
                for record in read_records(path)
            )

        try:
            wait_for(settled_once, sweep)
            sweep.send_signal(signal.SIGTERM)
            _, err = sweep.communicate(timeout=60)
        finally:
            sweep.kill()
        assert sweep.returncode == 130, err

        capsys.readouterr()
        assert main(["sweep-status", "--journal",
                     "--cache-dir", str(int_cache)]) == 0
        assert "interrupted" in capsys.readouterr().out
        (row,) = journal_status_rows(journal_root(int_cache))
        assert row["status"] == "interrupted"
        assert 0 < row["completed"] < len(self.VALUES)
        sweep_id = row["sweep_id"]
        assert main(["sweep-status", sweep_id, "--json",
                     "--cache-dir", str(int_cache)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == "repro-sweep-progress/2"
        assert snapshot["status"] == "interrupted"

        # A follower attached before the resume waits for it to end.
        follow = repro_subprocess(
            "sweep-status", sweep_id, "--follow", "--interval", "0.1",
            "--cache-dir", str(int_cache),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert "[interrupted]" in follow.stdout.readline()
            assert main(["sweep-resume", sweep_id,
                         "--cache-dir", str(int_cache)]) == 0
            rest, _ = follow.communicate(timeout=60)
        finally:
            follow.kill()
        assert follow.returncode == 0
        assert "[complete]" in rest

        assert (tmp_path / "int.json").read_bytes() == (
            tmp_path / "ref.json"
        ).read_bytes()
        assert main(["obs-diff", sweep_id, sweep_id,
                     "--cache-dir", str(ref_cache),
                     "--cache-dir-b", str(int_cache)]) == 0


class TestCliWarmSubsetSweep:
    def test_cached_rows_settle_the_sweep(self, tmp_path, capsys):
        """A sweep answered wholly from a warm cache is complete in its
        journal: status, resume and obs-diff all see its cached rows."""
        warm, cold = tmp_path / "warm", tmp_path / "cold"

        def sweep(cache, *values):
            return main([
                "sweep", "--scale", "50", "--values", *values,
                "--obs-level", "metrics", "--cache-dir", str(cache),
            ])

        assert sweep(warm, "4", "8", "12") == 0
        assert sweep(warm, "4", "8") == 0
        assert sweep(cold, "4", "8") == 0
        ((sweep_id, cold_status),) = [
            (row["sweep_id"], row["status"])
            for row in journal_status_rows(journal_root(cold))
        ]
        assert cold_status == "complete"

        capsys.readouterr()
        assert main(["sweep-status", "--journal",
                     "--cache-dir", str(warm)]) == 0
        assert sweep_id in capsys.readouterr().out
        row = next(
            row for row in journal_status_rows(journal_root(warm))
            if row["sweep_id"] == sweep_id
        )
        assert (row["status"], row["completed"], row["total"],
                row["pending"]) == ("complete", 2, 2, 0)

        assert main(["sweep-resume", sweep_id, "--cache-dir", str(warm)]) == 0
        assert "2/2 rows done, 0 pending" in capsys.readouterr().out
        state = load_journal(journal_path(journal_root(warm), sweep_id))
        assert state.executed == 0  # every session answered from the cache

        assert main(["obs-diff", sweep_id, sweep_id,
                     "--cache-dir", str(cold), "--cache-dir-b", str(warm)]) == 0
        assert "missing" not in capsys.readouterr().out


class TestCliResumeUnderAnotherSalt:
    """A journal records the code salt its digests were keyed with: a
    resume under another salt would replay the command as a different
    sweep and leave this one interrupted for good."""

    def first_sweep(self, cache, monkeypatch):
        monkeypatch.setenv(CODE_SALT_ENV, "salt-a")
        assert main(["sweep", "--scale", "50", "--values", "4", "8",
                     "--cache-dir", str(cache)]) == 0
        (row,) = journal_status_rows(journal_root(cache))
        return row["sweep_id"]

    def test_refuses_before_simulating(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        sweep_id = self.first_sweep(cache, monkeypatch)
        files = sorted(path for path in cache.rglob("*"))
        monkeypatch.setenv(CODE_SALT_ENV, "salt-b")
        capsys.readouterr()
        assert main(["sweep-resume", sweep_id, "--cache-dir", str(cache)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "salt-a" in line and "salt-b" in line
        assert sorted(path for path in cache.rglob("*")) == files

    def test_journal_without_salt_resumes(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        sweep_id = self.first_sweep(cache, monkeypatch)
        path = journal_path(journal_root(cache), sweep_id)
        records = read_records(path)
        for record in records:
            record.pop("code_salt", None)
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        monkeypatch.setenv(CODE_SALT_ENV, "salt-b")
        assert main(["sweep-resume", sweep_id, "--cache-dir", str(cache)]) == 0
        # The replay ran under the new salt: a second sweep.
        assert len(journal_status_rows(journal_root(cache))) == 2
