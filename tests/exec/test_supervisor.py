"""Supervised execution: worker death, timeouts, retries, quarantine.

The regression at the heart of this file: under the old bare
``Pool.imap_unordered`` executor, a worker killed by the OS (OOM
killer, ``kill -9``) simply never answered and the sweep hung forever.
The supervised pool must instead surface a structured failure record
— and still finish every other run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.exec import RunSpec, Supervision, execute
from repro.exec.journal import read_records
from repro.exec.spec import register_kind
from repro.exec.supervisor import classify_failure


pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker tests rely on fork inheriting test-registered kinds",
)


@register_kind("_suicide")
def _suicide_kind(spec, obs=None):
    """Simulates an OOM kill: the worker dies without a word."""
    os.kill(os.getpid(), signal.SIGKILL)


@register_kind("_sleep")
def _sleep_kind(spec, obs=None):
    time.sleep(float(spec.params.get("seconds", 60.0)))
    return {"slept": True}


@register_kind("_stop_once")
def _stop_once_kind(spec, obs=None):
    """Hangs its first attempt: the worker stops itself (SIGSTOP), its
    heartbeat thread included.  The gate file lets the retry through."""
    gate = Path(spec.params["gate"])
    if not gate.exists():
        gate.write_text("stopped")
        os.kill(os.getpid(), signal.SIGSTOP)
    return {"gate": gate.read_text()}


@register_kind("_flaky_once")
def _flaky_once_kind(spec, obs=None):
    """Fails (transiently) until its marker file exists."""
    marker = Path(spec.params["marker"])
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("transient failure, try again")
    return {"ok": True, "marker": str(marker)}


@register_kind("_deterministic_failure")
def _deterministic_failure_kind(spec, obs=None):
    raise ConfigurationError("this spec can never succeed")


@register_kind("_echo")
def _echo_kind(spec, obs=None):
    return {"value": spec.params["value"]}


def _echo_specs(count):
    return [
        RunSpec(kind="_echo", params={"value": n}, label=f"echo-{n}")
        for n in range(count)
    ]


def fast_supervision(**overrides):
    options = {
        "max_attempts": 2,
        "backoff_base": 0.02,
        "backoff_cap": 0.1,
        "heartbeat_interval": 0.05,
        "heartbeat_timeout": 10.0,
        "handle_signals": False,
    }
    options.update(overrides)
    return Supervision(**options)


class TestWorkerDeath:
    def test_killed_worker_is_a_structured_failure_not_a_hang(self):
        """The OOM-kill regression: the sweep must terminate, the dead
        worker's spec must fail with a record naming the death, and
        every other spec must still produce its row."""
        specs = [RunSpec(kind="_suicide", label="kamikaze")] + _echo_specs(3)
        start = time.monotonic()
        records = execute(
            specs, jobs=2, supervision=fast_supervision(max_attempts=2)
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # a hang here would trip the suite timeout
        assert records[0].status == "error"
        assert "died" in records[0].error
        assert records[0].attempts == 2  # death is transient: retried once
        assert not records[0].poisoned
        assert [r.payload["value"] for r in records[1:]] == [0, 1, 2]

    def test_surviving_rows_match_serial_execution(self):
        specs = [RunSpec(kind="_suicide", label="kamikaze")] + _echo_specs(4)
        parallel = execute(specs, jobs=3, supervision=fast_supervision())
        serial = execute(specs[1:], jobs=1, supervision=fast_supervision())
        assert [r.payload for r in parallel[1:]] == [r.payload for r in serial]


class TestTimeouts:
    def test_run_timeout_kills_and_fails_the_run(self):
        specs = [
            RunSpec(kind="_sleep", params={"seconds": 60.0}, label="hog")
        ] + _echo_specs(2)
        records = execute(
            specs,
            jobs=2,
            supervision=fast_supervision(run_timeout=0.5, max_attempts=1),
        )
        assert records[0].status == "error"
        assert "run-timeout" in records[0].error
        assert all(r.ok for r in records[1:])

    def test_run_timeout_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "12.5")
        assert Supervision().run_timeout == 12.5
        monkeypatch.delenv("REPRO_RUN_TIMEOUT")
        assert Supervision().run_timeout is None

    def test_run_timeout_validated(self):
        with pytest.raises(ConfigurationError):
            Supervision(run_timeout=-1.0)


class TestHungWorker:
    def test_silent_heartbeat_reaps_and_retries(self, tmp_path):
        """A stopped worker neither answers nor exits: only its silent
        heartbeat file gives it away (the run timeout is a backstop
        far beyond the heartbeat timeout)."""
        gate = tmp_path / "gate"
        frozen = RunSpec(
            kind="_stop_once", params={"gate": str(gate)}, label="frozen"
        )
        specs = [frozen] + _echo_specs(2)
        records = execute(
            specs,
            jobs=2,
            supervision=fast_supervision(
                heartbeat_timeout=0.5,
                run_timeout=20.0,
                journal_dir=tmp_path / "journals",
            ),
        )
        assert records[0].ok and records[0].attempts == 2
        assert records[0].payload == {"gate": "stopped"}
        assert [r.payload["value"] for r in records[1:]] == [0, 1]
        journal = read_records(records[0].journal_path)
        reasons = [r["reason"] for r in journal if r["event"] == "worker_died"]
        assert any("heartbeat silent" in reason for reason in reasons)
        # Liveness stays out of the sweep journal.
        assert "heartbeat" not in {r["event"] for r in journal}


class TestRetries:
    def test_transient_failure_retries_and_succeeds(self, tmp_path):
        marker = tmp_path / "marker"
        specs = [
            RunSpec(kind="_flaky_once", params={"marker": str(marker)})
        ] + _echo_specs(2)
        records = execute(specs, jobs=2, supervision=fast_supervision())
        assert records[0].ok
        assert records[0].attempts == 2
        assert records[0].payload["ok"] is True

    def test_transient_failure_retries_serially_too(self, tmp_path):
        marker = tmp_path / "marker"
        specs = [RunSpec(kind="_flaky_once", params={"marker": str(marker)})]
        records = execute(specs, jobs=1, supervision=fast_supervision())
        assert records[0].ok and records[0].attempts == 2

    def test_retry_budget_is_bounded(self, tmp_path):
        """A spec that always fails transiently settles as an error
        after exactly max_attempts attempts."""
        specs = [
            RunSpec(kind="_boom_always", params={}),
        ]

        @register_kind("_boom_always")
        def _boom_always(spec, obs=None):
            raise RuntimeError("always transient")

        records = execute(
            specs, jobs=1, supervision=fast_supervision(max_attempts=3)
        )
        assert records[0].status == "error"
        assert records[0].attempts == 3
        assert not records[0].poisoned

    def test_max_attempts_validated(self):
        with pytest.raises(ConfigurationError):
            Supervision(max_attempts=0)

    def test_backoff_grows_and_caps(self):
        options = Supervision(backoff_base=1.0, backoff_cap=4.0)
        first = options.backoff_delay(1)
        fourth = options.backoff_delay(4)
        assert 1.0 <= first <= 1.25
        assert 4.0 <= fourth <= 5.0  # capped at 4, plus <= 25% jitter


class TestPoison:
    def test_deterministic_failure_is_quarantined_not_retried(self):
        specs = [RunSpec(kind="_deterministic_failure")] + _echo_specs(2)
        records = execute(specs, jobs=2, supervision=fast_supervision())
        assert records[0].status == "error"
        assert records[0].poisoned
        assert records[0].attempts == 1  # no retry: same code, same spec
        assert all(r.ok for r in records[1:])

    def test_classification(self):
        assert classify_failure(ConfigurationError("x"))
        assert classify_failure(SchedulingError("x"))
        assert not classify_failure(RuntimeError("x"))
        assert not classify_failure(MemoryError())
