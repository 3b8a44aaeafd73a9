"""Unit tests for the failpoint registry, grammar, and scheduling."""

import errno

import pytest

from repro import failpoints
from repro.errors import ConfigurationError
from repro.failpoints import (
    CRASH_EXIT_CODE,
    InjectedFault,
    InjectedTransientError,
    Rule,
    parse_spec,
)


def naps_of(monkeypatch, site):
    """The sleeps one evaluation of ``site`` takes: ``[]`` unless a
    delay rule is armed there."""
    naps = []
    with monkeypatch.context() as patch:
        patch.setattr(failpoints.time, "sleep", naps.append)
        failpoints.fire(site)
    return naps


class TestParsing:
    def test_default_hit_is_one(self):
        rules = parse_spec("cache.write.pre_rename=crash")
        rule = rules["cache.write.pre_rename"]
        assert rule.action == "crash"
        assert rule.hit == 1
        assert not rule.once

    def test_torn_and_delay_args(self):
        rules = parse_spec("a=torn:9;b=delay:250")
        assert rules["a"].arg == 9
        assert rules["b"].arg == 250.0
        # delay has no default hit: it fires on every evaluation.
        assert rules["b"].hit is None

    def test_error_kinds(self):
        for kind in ("io", "transient", "poison", "enospc", "edquot"):
            rules = parse_spec(f"s=error:{kind}")
            assert rules["s"].arg == kind

    def test_hit_schedule(self):
        assert parse_spec("s=crash@7")["s"].hit == 7

    def test_commas_join_rules_too(self):
        rules = parse_spec("a=crash,b=enospc")
        assert set(rules) == {"a", "b"}

    def test_describe_round_trips_the_shape(self):
        rule = parse_spec("s=torn:9@2")["s"]
        assert rule == Rule(site="s", action="torn", arg=9, hit=2)

    @pytest.mark.parametrize(
        "spec",
        [
            "noequals",
            "s=bogus",
            "s=error:wat",
            "s=torn:x",
            "s=torn:-1",
            # ``%`` schedules nothing: ``@hit`` and ``!once`` are the
            # whole scheduling grammar.
            "s=crash%0.5",
            "s=crash%1.5",
            "s=crash%0",
            "s=crash@0",
            "s=crash@2%0.5",
            "s=crash:5",
            "s=delay:soon",
        ],
    )
    def test_malformed_specs_are_configuration_errors(self, spec):
        with pytest.raises(ConfigurationError):
            parse_spec(spec)

    def test_once_requires_a_gate_directory(self):
        with pytest.raises(ConfigurationError):
            parse_spec("s=crash!once")

    def test_once_parses_with_gate(self, monkeypatch, tmp_path):
        monkeypatch.setenv(failpoints.GATE_ENV, str(tmp_path))
        assert parse_spec("s=crash!once")["s"].once


class TestRegistry:
    def test_discover_sites_enumerates_the_stack(self, declared_sites):
        expected = {
            "agent.result.pre_push",
            "cache.write.post_rename",
            "cache.write.pre_rename",
            "cluster.client.post_send",
            "cluster.client.pre_send",
            "cluster.sweep.post_submit",
            "executor.persist.post",
            "executor.persist.pre",
            "journal.append.post_write",
            "journal.append.pre_write",
            "master.registry.pre_expire",
            "master.result.pre_persist",
            "worker.result.pre_put",
        }
        assert expected == set(declared_sites)
        # Every site carries a human description of its boundary.
        assert all(declared_sites[name] for name in expected)


class TestFiring:
    def test_zero_cost_when_off(self):
        failpoints.install("cache.write.pre_rename=error:io")
        failpoints.install("")
        # Disarmed: the site that would raise does nothing.
        assert failpoints.fire("cache.write.pre_rename") is None
        assert failpoints.fire("never.registered.site") is None

    def test_armed_delay_changes_no_sweep_byte(self, monkeypatch, tmp_path):
        """A benign delay failpoint armed on a real sweep changes no
        output byte versus the same sweep with failpoints unset — the
        same contract ``--sanitize`` and ``--obs-level`` carry
        (docs/chaos_testing.md)."""
        from repro.cli import main

        # ``--failpoints`` arms through the environment; this pair makes
        # the test's teardown unset it again.
        monkeypatch.setenv(failpoints.FAILPOINTS_ENV, "")
        monkeypatch.delenv(failpoints.FAILPOINTS_ENV)
        sweep = ["sweep", "--scale", "20", "--values", "4", "8", "12"]
        assert main(sweep + [
            "--cache-dir", str(tmp_path / "off-cache"),
            "--output", str(tmp_path / "rows-off.json"),
        ]) == 0
        assert naps_of(monkeypatch, "journal.append.pre_write") == []
        assert main(sweep + [
            "--cache-dir", str(tmp_path / "on-cache"),
            "--output", str(tmp_path / "rows-on.json"),
            "--failpoints", "journal.append.pre_write=delay:1",
        ]) == 0
        assert naps_of(monkeypatch, "journal.append.pre_write") == [0.001]
        assert (tmp_path / "rows-on.json").read_bytes() == (
            tmp_path / "rows-off.json"
        ).read_bytes()

    def test_hit_count_fires_exactly_once(self):
        failpoints.install("s=error:io@2")
        failpoints.fire("s")  # evaluation 1: armed but not yet due
        with pytest.raises(OSError) as info:
            failpoints.fire("s")  # evaluation 2: fires
        assert info.value.errno == errno.EIO
        failpoints.fire("s")  # evaluation 3: already spent

    def test_crash_uses_the_exit_primitive(self, crash):
        failpoints.install("s=crash")
        with pytest.raises(crash) as info:
            failpoints.fire("s")
        assert info.value.code == CRASH_EXIT_CODE

    def test_torn_writes_prefix_then_crashes(self, crash):
        failpoints.install("s=torn:4")
        chunks = []
        with pytest.raises(crash):
            failpoints.fire("s", data=b"abcdefgh", writer=chunks.append)
        assert chunks == [b"abcd"]

    def test_torn_without_writer_degrades_to_crash(self, crash):
        failpoints.install("s=torn:4")
        with pytest.raises(crash):
            failpoints.fire("s")

    def test_error_kind_exceptions(self):
        failpoints.install("a=enospc;b=error:edquot;c=error:transient;"
                           "d=error:poison")
        with pytest.raises(OSError) as info:
            failpoints.fire("a")
        assert info.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as info:
            failpoints.fire("b")
        assert info.value.errno == errno.EDQUOT
        with pytest.raises(InjectedTransientError):
            failpoints.fire("c")
        with pytest.raises(InjectedFault):
            failpoints.fire("d")

    def test_delay_fires_every_evaluation(self, monkeypatch):
        naps = []
        monkeypatch.setattr(failpoints.time, "sleep", naps.append)
        failpoints.install("s=delay:5")
        failpoints.fire("s")
        failpoints.fire("s")
        assert naps == [0.005, 0.005]

    def test_once_gate_spans_processes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(failpoints.GATE_ENV, str(tmp_path))
        failpoints.install("s=error:io!once")
        with pytest.raises(OSError):
            failpoints.fire("s")
        # A "new process" re-arms from the same spec (hit counters
        # reset) but the on-disk gate token says the site already
        # fired somewhere — it must stay quiet.
        failpoints.install("s=error:io!once")
        failpoints.fire("s")
        assert list(tmp_path.glob("*.fired"))

    def test_install_from_env(self, monkeypatch, crash):
        monkeypatch.setenv(failpoints.FAILPOINTS_ENV, "a=crash@3;b=delay:10")
        failpoints.install_from_env()
        assert naps_of(monkeypatch, "b") == [0.01]
        failpoints.fire("a")
        failpoints.fire("a")
        with pytest.raises(crash):
            failpoints.fire("a")  # the third evaluation crashes
        monkeypatch.delenv(failpoints.FAILPOINTS_ENV)
        failpoints.install_from_env()
        assert naps_of(monkeypatch, "b") == []
        for _ in range(3):
            failpoints.fire("a")  # disarmed: never crashes
