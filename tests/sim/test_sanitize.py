"""Runtime invariant sanitizer (``repro.sim.sanitize``).

Two contracts matter most:

* sanitizing must never change results — ``strict`` and ``off`` runs
  are byte-identical for every storage technique (the sanitizer only
  *reads* state); and
* the golden configurations are invariant-clean — ``strict`` raises
  nothing and ``check`` tallies zero violations.

Everything else here pins the plumbing: mode parsing, strict/check
dispatch, monotonic clocks, RNG substream reuse detection, the
module-global activation used by the RNG hook, and the environment
override CI uses to harden entire suites.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SanitizeError
from repro.exec.hashing import canonical_json
from repro.sim import sanitize
from repro.sim.sanitize import Sanitizer, activation, build_sanitizer, parse_mode
from repro.simulation.config import ScaledConfig
from repro.simulation.runner import effective_sanitize_mode, run_experiment


class TestModeParsing:
    def test_valid_modes_normalise(self):
        assert parse_mode("off") == "off"
        assert parse_mode("CHECK") == "check"
        assert parse_mode("Strict") == "strict"
        assert parse_mode(None) == "off"
        assert parse_mode("") == "off"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_mode("paranoid")

    def test_build_sanitizer_returns_none_for_off(self):
        assert build_sanitizer("off") is None
        assert build_sanitizer(None) is None
        assert build_sanitizer("check").mode == "check"
        assert build_sanitizer("strict").strict

    def test_sanitizer_cannot_be_built_off(self):
        with pytest.raises(ConfigurationError):
            Sanitizer("off")

    def test_config_field_validated(self):
        with pytest.raises(ConfigurationError):
            ScaledConfig(scale=50, sanitize="bogus")


class TestVerdicts:
    def test_check_mode_tallies_and_continues(self):
        sanitizer = Sanitizer("check")
        sanitizer.violation("half_slots", "claims exceed capacity")
        sanitizer.violation("half_slots", "again")
        sanitizer.expect(False, "buffer", "gauge negative")
        sanitizer.expect(True, "buffer", "never recorded")
        assert sanitizer.summary() == {"half_slots": 2, "buffer": 1}
        assert sanitizer.total == 3

    def test_strict_mode_raises_with_check_name(self):
        sanitizer = Sanitizer("strict")
        with pytest.raises(SanitizeError, match=r"\[sanitize\.half_slots\]"):
            sanitizer.violation("half_slots", "claims exceed capacity")

    def test_check_mode_mirrors_obs_counters(self):
        from repro.obs import Observability

        session = Observability(level="metrics")
        run = session.begin_run("sanitize-test")
        sanitizer = Sanitizer("check", obs=run)
        sanitizer.violation("event_time", "clock ran backwards")
        counter = run.registry.counter("sanitize.event_time")
        assert counter.value == 1

    def test_note_time_flags_backwards_clocks(self):
        sanitizer = Sanitizer("check")
        sanitizer.note_time("kernel", 1.0)
        sanitizer.note_time("kernel", 2.0)
        sanitizer.note_time("kernel", 1.5)
        assert sanitizer.summary() == {"event_time": 1}
        # Independent clocks do not interfere.
        sanitizer.note_time("engine.interval", 0.0)
        assert sanitizer.total == 1

    def test_note_stream_seed_flags_reuse(self):
        sanitizer = Sanitizer("check")
        sanitizer.note_stream_seed(7)
        sanitizer.note_stream_seed(8)
        assert sanitizer.total == 0
        sanitizer.note_stream_seed(7)
        assert sanitizer.summary() == {"rng_substream_reuse": 1}


class TestActivation:
    def test_activation_installs_and_restores(self):
        outer = Sanitizer("check")
        inner = Sanitizer("check")
        assert sanitize.current_sanitizer() is None
        with activation(outer):
            assert sanitize.current_sanitizer() is outer
            with activation(inner):
                assert sanitize.current_sanitizer() is inner
            assert sanitize.current_sanitizer() is outer
        assert sanitize.current_sanitizer() is None

    def test_module_hook_routes_to_active_sanitizer(self):
        sanitizer = Sanitizer("check")
        sanitize.note_stream_seed(3)  # no-op: nothing active
        with activation(sanitizer):
            sanitize.note_stream_seed(3)
            sanitize.note_stream_seed(3)
        assert sanitizer.summary() == {"rng_substream_reuse": 1}


class TestEnvironmentOverride:
    def test_env_raises_mode_when_config_is_off(self, monkeypatch):
        config = ScaledConfig(scale=50)
        monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
        assert effective_sanitize_mode(config) == "off"
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "strict")
        assert effective_sanitize_mode(config) == "strict"

    def test_config_field_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "strict")
        config = ScaledConfig(scale=50, sanitize="check")
        assert effective_sanitize_mode(config) == "check"

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(sanitize.SANITIZE_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            effective_sanitize_mode(ScaledConfig(scale=50))


class TestEndToEnd:
    """The load-bearing guarantees, per storage technique."""

    TECHNIQUES = ["simple", "staggered", "vdr"]

    def config(self, technique):
        return ScaledConfig(
            scale=20, technique=technique, num_stations=6, access_mean=1.0
        )

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_strict_is_byte_identical_to_off(self, technique):
        config = self.config(technique)
        plain = run_experiment(config)
        hardened = run_experiment(config.with_(sanitize="strict"))
        assert canonical_json(plain.summary()) == canonical_json(
            hardened.summary()
        )

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_check_mode_finds_zero_violations(self, technique):
        config = self.config(technique).with_(sanitize="check")
        with activation(None):
            run_experiment(config)
        # strict would have raised; re-run in check and count directly.
        sanitizer = build_sanitizer("check")
        with activation(sanitizer):
            from repro.simulation.runner import build_engine

            engine = build_engine(config, sanitizer=sanitizer)
            engine.run(config.warmup_intervals, config.measure_intervals)
        assert sanitizer.summary() == {}

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_strict_covers_faulty_runs_too(self, technique):
        config = ScaledConfig(
            scale=20, technique=technique, num_stations=6,
            access_mean=1.0, sanitize="strict",
            mttf=200.0, mttr=40.0, redundancy="mirror",
        )
        result = run_experiment(config)
        assert result.completed >= 0  # and no SanitizeError escaped

    @pytest.mark.parametrize(
        "technique,policy_class",
        [
            ("simple", "repro.core.scheduler.StaggeredStripingPolicy"),
            ("vdr", "repro.vdr.scheduler.VirtualReplicationPolicy"),
        ],
    )
    def test_skip_check_catches_a_late_wake_up(
        self, technique, policy_class, monkeypatch
    ):
        """A ``next_activity`` that promises quiet it cannot keep
        would have the engine process due events late; strict mode
        reports the skipped span instead."""
        monkeypatch.setattr(
            f"{policy_class}.next_activity",
            lambda self, interval: interval + 5,
        )
        config = self.config(technique).with_(sanitize="strict")
        with pytest.raises(SanitizeError, match=r"\[sanitize\.skip\]"):
            run_experiment(config)
