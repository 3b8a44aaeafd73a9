"""Session / runner integration and the obs-report summariser."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import ObsLevel, Observability
from repro.obs.report import (
    format_report,
    heat_bar,
    load_metrics,
    series_percentile_rows,
    utilization_heat_rows,
)
from repro.simulation.config import ScaledConfig
from repro.simulation.runner import build_engine, run_experiment
from tests.golden.test_golden_faults import fault_cells


def small_config(technique: str = "simple"):
    return ScaledConfig(scale=50).with_(
        technique=technique, num_stations=2, access_mean=0.2
    )


class TestObsLevel:
    def test_parse(self):
        assert ObsLevel.parse("trace") is ObsLevel.TRACE
        assert ObsLevel.parse(None) is ObsLevel.OFF
        assert ObsLevel.parse(ObsLevel.METRICS) is ObsLevel.METRICS
        with pytest.raises(ConfigurationError):
            ObsLevel.parse("verbose")

    def test_paths_imply_levels(self, tmp_path):
        obs = Observability(level="off", metrics_path=tmp_path / "m.json")
        assert obs.level is ObsLevel.METRICS
        obs = Observability(level="off", trace_path=tmp_path / "t.jsonl")
        assert obs.level is ObsLevel.TRACE
        obs.finish()

    def test_off_session_opens_no_runs(self):
        obs = Observability(level="off")
        assert not obs.enabled
        assert obs.begin_run("x") is None


class TestRunnerIntegration:
    def test_off_rows_are_byte_identical(self):
        """--obs-level off must not perturb results at all."""
        config = small_config()
        baseline = run_experiment(config)
        observed = run_experiment(config, obs=Observability(level="trace"))
        assert baseline.summary() == observed.summary()
        assert baseline.profile == {} and baseline.observation is None

    def test_observed_run_attaches_profile_and_metrics(self):
        obs = Observability(level="metrics")
        result = run_experiment(small_config(), obs=obs)
        assert result.profile  # wall-clock phase totals
        assert "engine.step" in result.profile
        metrics = result.observation["metrics"]
        # Per-disk utilization for every disk in the array.
        assert len(metrics["disk.busy"]["utilization"]) == 20
        assert metrics["admission.queue_depth"]["type"] == "series"
        # The profile never leaks into the deterministic summary rows.
        assert "profile" not in result.summary()
        # Storage gauges: one per drive.
        storage = [k for k in metrics if k.startswith("disk.storage_cylinders")]
        assert len(storage) == 20

    def test_vdr_reports_per_disk_utilization_too(self):
        obs = Observability(level="metrics")
        result = run_experiment(small_config("vdr"), obs=obs)
        metrics = result.observation["metrics"]
        assert len(metrics["disk.busy"]["utilization"]) == 20

    def test_session_collects_one_snapshot_per_run(self, tmp_path):
        obs = Observability(
            level="metrics", metrics_path=tmp_path / "metrics.json"
        )
        run_experiment(small_config(), obs=obs)
        run_experiment(small_config("vdr"), obs=obs)
        written = obs.finish()
        assert written == [tmp_path / "metrics.json"]
        document = load_metrics(tmp_path / "metrics.json")
        assert document["level"] == "metrics"
        assert [run["index"] for run in document["runs"]] == [0, 1]

    def test_trace_session_streams_jsonl(self, tmp_path):
        from repro.obs import read_jsonl

        obs = Observability(trace_path=tmp_path / "trace.jsonl")
        run_experiment(small_config(), obs=obs)
        obs.finish()
        events = read_jsonl(tmp_path / "trace.jsonl")
        assert events
        kinds = {event.kind for event in events}
        assert {"run", "scheduler", "display", "counter"} <= kinds


ENGINE_CLOCK = ScaledConfig(
    num_stations=8, access_mean=2.0,
    warmup_intervals=100, measure_intervals=900,
)
OPEN_DEADLINE = ENGINE_CLOCK.with_(
    technique="staggered", arrival="poisson", arrival_rate=0.05,
    zipf_s=0.8, deadline_intervals=25,
)
SCRIPTED_FAILURE = dict(fault_cells())["staggered/mirror/scripted"]


def stepped_run(config, level):
    """Run ``config`` at ``level``; return the intervals it stepped,
    its serialised result and its observation (``None`` when off)."""
    session = Observability(level=level)
    run_obs = session.begin_run(
        expected_intervals=config.warmup_intervals + config.measure_intervals
    )
    engine = build_engine(config, obs=run_obs)
    stepped = []
    step = engine.step

    def spy():
        stepped.append(engine.interval)
        return step()

    engine.step = spy
    result = engine.run(config.warmup_intervals, config.measure_intervals)
    session.finish_run(run_obs, result)
    return stepped, json.dumps(result.to_dict(), sort_keys=True), run_obs


class TestSamplesOnTheEngineClock:
    """Telemetry samples ride the engine's clock and force no step."""

    @pytest.mark.parametrize(
        "config",
        [
            ENGINE_CLOCK.with_(technique="simple"),
            ENGINE_CLOCK.with_(technique="staggered"),
            ENGINE_CLOCK.with_(technique="vdr"),
            OPEN_DEADLINE,
            SCRIPTED_FAILURE,
        ],
        ids=["simple", "staggered", "vdr", "open_deadline", "scripted_failure"],
    )
    def test_observed_run_steps_the_intervals_of_the_off_run(self, config):
        stepped, blob, _ = stepped_run(config, "off")
        for level in ("metrics", "trace"):
            observed_stepped, observed_blob, run_obs = stepped_run(
                config, level
            )
            assert observed_stepped == stepped
            assert observed_blob == blob
            # Every sample point is booked, stepped or skipped.
            total = config.warmup_intervals + config.measure_intervals
            series = run_obs.registry.snapshot()["displays.active"]
            assert [t for t, _ in series["points"]] == list(
                range(0, total, run_obs.sample_stride)
            )

    @pytest.mark.parametrize(
        "config", [ENGINE_CLOCK.with_(technique="simple"), OPEN_DEADLINE],
        ids=["closed", "open"],
    )
    def test_profile_times_steps_and_samples(self, config):
        stepped, _, run_obs = stepped_run(config, "metrics")
        stride = run_obs.sample_stride
        total = config.warmup_intervals + config.measure_intervals
        profile = run_obs.snapshot()["profile"]
        # Every stride-th stepped interval's step, and every sample point.
        assert profile["engine.step"]["entries"] == -(-len(stepped) // stride)
        assert profile["engine.observe"]["entries"] == -(-total // stride)
        assert set(profile) == {"engine.step", "engine.observe"}


class TestReport:
    def test_heat_bar_extremes(self):
        assert heat_bar(0.0).strip() == ""
        assert heat_bar(1.0, width=4) == "████"
        assert len(heat_bar(0.37, width=10)) == 10

    def test_report_from_live_run(self):
        obs = Observability(level="metrics")
        run_experiment(small_config(), obs=obs)
        document = obs.metrics_document()
        metrics = document["runs"][0]["metrics"]
        rows = utilization_heat_rows(metrics)
        assert len(rows) == 20 and "disk[  0]" in rows[0]
        depth = series_percentile_rows(metrics)
        assert {"admission.queue_depth",
                "tertiary.queue_depth{device=tertiary}"} <= {
            row["series"] for row in depth
        }
        text = format_report(document)
        assert "per-disk utilization" in text
        assert "wall-clock profile" in text

    def test_report_run_index_bounds(self):
        with pytest.raises(ConfigurationError):
            format_report({"runs": [{"metrics": {}}]}, run_index=3)
        assert format_report({"runs": []}) == "no runs recorded"

    def test_load_metrics_rejects_non_documents(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_metrics(bogus)


class TestCliObservability:
    RUN = ["run", "--scale", "50", "--technique", "simple",
           "--stations", "2", "--mean", "0.2"]

    def test_output_extension_validated_up_front(self, capsys):
        with pytest.raises(SystemExit):
            main(self.RUN + ["--output", "rows.yaml"])
        assert "must end in .csv or .json" in capsys.readouterr().err

    def test_obs_flags_write_both_files(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main(self.RUN + ["--trace", str(trace),
                                "--metrics", str(metrics)])
        assert code == 0
        assert trace.exists() and metrics.exists()
        document = json.loads(metrics.read_text())
        assert document["level"] == "trace"
        assert len(document["runs"]) == 1

    def test_metrics_level_prints_inline_report(self, capsys):
        assert main(self.RUN + ["--obs-level", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "per-disk utilization" in out
        assert "queue depth percentiles" in out

    def test_obs_report_command(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        main(self.RUN + ["--trace", str(trace), "--metrics", str(metrics)])
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        code = main(["obs-report", str(metrics), "--run", "0",
                     "--trace", str(trace), "--chrome", str(chrome)])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-disk utilization" in out
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]

    def test_staggered_trace_and_metrics_report(self, tmp_path, capsys):
        """Staggered striping through ``run --trace --metrics`` and
        ``obs-report --chrome`` (the simple-striping run above is the
        CLI's default technique)."""
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        run = ["run", "--scale", "50", "--technique", "staggered",
               "--stations", "2", "--mean", "0.2"]
        assert main(run + ["--trace", str(trace),
                           "--metrics", str(metrics)]) == 0
        document = json.loads(metrics.read_text())
        assert document["runs"][0]["label"].startswith("staggered")
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        assert main(["obs-report", str(metrics), "--trace", str(trace),
                     "--chrome", str(chrome)]) == 0
        assert "per-disk utilization" in capsys.readouterr().out
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_level_prints_inline_report(self, capsys):
        assert main(["run", "--scale", "20", "--obs-level", "trace"]) == 0
        out = capsys.readouterr().out
        assert "per-disk utilization" in out
        assert "wall-clock profile" in out

    def test_obs_report_requires_an_input(self, capsys):
        assert main(["obs-report"]) == 2
        assert main(["obs-report", "--chrome", "x.json"]) == 2

    def test_figure8_off_rows_identical_to_seed_path(self, capsys):
        """The figure8 command emits the same rows with and without obs."""
        from repro.experiments.figure8 import figure8_rows, run_figure8

        kwargs = dict(scale=50, stations=[2], means=[0.2],
                      techniques=("simple", "vdr"))
        plain = figure8_rows(run_figure8(**kwargs))
        observed = figure8_rows(
            run_figure8(obs=Observability(level="trace"), **kwargs)
        )
        assert plain == observed
