"""Executor behavior: ordering, dedupe, failure capture, obs roll-up."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    ResultCache,
    RunSpec,
    SweepFailure,
    execute,
    experiment_spec,
    records_to_results,
    spec_digest,
)
from repro.exec.spec import register_kind
from repro.obs import Observability
from repro.simulation.config import ScaledConfig


@register_kind("_touch")
def _touch_kind(spec, obs=None):
    """Test-only kind: logs its execution and echoes a value."""
    log = Path(spec.params["log"])
    with log.open("a") as handle:
        handle.write(f"{spec.params['value']}\n")
    return {"value": spec.params["value"]}


@register_kind("_boom")
def _boom_kind(spec, obs=None):
    raise RuntimeError(f"boom:{spec.params.get('value')}")


def _touch_spec(tmp_path, value):
    return RunSpec(
        kind="_touch",
        params={"log": str(tmp_path / "log.txt"), "value": value},
        label=f"touch-{value}",
    )


def small_config(**overrides):
    base = {"num_stations": 2, "access_mean": 0.2}
    base.update(overrides)
    return ScaledConfig(scale=50).with_(**base)


class TestExecute:
    def test_empty_specs(self):
        assert execute([]) == []

    def test_jobs_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            execute([_touch_spec(tmp_path, 1)], jobs=0)

    def test_records_in_spec_order(self, tmp_path):
        specs = [_touch_spec(tmp_path, value) for value in (3, 1, 2)]
        records = execute(specs)
        assert [record.payload["value"] for record in records] == [3, 1, 2]
        assert [record.index for record in records] == [0, 1, 2]
        assert all(record.ok for record in records)
        assert all(record.digest == spec_digest(spec)
                   for record, spec in zip(records, specs))

    def test_identical_specs_simulate_once(self, tmp_path):
        specs = [_touch_spec(tmp_path, 7) for _ in range(3)]
        records = execute(specs)
        log = (tmp_path / "log.txt").read_text().splitlines()
        assert log == ["7"]  # one execution
        assert [record.payload["value"] for record in records] == [7, 7, 7]
        assert [record.cached for record in records] == [False, True, True]

    def test_cache_hit_does_no_work(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _touch_spec(tmp_path, 9)
        execute([spec], cache=cache)
        execute([spec], cache=cache)
        log = (tmp_path / "log.txt").read_text().splitlines()
        assert log == ["9"]  # second invocation came from the cache
        assert cache.hits == 1

    def test_failure_yields_error_record_not_crash(self, tmp_path):
        specs = [
            RunSpec(kind="_boom", params={"value": 1}, label="boom-1"),
            _touch_spec(tmp_path, 2),
        ]
        records = execute(specs)
        assert records[0].status == "error"
        assert "boom:1" in records[0].error
        assert records[1].ok and records[1].payload["value"] == 2

    def test_failures_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(kind="_boom", params={"value": 3})
        execute([spec], cache=cache)
        assert len(cache) == 0

    def test_records_to_results_raises_sweep_failure(self):
        specs = [RunSpec(kind="_boom", params={"value": 4}, label="b4")]
        with pytest.raises(SweepFailure) as excinfo:
            records_to_results(execute(specs))
        assert "b4" in str(excinfo.value)
        assert excinfo.value.failures[0].error is not None

    def test_sweep_failure_message_caps_the_list(self):
        from repro.exec.executor import MAX_LISTED_FAILURES, RunRecord

        failures = [
            RunRecord(
                index=i, kind="experiment", label=f"row-{i}", digest="",
                status="error", error=f"Boom {i}",
            )
            for i in range(MAX_LISTED_FAILURES + 4)
        ]
        message = str(SweepFailure(failures))
        assert message.startswith("7 of the sweep's runs failed: ")
        for i in range(MAX_LISTED_FAILURES):
            assert f"row-{i}: Boom {i}" in message
        assert f"row-{MAX_LISTED_FAILURES}" not in message
        assert "... and 4 more" in message
        assert "journal" not in message  # unjournaled sweep: no hint

    def test_sweep_failure_message_names_the_journal(self):
        from repro.exec.executor import RunRecord

        record = RunRecord(
            index=0, kind="experiment", label="row", digest="",
            status="error", error="Boom",
            sweep_id="abcd1234", journal_path="/tmp/j/abcd1234.jsonl",
        )
        message = str(SweepFailure([record]))
        assert "(journal: /tmp/j/abcd1234.jsonl" in message
        assert "repro sweep-resume abcd1234" in message

    def test_parallel_execution_matches_serial(self):
        specs = [
            experiment_spec(small_config(num_stations=n)) for n in (1, 2)
        ]
        serial = execute(specs, jobs=1)
        parallel = execute(specs, jobs=2)
        assert [r.payload for r in serial] == [r.payload for r in parallel]

    def test_parallel_failure_capture(self, tmp_path):
        specs = [
            RunSpec(kind="experiment", config=None, label="no-config"),
            experiment_spec(small_config()),
        ]
        records = execute(specs, jobs=2)
        assert records[0].status == "error"
        assert "ConfigurationError" in records[0].error
        assert records[1].ok

    def test_unknown_kind_is_an_error_record(self):
        records = execute([RunSpec(kind="_no_such_kind")])
        assert records[0].status == "error"
        assert "unknown run kind" in records[0].error


#: A small observed sweep, three distinct experiment specs.
OBSERVED_SPECS = [
    experiment_spec(small_config(num_stations=n)) for n in (1, 2, 3)
]


def per_run_snapshots(obs):
    """The session's run snapshots without wall-clock profiles, the
    executor's own ``sweep-exec`` run left out."""
    return [
        {key: value for key, value in run.items() if key != "profile"}
        for run in obs.runs
        if "sweep-exec" not in run["label"]
    ]


def observed_sweep(level, jobs, cache_mode, tmp_path):
    """One observed run of OBSERVED_SPECS; ``warm`` replays a cache an
    identical sweep has just filled."""
    cache = None if cache_mode == "none" else ResultCache(tmp_path / "cache")
    if cache_mode == "warm":
        execute(OBSERVED_SPECS, jobs=jobs, cache=cache,
                obs=Observability(level=level))
    obs = Observability(level=level)
    execute(OBSERVED_SPECS, jobs=jobs, cache=cache, obs=obs)
    return obs


@pytest.fixture(scope="module")
def reference_runs():
    obs = Observability(level="metrics")
    execute(OBSERVED_SPECS, obs=obs)
    return per_run_snapshots(obs)


class TestObsRollup:
    def test_exec_metrics_rolled_up(self, tmp_path):
        obs = Observability(level="metrics")
        cache = ResultCache(tmp_path / "cache")
        specs = [_touch_spec(tmp_path, value) for value in (1, 2)]
        execute(specs, cache=cache, obs=obs)
        execute(specs, cache=cache, obs=obs)
        exec_runs = [run for run in obs.runs if "sweep-exec" in run["label"]]
        assert len(exec_runs) == 2
        cold = exec_runs[0]["metrics"]
        warm = exec_runs[1]["metrics"]
        assert cold["exec.runs"]["value"] == 2
        assert cold["exec.cache_hits"]["value"] == 0
        assert cold["exec.executed"]["value"] == 2
        assert warm["exec.cache_hits"]["value"] == 2
        assert warm["exec.executed"]["value"] == 0
        assert cold["exec.run_seconds"]["count"] == 2

    def test_exec_profiler_phases(self, tmp_path):
        obs = Observability(level="metrics")
        specs = [_touch_spec(tmp_path, value) for value in (1, 2)]
        execute(specs, obs=obs)
        exec_run = [r for r in obs.runs if "sweep-exec" in r["label"]][0]
        assert {"plan", "execute", "collect"} <= set(exec_run["profile"])

    def test_single_spec_opens_no_exec_run(self, tmp_path):
        obs = Observability(level="metrics")
        execute([_touch_spec(tmp_path, 1)], obs=obs)
        assert all("sweep-exec" not in run["label"] for run in obs.runs)

    @pytest.mark.parametrize("cache_mode", ["none", "cold", "warm"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_serial_experiment_runs_still_observed(
        self, jobs, cache_mode, tmp_path, reference_runs
    ):
        """A sweep's per-run telemetry takes one path: the snapshots
        are the same at any jobs, with or without a (warm) cache."""
        obs = observed_sweep("metrics", jobs, cache_mode, tmp_path)
        labels = [run["label"] for run in obs.runs]
        assert sum("stations=1" in label for label in labels) == 1
        assert sum("stations=2" in label for label in labels) == 1
        assert sum("sweep-exec" in label for label in labels) == 1
        assert per_run_snapshots(obs) == reference_runs

    @pytest.mark.parametrize("cache_mode", ["cold", "warm"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_adopted_trace_run_instants_reindexed(
        self, jobs, cache_mode, tmp_path
    ):
        obs = observed_sweep("trace", jobs, cache_mode, tmp_path)
        instants = [
            event.args["run"]
            for event in obs.memory_events()
            if event.kind == "run"
        ]
        assert instants == list(range(len(OBSERVED_SPECS) + 1))
        # The stored records are per digest: they keep the capture's 0.
        cache = ResultCache(tmp_path / "cache")
        for spec in OBSERVED_SPECS:
            trace = cache.get_observed(spec_digest(spec), "trace")[1]["trace"]
            assert [e["args"]["run"] for e in trace if e["kind"] == "run"] == [0]


class TestObsStoreIO:
    """``persist_outcome`` is the only writer of a run's telemetry and
    ``plan_rows`` its only reader: a row is probed once per sweep and
    written once when fresh, and an observed plan never takes the
    line-1-only ``get``."""

    @pytest.mark.parametrize("level", ["metrics", "trace"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_io_counts(self, jobs, level, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("put", "get", "get_observed"):
            original = getattr(ResultCache, name)

            def spy(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ResultCache, name, spy)
        cache = ResultCache(tmp_path / "cache")
        count = len(OBSERVED_SPECS)

        execute(OBSERVED_SPECS, jobs=jobs, cache=cache,
                obs=Observability(level=level))
        assert dict(calls) == {"get_observed": count, "put": count}

        calls.clear()
        obs = Observability(level=level)
        execute(OBSERVED_SPECS, jobs=jobs, cache=cache, obs=obs)
        assert dict(calls) == {"get_observed": count}
        assert len(per_run_snapshots(obs)) == count
