"""Integration tests: sweep journal + run telemetry through execute().

The sweep-scope observability contract (docs/sweep_observability.md):

* every journaled sweep appends its progress events to its one journal;
* the *set* of settled outcomes is a function of the work, not the
  scheduling — ``jobs=1`` and ``jobs=4`` agree on the settled digest;
* with ``--obs-level metrics|trace`` and a cache, per-run telemetry is
  persisted in the run's cache record and reused byte-identically on
  warm hits; a corrupt telemetry line is a miss and is rewritten.
"""

from __future__ import annotations

import json

import pytest

from repro.exec import ResultCache, RunSpec, Supervision, execute
from repro.exec.hashing import canonical_json
from repro.exec.journal import journal_root, load_journal, read_records
from repro.exec.spec import register_kind, spec_digest
from repro.obs import Observability
from repro.obs.events import settled_events_digest


@register_kind("_busy")
def _busy_kind(spec, obs=None):
    """Deterministic payload + deterministic telemetry when observed."""
    value = spec.params["value"]
    run = obs.begin_run(spec.describe()) if obs is not None else None
    if run is not None:
        run.registry.counter("busy.value").inc(value)
        run.registry.gauge("busy.square").set(value * value)
        obs.finish_run(run)
    return {"value": value, "square": value * value}


def busy_specs(count):
    return [
        RunSpec(kind="_busy", params={"value": n}, label=f"busy-{n}")
        for n in range(count)
    ]


def quiet(**overrides):
    options = {"handle_signals": False, "max_attempts": 1}
    options.update(overrides)
    return Supervision(**options)


def single_journal(cache_root):
    """The one file a journaled sweep writes under ``journals/``."""
    (path,) = journal_root(cache_root).iterdir()
    return path


class TestEventStream:
    def test_one_journal_per_sweep(self, tmp_path):
        """Every record of a sweep — durable rows and progress events —
        lands in ``<sweep_id>.jsonl``; nothing else is written beside
        it, cold or warm."""
        cache = ResultCache(tmp_path)
        records = execute(busy_specs(3), cache=cache, supervision=quiet())
        path = single_journal(tmp_path)
        assert path.name == f"{records[0].sweep_id}.jsonl"
        events = read_records(path)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep_begin"
        assert kinds[-1] == "sweep_end"
        assert kinds.count("run_settled") == 3
        assert kinds.count("run_leased") == 3
        settled = [e for e in events if e["event"] == "run_settled"]
        assert [e["payload"]["value"] for e in settled] == [0, 1, 2]
        execute(busy_specs(3), cache=cache, supervision=quiet())
        assert single_journal(tmp_path) == path
        assert not list(tmp_path.rglob("*.events.jsonl"))
        assert [e["event"] for e in read_records(path)].count(
            "sweep_end"
        ) == 2  # every session ends its record, warm ones too

    def test_warm_sweep_emits_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute(busy_specs(3), cache=cache, supervision=quiet())
        execute(busy_specs(3), cache=cache, supervision=quiet())
        events = read_records(single_journal(tmp_path))
        assert [e["event"] for e in events].count("cache_hit") == 3

    def test_events_off_without_journal(self, tmp_path):
        execute(busy_specs(3), supervision=quiet())  # no cache, no journal
        assert not journal_root(tmp_path).exists()

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_settled_digest_scheduling_independent(self, tmp_path, jobs):
        """jobs=1 and jobs=4 produce the same *set* of settled events."""
        cache = ResultCache(tmp_path / f"cache-{jobs}")
        execute(
            busy_specs(6), jobs=jobs, cache=cache, supervision=quiet()
        )
        events = read_records(single_journal(tmp_path / f"cache-{jobs}"))
        digest = settled_events_digest(events)
        reference_cache = ResultCache(tmp_path / "reference")
        execute(busy_specs(6), jobs=1, cache=reference_cache,
                supervision=quiet())
        reference = settled_events_digest(
            read_records(single_journal(tmp_path / "reference"))
        )
        assert digest == reference

    def test_progress_replay_of_finished_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute(busy_specs(4), jobs=2, cache=cache, supervision=quiet())
        progress = load_journal(single_journal(tmp_path))
        assert progress.status == "complete"
        assert progress.total == 4
        assert progress.completed == 4
        assert progress.pending == 0
        assert progress.workers_spawned >= 1


class TestArtifactStore:
    def observed_execute(self, specs, cache, jobs=1, level="metrics"):
        obs = Observability(level=level)
        records = execute(
            specs, jobs=jobs, cache=cache, obs=obs, supervision=quiet()
        )
        return records, obs

    def artifact_bytes(self, cache, specs):
        return {
            spec.label: cache.path_for(spec_digest(spec)).read_bytes()
            for spec in specs
        }

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_fresh_sweep_writes_artifacts(self, tmp_path, jobs):
        specs = busy_specs(3)
        cache = ResultCache(tmp_path)
        records, obs = self.observed_execute(specs, cache, jobs=jobs)
        assert all(record.ok for record in records)
        assert len(cache) == 3
        for spec in specs:
            _, telemetry = cache.get_observed(spec_digest(spec), "metrics")
            runs = telemetry["runs"]
            assert len(runs) == 1
            value = spec.params["value"]
            assert runs[0]["metrics"]["busy.value"]["value"] == value

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_session_adopts_runs(self, tmp_path, jobs):
        """Parallel sweeps now carry per-run engine metrics: worker
        captures are adopted into the parent session in spec order."""
        specs = busy_specs(3)
        _, obs = self.observed_execute(specs, ResultCache(tmp_path), jobs=jobs)
        labels = [run["label"] for run in obs.runs]
        assert labels == ["busy-0", "busy-1", "busy-2",
                          "sweep-exec[3 runs]"]
        exec_metrics = obs.runs[-1]["metrics"]
        assert exec_metrics["exec.obs_artifacts"]["value"] == 3

    def test_warm_sweep_reuses_artifacts_byte_identically(self, tmp_path):
        specs = busy_specs(3)
        cache = ResultCache(tmp_path)
        self.observed_execute(specs, cache)
        before = self.artifact_bytes(cache, specs)
        records, obs = self.observed_execute(specs, cache)
        assert all(record.cached for record in records)
        assert self.artifact_bytes(cache, specs) == before
        # The warm session still carries every run's telemetry.
        assert [run["label"] for run in obs.runs][:3] == [
            "busy-0", "busy-1", "busy-2",
        ]
        events = read_records(single_journal(tmp_path))
        assert [e["event"] for e in events].count("artifact_hit") == 3

    def test_corrupt_artifact_is_miss_and_rewritten(self, tmp_path):
        """A torn telemetry line quarantines its record: the row
        re-executes (same bytes — runs are deterministic) and the whole
        record is rewritten."""
        specs = busy_specs(3)
        cache = ResultCache(tmp_path)
        records, _ = self.observed_execute(specs, cache)
        reference_rows = [canonical_json(r.payload) for r in records]
        victim = spec_digest(specs[1])
        path = cache.path_for(victim)
        path.write_text(path.read_text().splitlines()[0] + "\n{ torn artifact")
        records, _ = self.observed_execute(specs, cache)
        assert [canonical_json(r.payload) for r in records] == reference_rows
        assert records[0].cached and records[2].cached
        assert not records[1].cached  # re-executed to backfill telemetry
        _, rebuilt = cache.get_observed(victim, "metrics")
        assert rebuilt is not None
        assert rebuilt["runs"][0]["metrics"]["busy.value"]["value"] == 1
        events = read_records(single_journal(tmp_path))
        assert [e["event"] for e in events].count("artifact_miss") == 1

    def test_unobserved_sweep_writes_no_artifacts(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute(busy_specs(3), cache=cache, supervision=quiet())
        assert len(cache) == 3
        for record in cache.entries():
            assert "obs_level" not in record
            path = cache.path_for(record["digest"])
            assert len(path.read_text().splitlines()) == 1

    def test_trace_artifacts_round_trip(self, tmp_path):
        specs = busy_specs(2)
        cache = ResultCache(tmp_path)
        _, fresh = self.observed_execute(specs, cache, level="trace")
        fresh_events = [event.to_json() for event in fresh.memory_events()]
        _, warm = self.observed_execute(specs, cache, level="trace")
        warm_events = [event.to_json() for event in warm.memory_events()]
        fresh_names = sorted(
            json.dumps(e, sort_keys=True) for e in fresh_events
        )
        warm_names = sorted(
            json.dumps(e, sort_keys=True) for e in warm_events
        )
        assert warm_names == fresh_names
