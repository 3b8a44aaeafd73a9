"""Tests for the content-addressed result cache: one record per run.

``TestOneRecordLayout`` drives observed sweeps through ``execute`` to
pin how a record's telemetry line is served, missed and rewritten at
each obs level.
"""

from __future__ import annotations

import json

import pytest

from repro.exec import (
    ResultCache,
    RunSpec,
    Supervision,
    cache_status_rows,
    execute,
    resolve_cache_dir,
)
from repro.exec.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.exec.spec import register_kind, spec_digest
from repro.integrity import QUARANTINE_SUBDIR
from repro.obs import Observability

DIGEST_A = "ab" + "0" * 62
DIGEST_B = "cd" + "1" * 62


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(DIGEST_A, {"kind": "experiment", "payload": {"x": 1},
                             "status": "ok", "duration_s": 0.5})
        record = cache.get(DIGEST_A)
        assert record["payload"] == {"x": 1}
        assert record["digest"] == DIGEST_A
        assert "created_at" in record
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(DIGEST_A) is None
        assert cache.misses == 1

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(DIGEST_A, {"payload": {}})
        assert path.parent.name == DIGEST_A[:2]
        assert path.name == f"{DIGEST_A}.json"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(DIGEST_A)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(DIGEST_A) is None

    def test_digest_mismatch_is_a_miss(self, tmp_path):
        """An entry stored under the wrong name is never served."""
        cache = ResultCache(tmp_path)
        path = cache.path_for(DIGEST_A)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"digest": DIGEST_B, "payload": {}}))
        assert cache.get(DIGEST_A) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST_A, {"payload": {}})
        leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_len_and_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(DIGEST_A, {"kind": "experiment", "payload": {}})
        cache.put(DIGEST_B, {"kind": "mixed_media", "payload": {}})
        assert len(cache) == 2
        kinds = sorted(record["kind"] for record in cache.entries())
        assert kinds == ["experiment", "mixed_media"]

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST_A, {"payload": {}})
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_obs_artifacts_are_not_records(self, tmp_path):
        """A record's telemetry line is part of its one file: it is
        neither a second entry nor listed, and ``clear`` removes it
        with the record."""
        cache = ResultCache(tmp_path)
        cache.put(DIGEST_A, {"kind": "experiment", "payload": {}},
                  {"level": "metrics", "runs": [{"label": "a"}]})
        cache.put(DIGEST_B, {"kind": "experiment", "payload": {}})
        assert len(cache) == 2
        assert [record["digest"] for record in cache.entries()] == [
            DIGEST_A, DIGEST_B,
        ]
        assert [row["runs"] for row in cache_status_rows(cache)] == [2]
        assert sorted(p.name for p in (tmp_path / "objects").rglob("*.*")) == [
            f"{DIGEST_A}.json", f"{DIGEST_B}.json",
        ]
        assert cache.clear() == 2
        assert list((tmp_path / "objects").rglob("*.*")) == []

    def test_status_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST_A, {"kind": "experiment", "payload": {},
                             "duration_s": 1.25})
        cache.put(DIGEST_B, {"kind": "experiment", "payload": {},
                             "duration_s": 0.75})
        rows = cache_status_rows(cache)
        assert rows == [
            {"kind": "experiment", "runs": 2, "sim_seconds_banked": 2.0,
             "newest_age_s": rows[0]["newest_age_s"]}
        ]
        assert rows[0]["newest_age_s"] < 60.0


class TestResolveCacheDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "flag") == tmp_path / "flag"

    def test_environment_next(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default_last(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(resolve_cache_dir(None)) == DEFAULT_CACHE_DIR


@register_kind("_layout")
def _layout_kind(spec, obs=None):
    """Deterministic payload, plus a counter and a trace instant when
    observed."""
    value = spec.params["value"]
    run = obs.begin_run(spec.describe()) if obs is not None else None
    if run is not None:
        run.registry.counter("layout.value").inc(value)
        if run.tracer is not None:
            run.tracer.instant("test", "layout", 0.0, value=value)
        obs.finish_run(run)
    return {"value": value}


SPECS = [
    RunSpec(kind="_layout", params={"value": n}, label=f"layout-{n}")
    for n in (1, 2)
]


class TestOneRecordLayout:
    """Each settled run is one file: line 1 the record, line 2 (only
    for a captured run) its telemetry, checked by ``obs_checksum``."""

    @staticmethod
    def sweep(cache, level="off"):
        obs = Observability(level=level) if level != "off" else None
        return execute(
            SPECS, cache=cache, obs=obs,
            supervision=Supervision(handle_signals=False, max_attempts=1),
        )

    @staticmethod
    def lines(cache, spec):
        return cache.path_for(spec_digest(spec)).read_text().splitlines()

    @staticmethod
    def rewrite(cache, spec, lines):
        cache.path_for(spec_digest(spec)).write_text("\n".join(lines) + "\n")

    @staticmethod
    def quarantined(cache):
        quarantine = cache.root / QUARANTINE_SUBDIR
        return len(list(quarantine.iterdir())) if quarantine.is_dir() else 0

    @pytest.mark.parametrize("level", ["metrics", "trace"])
    def test_one_file_per_settled_digest(self, tmp_path, level):
        cache = ResultCache(tmp_path)
        self.sweep(cache, level)
        files = sorted((tmp_path / "objects").rglob("*"))
        files = [path for path in files if path.is_file()]
        assert [path.name for path in files] == sorted(
            f"{spec_digest(spec)}.json" for spec in SPECS
        )
        assert not list(tmp_path.rglob("*.obs.*"))
        for spec in SPECS:
            record, telemetry = map(json.loads, self.lines(cache, spec))
            assert record["obs_level"] == level
            assert ("trace" in telemetry) == (level == "trace")

    def test_unobserved_hit_parses_line_one_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.sweep(cache, "metrics")
        for spec in SPECS:
            self.rewrite(cache, spec, [self.lines(cache, spec)[0], "garbage{"])
        assert all(record.cached for record in self.sweep(cache))
        assert self.quarantined(cache) == 0

    def test_flipped_telemetry_line_quarantined_only_when_observed(
        self, tmp_path
    ):
        """Still-valid JSON with a flipped value: served at ``off``,
        quarantined and re-executed at ``metrics``."""
        cache = ResultCache(tmp_path)
        reference = [record.payload for record in self.sweep(cache, "metrics")]
        head, telemetry = self.lines(cache, SPECS[0])
        flipped = telemetry.replace('"value":1', '"value":7')
        assert flipped != telemetry and json.loads(flipped)
        self.rewrite(cache, SPECS[0], [head, flipped])
        assert all(record.cached for record in self.sweep(cache))
        assert self.quarantined(cache) == 0
        records = self.sweep(cache, "metrics")
        assert [record.cached for record in records] == [False, True]
        assert [record.payload for record in records] == reference
        assert self.quarantined(cache) == 1
        assert self.lines(cache, SPECS[0])[1] == telemetry

    @pytest.mark.parametrize("level", ["off", "metrics", "trace"])
    def test_flipped_record_line_quarantined_at_every_level(
        self, tmp_path, level
    ):
        cache = ResultCache(tmp_path)
        self.sweep(cache, "trace")
        head, telemetry = self.lines(cache, SPECS[0])
        record = json.loads(head)
        record["payload"]["value"] = 7  # the checksum now lies
        self.rewrite(cache, SPECS[0], [json.dumps(record), telemetry])
        records = self.sweep(cache, level)
        assert [record.cached for record in records] == [False, True]
        assert records[0].payload == {"value": 1}
        assert self.quarantined(cache) == 1

    def test_torn_telemetry_line_is_a_miss_at_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.sweep(cache, "metrics")
        head, telemetry = self.lines(cache, SPECS[0])
        self.rewrite(cache, SPECS[0], [head, telemetry[: len(telemetry) // 2]])
        records = self.sweep(cache, "metrics")
        assert [record.cached for record in records] == [False, True]
        assert self.quarantined(cache) == 1

    def test_metrics_record_read_at_trace_reexecutes(self, tmp_path):
        cache = ResultCache(tmp_path)
        payloads = [record.payload for record in self.sweep(cache, "metrics")]
        records = self.sweep(cache, "trace")
        assert not any(record.cached for record in records)
        assert [record.payload for record in records] == payloads
        for spec in SPECS:
            record, telemetry = map(json.loads, self.lines(cache, spec))
            assert record["obs_level"] == "trace"
            assert any(
                event.get("name") == "layout" for event in telemetry["trace"]
            )
        assert self.quarantined(cache) == 0

    def test_trace_record_read_at_metrics_is_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.sweep(cache, "trace")
        before = [self.lines(cache, spec) for spec in SPECS]
        assert all(record.cached for record in self.sweep(cache, "metrics"))
        assert [self.lines(cache, spec) for spec in SPECS] == before
