"""Unit tests for the content-addressed result cache."""

from __future__ import annotations

import json
import os

from repro.exec import ResultCache, cache_status_rows, resolve_cache_dir
from repro.exec.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

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
        """Telemetry stored beside a record (``<digest>.obs.json`` and
        its trace sidecar) is neither counted, sized nor listed as a
        run, but ``clear`` removes it with the records."""
        cache = ResultCache(tmp_path)
        for digest in (DIGEST_A, DIGEST_B):
            cache.put(digest, {"kind": "experiment", "payload": {}})
        record_bytes = cache.size_bytes()
        shard = cache.path_for(DIGEST_A).parent
        (shard / f"{DIGEST_A}.obs.json").write_text('{"runs": []}\n')
        (shard / f"{DIGEST_A}.obs.trace.jsonl").write_text("{}\n")
        assert len(cache) == 2
        assert cache.size_bytes() == record_bytes
        assert [record["digest"] for record in cache.entries()] == [
            DIGEST_A, DIGEST_B,
        ]
        assert [row["kind"] for row in cache_status_rows(cache)] == [
            "experiment"
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
