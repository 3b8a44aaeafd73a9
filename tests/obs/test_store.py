"""Unit tests for a run's stored telemetry: the second line of its
cache record (``ResultCache.put`` / ``ResultCache.get_observed``), and
the capture that produces it (``supervisor._run_captured``)."""

from __future__ import annotations

import json

from repro import failpoints, integrity
from repro.exec.cache import ResultCache
from repro.exec.hashing import canonical_json
from repro.exec.spec import RunSpec, register_kind, run_spec
from repro.exec.supervisor import _run_captured
from repro.integrity import QUARANTINE_SUBDIR

DIGEST = "ab" + "0" * 62
RECORD = {"kind": "experiment", "status": "ok", "payload": {"x": 1}}


def sample_runs():
    return [
        {
            "label": "run-a",
            "index": 0,
            "profile": {"simulate": 0.5},
            "metrics": {"disk.reads": {"type": "counter", "value": 7}},
        }
    ]


def artifact(level="metrics", trace=None):
    return {"level": level, "runs": sample_runs(), "trace": trace}


@register_kind("_observed")
def _observed_kind(spec, obs=None):
    """A kind that records deterministic telemetry when observed."""
    value = spec.params["value"]
    run = obs.begin_run(spec.describe()) if obs is not None else None
    if run is not None:
        run.registry.counter("observed.value").inc(value)
        if run.tracer is not None:
            run.tracer.instant("test", "observed", 0.0, value=value)
        obs.finish_run(run)
    return {"value": value, "cube": value**3}


def lines(cache):
    return cache.path_for(DIGEST).read_text().splitlines()


def quarantined(root):
    return list((root / QUARANTINE_SUBDIR).glob("*"))


class TestStoreRoundTrip:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_observed(DIGEST, "metrics") == (None, None)
        cache.put(DIGEST, RECORD, artifact())
        record, telemetry = cache.get_observed(DIGEST, "metrics")
        assert record == cache.get(DIGEST)
        assert record["payload"] == {"x": 1}
        assert record["obs_level"] == "metrics"
        assert telemetry == {"runs": sample_runs(), "trace": None}
        assert cache.misses == 1 and cache.hits == 2

    def test_shares_cache_sharding(self, tmp_path):
        """Telemetry is line 2 of the record's own file, checked by the
        record's ``obs_checksum``; there is no second file."""
        cache = ResultCache(tmp_path)
        path = cache.put(DIGEST, RECORD, artifact())
        assert path == tmp_path / "objects" / DIGEST[:2] / f"{DIGEST}.json"
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        head, line = lines(cache)
        assert json.loads(line) == {"runs": sample_runs()}
        assert "obs_checksum" in json.loads(head)

    def test_trace_level_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = [{"t": 0.0, "kind": "test", "name": "x", "ph": "i"}]
        cache.put(DIGEST, RECORD, artifact("trace", trace))
        assert cache.get_observed(DIGEST, "trace")[1]["trace"] == trace
        # A trace record serves a metrics plan, without its trace.
        assert cache.get_observed(DIGEST, "metrics")[1]["trace"] is None


class TestCorruptIsMiss:
    """A record's telemetry is served only when line 2 verifies."""

    def test_corrupt_json(self, tmp_path):
        """A torn telemetry line is a quarantined miss."""
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, RECORD, artifact())
        head, line = lines(cache)
        cache.path_for(DIGEST).write_text(head + "\n" + line[:20])
        record, telemetry = cache.get_observed(DIGEST, "metrics")
        assert record is not None and telemetry is None
        assert cache.quarantined == 1 and len(quarantined(tmp_path)) == 1

    def test_digest_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, RECORD, artifact())
        other = "f" * 64
        cache.path_for(other).parent.mkdir(parents=True)
        cache.path_for(DIGEST).rename(cache.path_for(other))
        assert cache.get_observed(other, "metrics") == (None, None)

    def test_wrong_schema(self, tmp_path):
        """A record written without telemetry has none to serve: a miss
        to re-execute, not corruption to quarantine."""
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, RECORD)
        record, telemetry = cache.get_observed(DIGEST, "metrics")
        assert "obs_level" not in record and telemetry is None
        assert cache.quarantined == 0 and cache.path_for(DIGEST).exists()

    def test_trace_level_requires_sidecar(self, tmp_path):
        """A record captured at metrics level does not satisfy a
        trace-level reader; its rewrite at trace level does."""
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, RECORD, artifact("metrics"))
        assert cache.get_observed(DIGEST, "trace")[1] is None
        assert cache.quarantined == 0
        cache.put(DIGEST, RECORD, artifact("trace", [{"t": 0.0, "name": "x"}]))
        assert cache.get_observed(DIGEST, "trace")[1]["trace"] == [
            {"t": 0.0, "name": "x"}
        ]

    def test_rewrite_after_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, RECORD, artifact())
        cache.path_for(DIGEST).write_text("garbage")
        assert cache.get_observed(DIGEST, "metrics") == (None, None)
        cache.put(DIGEST, RECORD, artifact())
        assert cache.get_observed(DIGEST, "metrics")[1]["runs"] == sample_runs()

    def test_unwritable_store_never_raises(self, tmp_path, capsys):
        """A full disk drops the record and its telemetry together,
        with the cache's one warning: a miss, backfilled later."""
        integrity.reset_warnings()
        failpoints.install("cache.write.pre_rename=enospc")
        try:
            cache = ResultCache(tmp_path)
            cache.put(DIGEST, RECORD, artifact())  # must not raise
        finally:
            failpoints.install("")
        assert cache.disabled
        assert cache.get_observed(DIGEST, "metrics") == (None, None)
        assert capsys.readouterr().err.count("result cache degraded") == 1
        assert not list(tmp_path.rglob("*.tmp"))


class TestCaptureRun:
    def spec(self, value=3):
        return RunSpec(kind="_observed", params={"value": value})

    def test_payload_byte_identical_to_unobserved(self):
        """The telemetry contract, exercised through the capture:
        observing a run cannot change its payload."""
        payload, captured = _run_captured(self.spec(), "metrics")
        assert canonical_json(payload) == canonical_json(
            run_spec(self.spec())
        )
        assert captured["level"] == "metrics"
        assert len(captured["runs"]) == 1
        metrics = captured["runs"][0]["metrics"]
        assert metrics["observed.value"]["value"] == 3
        assert captured["trace"] is None  # metrics level records no trace

    def test_trace_capture(self):
        payload, captured = _run_captured(self.spec(5), "trace")
        assert payload["cube"] == 125
        assert any(event.get("name") == "observed" for event in captured["trace"])

    def test_store_integration(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload, captured = _run_captured(self.spec(), "metrics")
        cache.put(DIGEST, {"payload": payload}, captured)
        record, telemetry = cache.get_observed(DIGEST, "metrics")
        assert record["payload"] == payload
        assert telemetry["runs"] == captured["runs"]
