"""Self-describing checksums + quarantine (satellite of the failpoint
PR): a corrupt-but-parsable object is never served."""

import json

import pytest

from repro.exec.cache import ResultCache
from repro.integrity import (
    QUARANTINE_SUBDIR,
    quarantine_file,
    record_checksum,
)

DIGEST = "ab" * 32
RECORD = {
    "kind": "experiment",
    "label": "row",
    "status": "ok",
    "payload": {"admitted": 7, "rejected": 1},
    "duration_s": 0.5,
}


class TestRecordChecksum:
    def test_excludes_the_checksum_field_itself(self):
        body = {"a": 1, "b": [2, 3]}
        assert record_checksum(body) == record_checksum(
            {**body, "checksum": "stale-lie"}
        )

    def test_normalises_like_json_serialization(self):
        # A put computes the digest over live objects; a get over the
        # parsed file.  Tuples and int keys must not split them.
        assert record_checksum({"a": (1, 2), "m": {1: "x"}}) == (
            record_checksum({"a": [1, 2], "m": {"1": "x"}})
        )

    def test_value_changes_change_it(self):
        assert record_checksum({"a": 1}) != record_checksum({"a": 2})


class TestCacheQuarantine:
    def test_round_trip_verifies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, dict(RECORD))
        stored = cache.get(DIGEST)
        assert stored is not None
        assert stored["payload"] == RECORD["payload"]
        assert cache.quarantined == 0

    def test_corrupt_payload_is_quarantined_not_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, dict(RECORD))
        path = cache.path_for(DIGEST)
        record = json.loads(path.read_text())
        record["payload"]["admitted"] = 9999  # the lie
        path.write_text(json.dumps(record) + "\n")
        assert cache.get(DIGEST) is None
        assert cache.quarantined == 1
        assert not path.exists()
        evidence = list((tmp_path / QUARANTINE_SUBDIR).iterdir())
        assert len(evidence) == 1
        kept = json.loads(evidence[0].read_text())
        assert kept["payload"]["admitted"] == 9999  # preserved as-is

    def test_missing_checksum_is_treated_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        legacy = dict(RECORD, digest=DIGEST)  # no checksum field
        path.write_text(json.dumps(legacy) + "\n")
        assert cache.get(DIGEST) is None
        assert cache.quarantined == 1

    def test_requarantine_never_overwrites_evidence(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in (1, 2):
            cache.put(DIGEST, dict(RECORD))
            path = cache.path_for(DIGEST)
            record = json.loads(path.read_text())
            record["payload"]["admitted"] = value * 1000
            path.write_text(json.dumps(record) + "\n")
            assert cache.get(DIGEST) is None
        names = sorted(
            entry.name for entry in (tmp_path / QUARANTINE_SUBDIR).iterdir()
        )
        assert len(names) == 2 and names[0] != names[1]

    def test_reexecute_after_quarantine_serves_again(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, dict(RECORD))
        path = cache.path_for(DIGEST)
        record = json.loads(path.read_text())
        record["payload"]["admitted"] = 9999
        path.write_text(json.dumps(record) + "\n")
        assert cache.get(DIGEST) is None
        cache.put(DIGEST, dict(RECORD))  # the re-execution
        stored = cache.get(DIGEST)
        assert stored is not None
        assert stored["payload"] == RECORD["payload"]


class TestObsStoreQuarantine:
    def test_corrupt_artifact_is_a_quarantined_miss(self, tmp_path):
        """A run's telemetry line failing its record's ``obs_checksum``
        quarantines the whole record file."""
        cache = ResultCache(tmp_path)
        artifact = {"level": "metrics", "runs": [{"admitted": 7}]}
        path = cache.put(DIGEST, dict(RECORD), artifact)
        assert cache.get_observed(DIGEST, "metrics")[1] is not None
        head, telemetry, _ = path.read_text().split("\n")
        path.write_text(head + "\n" + telemetry.replace("7", "9999") + "\n")
        assert cache.get_observed(DIGEST, "metrics")[1] is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert list((tmp_path / QUARANTINE_SUBDIR).iterdir())


class TestQuarantineFile:
    def test_collisions_get_numeric_suffixes(self, tmp_path):
        victims = []
        for serial in range(3):
            victim = tmp_path / "evil.json"
            victim.write_text(f"{serial}\n")
            victims.append(quarantine_file(tmp_path, victim))
        names = sorted(entry.name for entry in victims)
        assert names == ["evil.json", "evil.json.1", "evil.json.2"]

    def test_failure_returns_none(self, tmp_path):
        missing = tmp_path / "never-existed.json"
        assert quarantine_file(tmp_path, missing) is None
