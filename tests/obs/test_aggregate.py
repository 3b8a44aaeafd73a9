"""Unit tests for cross-run aggregation and diffing (repro.obs.aggregate)."""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.journal import journal_root, journal_status_rows
from repro.integrity import record_checksum
from repro.obs.aggregate import (
    DIFF_SCHEMA,
    diff_metrics,
    flatten_rows,
    flatten_runs,
    load_metrics_source,
    render_diff,
)


def run_snapshot(label, value, points=None):
    return {
        "label": label,
        "index": 0,
        "profile": {"simulate": 1.25, "validate": 0.5},
        "metrics": {
            "disk.reads": {"type": "counter", "value": value},
            "queue.depth": {
                "type": "series",
                "mean": value / 2,
                "p50": 1.0,
                "p90": 2.0,
                "p99": 3.0,
                "min": 0.0,
                "max": 4.0,
                "seen": 100,
                "stride": 1,
                "points": points or [[0, 1], [1, 2]],
            },
        },
    }


class TestFlattenRuns:
    def test_numeric_leaves_keyed_by_label(self):
        flat = flatten_runs([run_snapshot("run-a", 10)])
        assert flat["run-a/disk.reads.value"] == 10
        assert flat["run-a/queue.depth.mean"] == 5.0
        assert flat["run-a/queue.depth.p99"] == 3.0

    def test_vector_fields_excluded(self):
        flat = flatten_runs([run_snapshot("run-a", 10)])
        assert not any("points" in key for key in flat)

    def test_profile_excluded_by_default(self):
        flat = flatten_runs([run_snapshot("run-a", 10)])
        assert not any("profile" in key for key in flat)
        with_profile = flatten_runs(
            [run_snapshot("run-a", 10)], include_profile=True
        )
        assert with_profile["run-a/profile.simulate"] == 1.25

    def test_exec_run_skipped_by_default(self):
        """The executor's own observation tallies host wall-clock —
        noise between byte-identical sweeps."""
        runs = [run_snapshot("sweep-exec[3 runs]", 9), run_snapshot("r", 1)]
        flat = flatten_runs(runs)
        assert not any(key.startswith("sweep-exec[") for key in flat)
        assert flatten_runs(runs, include_exec=True) != flat

    def test_duplicate_labels_disambiguated(self):
        runs = [run_snapshot("r", 1), run_snapshot("r", 2)]
        flat = flatten_runs(runs)
        assert flat["r/disk.reads.value"] == 1
        assert flat["r#1/disk.reads.value"] == 2


class TestFlattenOtherSources:
    def test_rows(self):
        rows = [
            {"level": "metrics", "overhead_pct": 1.5, "cpu_seconds": 2.0},
            {"level": "trace", "overhead_pct": 4.0, "cpu_seconds": 2.1},
        ]
        flat = flatten_rows(rows)
        assert flat["row.metrics.overhead_pct"] == 1.5
        assert flat["row.trace.cpu_seconds"] == 2.1


def source(metrics, label="x", kind="test"):
    return {"label": label, "kind": kind, "metrics": metrics}


class TestDiff:
    def test_zero_delta(self):
        a = source({"m.value": 1.0, "n.value": 2.0})
        diff = diff_metrics(a, dict(a))
        assert diff["schema"] == DIFF_SCHEMA
        assert diff["compared"] == 2
        assert diff["changed"] == 0
        assert diff["breaches"] == 0

    def test_any_change_breaches_at_default_threshold(self):
        diff = diff_metrics(
            source({"m": 100.0}), source({"m": 100.0001})
        )
        assert diff["breaches"] == 1
        row = diff["rows"][0]
        assert row["delta"] == pytest.approx(0.0001)
        assert row["breach"]

    def test_relative_threshold(self):
        a = source({"m": 100.0, "n": 100.0})
        b = source({"m": 104.0, "n": 120.0})
        diff = diff_metrics(a, b, threshold=0.05)
        by_key = {row["key"]: row for row in diff["rows"]}
        assert not by_key["m"]["breach"]  # 4% < 5%
        assert by_key["n"]["breach"]  # ~16.7% > 5%
        assert diff["breaches"] == 1

    def test_min_abs_suppresses_tiny_deltas(self):
        diff = diff_metrics(
            source({"m": 0.0}), source({"m": 1e-9}), min_abs=1e-6
        )
        assert diff["changed"] == 1
        assert diff["breaches"] == 0

    def test_only_glob(self):
        a = source({"bench.x.speedup": 2.0, "bench.x.median_s": 0.5})
        b = source({"bench.x.speedup": 2.0, "bench.x.median_s": 0.9})
        diff = diff_metrics(a, b, only="*.speedup")
        assert diff["compared"] == 1
        assert diff["breaches"] == 0

    def test_direction_gates_breach_sign(self):
        """A speedup gate (`--direction decrease`) must not fail on
        improvements."""
        faster = diff_metrics(
            source({"speedup": 1.5}), source({"speedup": 2.0}),
            direction="decrease",
        )
        assert faster["changed"] == 1 and faster["breaches"] == 0
        slower = diff_metrics(
            source({"speedup": 1.5}), source({"speedup": 1.0}),
            direction="decrease",
        )
        assert slower["breaches"] == 1
        assert diff_metrics(
            source({"speedup": 1.5}), source({"speedup": 2.0}),
            direction="increase",
        )["breaches"] == 1
        with pytest.raises(ConfigurationError, match="direction"):
            diff_metrics(source({"m": 1.0}), source({"m": 1.0}),
                         direction="sideways")

    def test_added_and_removed_reported_not_breaching(self):
        diff = diff_metrics(
            source({"old": 1.0, "both": 2.0}),
            source({"new": 1.0, "both": 2.0}),
        )
        assert diff["added"] == ["new"]
        assert diff["removed"] == ["old"]
        assert diff["breaches"] == 0


class TestRender:
    def diff(self):
        return diff_metrics(source({"m": 1.0, "k": 5.0}), source({"m": 2.0, "k": 5.0}))

    def test_table(self):
        text = render_diff(self.diff(), "table")
        assert "BREACH" in text
        assert "1 breach(es)" in text
        assert "k" not in text.splitlines()[1]  # unchanged rows hidden

    def test_table_all_rows(self):
        text = render_diff(self.diff(), "table", all_rows=True)
        assert any(line.startswith("k") for line in text.splitlines())

    def test_markdown(self):
        text = render_diff(self.diff(), "markdown")
        assert text.startswith("| metric |")
        assert "| m |" in text

    def test_json_round_trips(self):
        document = json.loads(render_diff(self.diff(), "json"))
        assert document["schema"] == DIFF_SCHEMA
        assert document["breaches"] == 1


class TestLoadSource:
    def test_metrics_document(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps({"level": "metrics", "runs": [run_snapshot("r", 3)]})
        )
        loaded = load_metrics_source(path)
        assert loaded["kind"] == "metrics-document"
        assert loaded["metrics"]["r/disk.reads.value"] == 3

    def test_obs_artifact(self, tmp_path):
        """A cache record carrying telemetry is read through its
        second line."""
        path = ResultCache(tmp_path).put(
            "d" * 64,
            {"kind": "experiment", "payload": {}},
            {"level": "metrics", "runs": [run_snapshot("r", 4)]},
        )
        loaded = load_metrics_source(path)
        assert loaded["kind"] == "cache-record"
        assert loaded["metrics"]["r/disk.reads.value"] == 4

    def test_rows_list(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([{"level": "metrics", "pct": 2.5}]))
        loaded = load_metrics_source(path)
        assert loaded["kind"] == "rows"
        assert loaded["metrics"]["row.metrics.pct"] == 2.5

    def test_missing_json_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_metrics_source(tmp_path / "nope.json")

    def test_sweep_id_requires_cache(self):
        with pytest.raises(ConfigurationError, match="cache"):
            load_metrics_source("abcd1234")

    def test_unrecognised_document(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigurationError, match="unrecognised"):
            load_metrics_source(path)


@pytest.fixture(scope="module")
def two_sweeps(tmp_path_factory):
    """The same small metrics sweep run into two separate caches."""
    root = tmp_path_factory.mktemp("obs-diff")
    for side in ("a", "b"):
        assert main([
            "sweep", "--scale", "20", "--values", "4", "8", "12",
            "--obs-level", "metrics",
            "--cache-dir", str(root / f"cache-{side}"),
            "--output", str(root / f"rows-{side}.json"),
        ]) == 0
    sweep_id = journal_status_rows(journal_root(root / "cache-a"))[0]["sweep_id"]
    return root, sweep_id


def obs_diff(sweep_id, cache_a, cache_b):
    return main([
        "obs-diff", sweep_id, sweep_id,
        "--cache-dir", str(cache_a), "--cache-dir-b", str(cache_b),
    ])


class TestObsDiffCli:
    """The telemetry determinism gate through ``repro obs-diff``."""

    def test_rows_identical_across_caches(self, two_sweeps):
        root, _ = two_sweeps
        assert (root / "rows-a.json").read_bytes() == (
            root / "rows-b.json"
        ).read_bytes()

    def test_same_sweep_across_caches_diffs_to_zero(self, two_sweeps, capsys):
        root, sweep_id = two_sweeps
        assert obs_diff(sweep_id, root / "cache-a", root / "cache-b") == 0
        assert "0 changed, 0 breach(es)" in capsys.readouterr().out

    def test_perturbed_artifact_exits_3(self, two_sweeps, tmp_path):
        root, sweep_id = two_sweeps
        perturbed = tmp_path / "cache-b"
        shutil.copytree(root / "cache-b", perturbed)
        path = next((perturbed / "objects").glob("*/*.json"))
        head, line = path.read_text().splitlines()
        record, telemetry = json.loads(head), json.loads(line)
        metric = next(
            metric
            for metric in telemetry["runs"][0]["metrics"].values()
            if "value" in metric
        )
        metric["value"] += 7
        # Re-seal: a record failing its checksums is quarantined as a
        # miss, not diffed.
        line = json.dumps(telemetry, separators=(",", ":"))
        record["obs_checksum"] = hashlib.sha256(line.encode()).hexdigest()
        record["checksum"] = record_checksum(record)
        path.write_text(json.dumps(record) + "\n" + line + "\n")
        assert obs_diff(sweep_id, root / "cache-a", perturbed) == 3

    def test_missing_artifact_exits_3(self, two_sweeps, tmp_path, capsys):
        root, sweep_id = two_sweeps
        pruned = tmp_path / "cache-b"
        shutil.copytree(root / "cache-b", pruned)
        next((pruned / "objects").glob("*/*.json")).unlink()
        assert obs_diff(sweep_id, root / "cache-a", pruned) == 3
        out = capsys.readouterr().out
        assert "1 breach(es)" in out
        assert "1 artifact(s) missing in B" in out
