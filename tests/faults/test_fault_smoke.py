"""The fault-injection smoke runs, driven through the CLI.

One scripted drive failure on a small staggered array with mirrored
redundancy and an online rebuild: the run must report the failure,
serve degraded reads from the mirror while the drive is down, and
repair and fully rebuild the drive before it ends.  It runs under the
strict sanitizer, and the staggered scan pass takes the claim verdicts
(:mod:`repro.core.batch`) around the failure.

The availability grid (``repro faults``) runs on two workers into a
result cache, then again from that warm cache: both must succeed and
print the same rows.
"""

from __future__ import annotations

import json

from repro.cli import main


def test_scripted_failure_is_repaired_and_rebuilt_online(tmp_path):
    output = tmp_path / "fault-run.json"
    assert main([
        "run", "--scale", "50", "--technique", "staggered",
        "--stations", "2", "--mean", "0.2", "--fail-at", "3:100",
        "--mttr", "40", "--redundancy", "mirror", "--rebuild-rate", "2",
        "--no-cache", "--sanitize", "strict", "--output", str(output),
    ]) == 0
    [row] = json.loads(output.read_text())
    assert row["fault_failures"] == 1, row
    assert row["fault_degraded_intervals"] > 0, row
    # Clean online rebuild: the one failed drive was repaired and its
    # data fully restored during the run.
    assert row["fault_repairs"] == 1, row
    assert row["fault_rebuilds_completed"] == 1, row


def test_warm_faults_grid_rows_equal_the_cold_ones(tmp_path):
    cache = tmp_path / "faults-cache"

    def grid(name):
        output = tmp_path / name
        assert main([
            "faults", "--scale", "50", "--values", "300", "--jobs", "2",
            "--cache-dir", str(cache), "--output", str(output),
        ]) == 0
        return output.read_bytes()

    cold = grid("faults-cold.csv")
    assert cold.count(b"\n") == 10  # header + 3 techniques x 3 schemes
    assert grid("faults-warm.csv") == cold
