"""The open-workload smoke runs, driven through the ``repro`` entry
point under the strict sanitizer.

A small Poisson run with every shaping feature on, and the bursty MMPP
path on VDR: the sanitizer proves that deadline cancellation releases
resources cleanly (half-slot accounting, substream non-reuse).  The
operating-curve grid runs twice on one cache at ``--jobs 2``; the warm
pass must serve from the cache and write identical rows.
"""

from __future__ import annotations

import json

from repro.cli import main


def test_shaped_poisson_run_reports_an_open_row(tmp_path):
    output = tmp_path / "open-run.json"
    assert main([
        "run", "--scale", "50", "--technique", "staggered",
        "--arrival", "poisson", "--rate", "0.05", "--zipf-s", "0.8",
        "--deadline", "25",
        "--diurnal-period", "400", "--diurnal-amplitude", "0.4",
        "--burst-at", "150", "--burst-duration", "60", "--burst-factor", "2",
        "--burst-hotspot", "0.5",
        "--no-cache", "--sanitize", "strict", "--output", str(output),
    ]) == 0
    [row] = json.loads(output.read_text())
    assert row["arrival"] == "poisson", row
    assert row["offered"] > 0, row
    assert 0.0 <= row["blocking_probability"] <= 1.0, row


def test_mmpp_run_on_vdr_is_sanitizer_clean():
    assert main([
        "run", "--scale", "50", "--technique", "vdr",
        "--arrival", "mmpp", "--mmpp-rates", "0.01", "0.1",
        "--mmpp-sojourn", "150", "50", "--deadline", "25",
        "--no-cache", "--sanitize", "strict",
    ]) == 0


def test_warm_grid_rows_equal_the_cold_ones(tmp_path):
    cache = tmp_path / "ow-cache"

    def grid(name):
        output = tmp_path / name
        assert main([
            "open-workload", "--scale", "50", "--jobs", "2",
            "--cache-dir", str(cache), "--output", str(output),
        ]) == 0
        return output.read_bytes()

    assert grid("ow-cold.csv") == grid("ow-warm.csv")
