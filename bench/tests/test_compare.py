"""compare.py verdicts and exit codes."""

from __future__ import annotations

import json

import pytest

import compare

MACHINE = {"cpu_count": 2, "cpu_affinity": 2, "python": "3.11.7", "numpy": "2.4.6",
           "platform": "Linux", "machine": "x86_64", "node": "a", "git_commit": "x"}


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.2], "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "better"),
        ([10.0, 14.0, 7.0, 10.0], [10.5, 13.0, 8.0, 11.0], "unresolved"),
        # A wide spread on both sides cannot hide a change that loses
        # every comparison by more than the bound.
        ([10.0, 11.5, 9.0, 10.0], [20.0, 22.0, 19.0, 21.0], "worse"),
    ],
)
def test_timing_verdicts(parent, change, verdict):
    assert compare.judge("lower", 0.1, 0.05, parent, change)[0] == verdict


def test_absolute_floor_keeps_tiny_times_unchanged():
    assert compare.judge("lower", 0.1, 0.005, [0.010] * 4, [0.013] * 4)[0] == "unchanged"
    assert compare.judge("lower", 0.1, 0.0, [0.010] * 4, [0.013] * 4)[0] == "worse"


def test_exact_metric_with_zero_bound():
    assert compare.judge("lower", 0.0, 0.0, [0.0, 0.0], [0.0, 0.0])[0] == "unchanged"
    assert compare.judge("lower", 0.0, 0.0, [0.0, 0.0], [0.5, 0.0])[0] == "worse"
    assert compare.judge("higher", 0.1, 0.0, [2.0] * 3, [1.5] * 3)[0] == "worse"
    # Per-pass inputs differ, so an exact metric spreads on both sides.
    assert compare.judge("lower", 0.0, 0.0, [78.0, 83.0, 84.0],
                         [78.0, 83.0, 84.0])[0] == "unchanged"


def test_won_share_counts_pairs_in_order():
    _, won = compare.judge("lower", 0.1, 0.0, [10, 10, 10, 10], [9, 11, 9, 10])
    assert won == 0.5


def _document(values, seed=42, **machine):
    return {
        "machine": dict(MACHINE, **machine),
        "settings": {"seed": seed, "definitions": "d", "workloads": ["w"]},
        "workloads": {"w": {"metrics": {"wall_s": {
            "unit": "s", "better": "lower", "bound": 0.1, "floor": 0.0,
            "values": values}}}},
    }


def _main(tmp_path, parents, changes):
    paths = []
    for index, document in enumerate(parents + changes):
        path = tmp_path / f"doc{index}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    return compare.main(paths[:len(parents)] + ["--"] + paths[len(parents):])


def test_exit_codes(tmp_path, capsys):
    steady = [_document([10.0, 10.1]), _document([10.0, 9.9])]
    assert _main(tmp_path, steady, [_document([10.1, 10.0])]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert _main(tmp_path, steady, [_document([13.0, 13.1])]) == 3
    assert _main(tmp_path, steady, [_document([10.0, 10.0], cpu_count=8)]) == 2
    assert "different machines" in capsys.readouterr().err
    assert _main(tmp_path, steady, [_document([10.0, 10.0], seed=7)]) == 2


def test_a_different_host_name_or_commit_still_compares(tmp_path):
    change = _document([10.0, 10.0], node="b", git_commit="y")
    assert _main(tmp_path, [_document([10.0, 10.0])], [change]) == 0
