"""BENCHMARK.json describes exactly what bench/run.py reports."""

from __future__ import annotations

import json
import re
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

DOCUMENT = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_command():
    assert set(DOCUMENT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DOCUMENT["command"] == ["python3", "bench/run.py"]
    assert DOCUMENT["paths"] == ["bench"]
    assert 1 <= DOCUMENT["run_seconds"] <= 60


def test_names_units_and_counts():
    entries = DOCUMENT["workloads"] + DOCUMENT["end_to_end"] + DOCUMENT["per_layer"]
    names = [entry["name"] for entry in entries]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(DOCUMENT["workloads"]) <= 8
    assert 1 <= len(DOCUMENT["end_to_end"]) <= 16
    assert 1 <= len(DOCUMENT["per_layer"]) <= 128
    for entry in DOCUMENT["end_to_end"] + DOCUMENT["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in DOCUMENT["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200


def test_workloads_match_the_benchmark():
    assert {e["name"]: e["why"] for e in DOCUMENT["workloads"]} == WORKLOADS


def test_end_to_end_metrics_match_the_benchmark():
    listed = {entry["name"]: entry for entry in DOCUMENT["end_to_end"]}
    assert tuple(listed) == run.DRIVER_METRICS
    for name, entry in listed.items():
        metric = run.METRIC_BY_NAME[name]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound)
        assert 0 < entry["bound"] <= 0.25
    setup = listed["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in listed.values())


def test_expected_digests_cover_every_input_set():
    digests = json.loads((Path(run.BENCH) / "expected.json").read_text())["digests"]
    for name in WORKLOADS:
        inputs = {key.split("/")[1] for key in digests if key.startswith(name + "/")}
        assert inputs == {str(index) for index in range(run.INPUT_SETS)}, name


def test_layer_metrics_match_the_benchmark():
    listed = {entry["name"]: (entry["unit"], entry["better"])
              for entry in DOCUMENT["per_layer"]}
    assert listed == layers.metric_definitions()
    assert all(set(entry) == {"name", "unit", "better"}
               for entry in DOCUMENT["per_layer"])


def test_every_layer_names_a_metric_and_workload_that_exist():
    for layer in layers.LAYERS:
        assert layer.moves and layer.workloads, layer.name
        for metric in layer.moves:
            assert metric in run.METRIC_BY_NAME, (layer.name, metric)
            assert set(layer.workloads) & set(run.METRIC_BY_NAME[metric].workloads)
        assert set(layer.workloads) <= set(WORKLOADS), layer.name
