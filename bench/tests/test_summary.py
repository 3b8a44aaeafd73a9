"""The value a run reports weighs every input set alike."""

from __future__ import annotations

import pytest

import run


def _passes(*pairs):
    return [{"inputs": inputs, "metrics": {"sim_s": value}} for inputs, value in pairs]


def test_suite_value_is_the_mean_of_each_input_sets_median():
    # Input set 0 costs 1.0 and set 1 costs 2.0, with one noisy pass.
    passes = _passes((0, 1.0), (1, 2.0), (0, 1.0), (1, 2.0), (0, 1.4))
    assert run.suite_value(passes, "sim_s") == pytest.approx((1.0 + 2.0) / 2)


def test_suite_value_does_not_depend_on_the_starting_input_set():
    # A run one pass longer than the suite sees its first set twice.
    costs = {i: 1.0 + 0.1 * i * i for i in range(run.INPUT_SETS)}
    values = set()
    for seed in range(run.INPUT_SETS):
        inputs = [run.pass_inputs(seed, index) for index in range(run.INPUT_SETS + 1)]
        values.add(round(run.suite_value(_passes(*((i, costs[i]) for i in inputs)),
                                         "sim_s"), 12))
    assert values == {round(sum(costs.values()) / len(costs), 12)}


def test_passes_without_the_metric_are_skipped():
    passes = _passes((0, 3.0)) + [{"inputs": 1, "metrics": {}}]
    assert run.suite_value(passes, "sim_s") == 3.0
