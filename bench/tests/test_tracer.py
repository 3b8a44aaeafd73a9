"""Span arithmetic, wrapper restoration, and traced ≡ untraced results."""

from __future__ import annotations

import inspect
import multiprocessing
import sys

import pytest

import layers
import workloads
from tracer import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def advance_to(moment):
        clock.now = moment

    def inner(until):
        advance_to(until)

    def middle():           # 1 .. 7, with inner 2 .. 5
        advance_to(2.0)
        traced_inner(5.0)
        advance_to(7.0)

    def outer():            # 0 .. 10, with middle 1 .. 7 and inner 8 .. 9
        advance_to(1.0)
        traced_middle()
        advance_to(8.0)
        traced_inner(9.0)
        advance_to(10.0)

    traced_inner = tracer.wrap("inner", inner)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()
    table = tracer.layer_table()
    assert table["outer"]["self_s"] == pytest.approx(10 - 6 - 1)
    assert table["middle"]["self_s"] == pytest.approx(6 - 3)
    assert table["inner"] == {"calls": 2, "self_s": pytest.approx(4.0),
                              "main_self_s": pytest.approx(4.0)}
    assert tracer.main_top_s == pytest.approx(10.0)
    parents = {span[2]: span[1] for span in tracer.spans if span[2] != "inner"}
    outer_id = next(s[0] for s in tracer.spans if s[2] == "outer")
    assert parents["outer"] == 0 and parents["middle"] == outer_id


def test_generator_wrapper_times_each_next():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce():
        for item in range(3):
            clock.now += 2.0  # the wait the consumer sees
            yield item

    consumed = []
    for item in tracer.wrap_generator("wait", produce)():
        consumed.append(item)
        clock.now += 1.0  # consumer work, outside the span
    assert consumed == [0, 1, 2]
    assert tracer.layer_table()["wait"]["calls"] == 4  # 3 items + exhaustion
    assert tracer.layer_table()["wait"]["self_s"] == pytest.approx(6.0)


def _repro_attributes():
    """Identity snapshot of every repro module attribute and every
    attribute defined on a repro class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            snapshot[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snapshot[(name, key, attr)] = member
    return snapshot


def _assert_restored(before):
    after = _repro_attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def _scale50_cells():
    from repro.simulation.config import ScaledConfig

    base = ScaledConfig(scale=50, technique="staggered", num_stations=6,
                        access_mean=43.5 / 50, warmup_intervals=30,
                        measure_intervals=300)
    rate = 0.8 * (base.num_disks / base.degree) / base.display_time
    return [
        ("closed", base),
        ("open", base.with_(arrival="poisson", arrival_rate=rate,
                            deadline_intervals=25)),
    ]


def test_traced_pass_restores_wrappers_and_matches_untraced():
    with Tracer().installed(layers.install):
        pass  # imports every layer module before the snapshot
    from repro.simulation import runner
    from repro.simulation.engine import IntervalEngine

    original_run = IntervalEngine.run
    original_build = runner.build_engine
    with workloads.NormalisedClock() as clock:
        plain = workloads.simulate("unit", _scale50_cells(), clock)
    before = _repro_attributes()
    tracer = Tracer()
    with tracer.installed(layers.install), workloads.NormalisedClock() as clock:
        assert IntervalEngine.run is not original_run
        traced = workloads.simulate("unit", _scale50_cells(), clock, tracer)
    _assert_restored(before)
    assert IntervalEngine.run is original_run
    assert runner.build_engine is original_build
    assert plain.failures == traced.failures == []
    assert traced.digests == plain.digests
    table = tracer.layer_table()
    assert table["setup.engine"]["calls"] == 2
    assert table["engine.run"]["calls"] == 2
    # The open engine binds its step on the instance; it is traced too.
    assert table["engine.step"]["calls"] == 2 * (30 + 300)
    assert table["workload.ready"]["calls"] == 2 * (30 + 300)


def test_wrappers_restored_when_the_pass_raises():
    before = _repro_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed(layers.install):
            raise RuntimeError("boom")
    _assert_restored(before)


def test_wrappers_restored_when_install_raises():
    from repro.simulation.engine import IntervalEngine

    before = _repro_attributes()

    def partial_install(tracer):
        tracer.patch_class(IntervalEngine, "run", "engine.run")
        raise RuntimeError("install failed")

    with pytest.raises(RuntimeError, match="install failed"):
        with Tracer().installed(partial_install):
            pass
    _assert_restored(before)


def _child_sees_original(queue):
    from repro.simulation.engine import IntervalEngine

    queue.put(not hasattr(IntervalEngine.run, "__bench_original__"))


def test_forked_workers_run_unwrapped_code():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork")
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    tracer = Tracer()
    with tracer.installed(layers.install):
        child = context.Process(target=_child_sees_original, args=(queue,))
        child.start()
        unwrapped = queue.get(timeout=30)
        child.join(timeout=30)
    assert not child.is_alive()
    assert unwrapped
