"""A finished run is freed by reference counting alone.

Nothing in a built system points back at its owner: the engine
dispatches its open step inside ``step`` rather than binding it on
itself, the fault coordinators are handed the policy in each pass
rather than holding it, and VDR's replication policy reads the policy's
frequency and pin dicts rather than closures over the policy.  So with
the cyclic collector off, ``del engine`` frees the engine, its policy
and its coordinator at once, and a process that runs many simulations
holds one at a time (the D = 1000 mirrored open engine is about 4 MB).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import open_workload
from repro.obs import Observability
from repro.simulation import runner
from repro.simulation.config import ScaledConfig

SCALE = 10
FAULTS = dict(redundancy="mirror", fail_at=((0, 20), (3, 120)))


def closed(technique, **changes):
    return ScaledConfig(scale=SCALE, technique=technique, **changes)


def opened(technique, **changes):
    base = open_workload.base_config(SCALE)
    rate = 0.8 * open_workload.nominal_capacity_rate(base)
    return open_workload.cell_config(base, technique, rate).with_(**changes)


CASES = {
    "staggered-closed": closed("staggered"),
    "staggered-open": opened("staggered"),
    "simple-closed": closed("simple"),
    "simple-open": opened("simple"),
    "vdr-closed": closed("vdr"),
    "vdr-open": opened("vdr"),
    "staggered-mirror-open": opened("staggered", **FAULTS),
    "vdr-mirror-closed": closed("vdr", **FAULTS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_del_engine_frees_the_run_without_the_cyclic_collector(name):
    config = CASES[name]
    runner.cached_catalog(config)  # the memo outlives every run
    gc.collect()
    gc.disable()
    try:
        engine = runner.build_engine(config)
        engine.run(50, 250)
        policy = engine.policy
        refs = {"engine": weakref.ref(engine), "policy": weakref.ref(policy)}
        if config.faults_enabled:
            assert policy.faults.failures == len(config.fail_at)
            refs["coordinator"] = weakref.ref(policy.faults)
        del engine, policy
        alive = sorted(part for part, ref in refs.items() if ref() is not None)
        found = gc.collect()
    finally:
        gc.enable()
    assert alive == []
    assert found == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_an_observed_run_is_freed_without_the_cyclic_collector(name, monkeypatch):
    """The instrumented components hand bound methods to the run's
    observation as snapshot-time flushers while holding that
    observation; the session drops them once it has taken the
    snapshot, so a metrics-level ``run_experiment`` leaves no cycle."""
    config = CASES[name]
    runner.cached_catalog(config)
    built = {}
    build_engine = runner.build_engine

    def recording_build_engine(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        built["engine"] = weakref.ref(engine)
        built["policy"] = weakref.ref(engine.policy)
        built["observation"] = weakref.ref(engine.obs)
        if config.faults_enabled:
            built["coordinator"] = weakref.ref(engine.policy.faults)
        return engine

    monkeypatch.setattr(runner, "build_engine", recording_build_engine)
    session = Observability(level="metrics")
    gc.collect()
    gc.disable()
    try:
        result = runner.run_experiment(config, obs=session)
        alive = sorted(part for part, ref in built.items() if ref() is not None)
        found = gc.collect()
    finally:
        gc.enable()
    assert sorted(built) == sorted(
        ["engine", "policy", "observation"]
        + (["coordinator"] if config.faults_enabled else [])
    )
    assert result.observation is session.runs[0]
    assert session.runs[0]["metrics"]
    assert alive == []
    assert found == 0
