"""Cross-validation: DES-driven engine == interval-stepped engine.

Both engines must produce the same serialized result, byte for byte.
The interval side runs through :func:`run_experiment`, so under
``REPRO_SANITIZE=strict`` every interval also passes the invariant
sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.simulation.config import ScaledConfig
from repro.simulation.runner import (
    build_access,
    build_arrivals,
    build_catalog,
    build_policy,
    preload_ids,
    run_experiment,
)
from repro.sim.rng import RandomStream
from tests.oracles.des_engine import DESEngine


def build_des_engine(config):
    catalog = build_catalog(config)
    stream = RandomStream(seed=config.seed)
    access = build_access(config, catalog, stream.fork(1))
    policy = build_policy(config, catalog)
    if config.preload:
        policy.preload(preload_ids(config, access))
    stations = build_arrivals(config, access, stream)
    return DESEngine(
        policy=policy,
        stations=stations,
        interval_length=config.interval_length,
        technique=config.technique,
        access_mean=config.access_mean,
    )


def serialized(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_engines_agree(config):
    """Run ``config`` on both engines; return the interval result."""
    interval_result = run_experiment(config)
    des_result = build_des_engine(config).run(
        config.warmup_intervals, config.measure_intervals
    )
    assert serialized(des_result) == serialized(interval_result)
    return interval_result


@pytest.mark.parametrize("technique", ["simple", "staggered", "vdr"])
def test_des_and_interval_engines_agree_exactly(technique):
    """Same seed, same policy, different drivers -> identical results."""
    config = ScaledConfig(
        technique=technique, num_stations=8, access_mean=2.0,
        warmup_intervals=200, measure_intervals=1200,
    )
    result = assert_engines_agree(config)
    assert result.completed > 0
    assert result.offered == 0  # closed runs offer nothing (results.py)


@pytest.mark.parametrize("technique", ["simple", "staggered", "vdr"])
def test_des_and_interval_engines_agree_on_open_arrivals(technique):
    """The equivalence claim covers the open workload: same Poisson
    source, deadline bookkeeping, and blocking counts through both
    drivers."""
    config = ScaledConfig(
        technique=technique, access_mean=2.0,
        warmup_intervals=100, measure_intervals=1000,
        arrival="poisson", arrival_rate=0.05,
        zipf_s=0.8, deadline_intervals=25,
    )
    assert assert_engines_agree(config).offered > 0


@pytest.mark.parametrize(
    "technique,redundancy",
    [("staggered", "mirror"), ("simple", "parity"), ("vdr", "none")],
)
def test_des_and_interval_engines_agree_under_faults(technique, redundancy):
    """A drive fails mid-run and is repaired: the fault coordinator
    sits inside the policy, so both drivers see the same failure,
    degraded service and rebuild."""
    config = ScaledConfig(
        technique=technique, redundancy=redundancy, num_stations=8,
        access_mean=2.0, warmup_intervals=100, measure_intervals=800,
        fail_at=((3, 150),), mttr=60,
    )
    result = assert_engines_agree(config)
    assert result.policy_stats["fault_failures"] == 1


def test_des_engine_advances_simulated_seconds():
    config = ScaledConfig(
        technique="simple", num_stations=2, access_mean=1.0,
    )
    engine = build_des_engine(config)
    engine.run(0, 100)
    assert engine.sim.now == pytest.approx(100 * config.interval_length)
    assert engine.interval == 100


def test_des_engine_validates_windows():
    config = ScaledConfig(technique="simple", num_stations=1)
    engine = build_des_engine(config)
    with pytest.raises(ConfigurationError):
        engine.run(-1, 10)
    with pytest.raises(ConfigurationError):
        engine.run(0, 0)
