"""Cross-validation: DES-driven engine == next-event interval engine.

The DES oracle steps every interval; the interval engine jumps over
the intervals its sources promise are quiet.  Both must produce the
same serialized result, byte for byte, so every case here is also a
skip ≡ step check.  The interval side runs through
:func:`run_experiment`, so under ``REPRO_SANITIZE=strict`` every
stepped interval also passes the invariant sweep and every skipped
span the ``skip`` check.
"""

from __future__ import annotations

import json

import pytest

from repro.core.scheduler import StaggeredStripingPolicy
from repro.errors import ConfigurationError
from repro.obs import Observability
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
from repro.vdr.scheduler import VirtualReplicationPolicy
from tests.oracles.des_engine import DESEngine
from tests.oracles.scalar import step_every_interval


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


CLOSED = ScaledConfig(
    num_stations=8, access_mean=2.0,
    warmup_intervals=200, measure_intervals=1200,
)
OPEN = ScaledConfig(
    access_mean=2.0, warmup_intervals=100, measure_intervals=1000,
    arrival="poisson", arrival_rate=0.05, zipf_s=0.8,
)

#: The paths the next-event advance takes beyond the cases above (which
#: include Poisson arrivals with a 25-interval deadline): the VDR
#: tertiary queue, station think time (a cluster frees a step before
#: its station re-issues), the non-FIFO walks, fcfs's head-of-line
#: stop (CONTIGUOUS simple striping wakes at the head's alignment; the
#: open FRAGMENTED case also cancels at deadlines), a pure loss system
#: and thinned, burst-shaped MMPP arrivals.
SKIP_CASES = {
    "vdr_tertiary_replicas": CLOSED.with_(
        technique="vdr", replication_source="tertiary"
    ),
    "simple_think_time": CLOSED.with_(technique="simple", think_intervals=3),
    "vdr_think_time": CLOSED.with_(technique="vdr", think_intervals=3),
    "staggered_sjf": CLOSED.with_(
        technique="staggered", queue_discipline="sjf"
    ),
    "staggered_largest_first": CLOSED.with_(
        technique="staggered", queue_discipline="largest_first"
    ),
    "simple_fcfs": CLOSED.with_(technique="simple", queue_discipline="fcfs"),
    "open_staggered_fcfs": OPEN.with_(
        technique="staggered", queue_discipline="fcfs",
        deadline_intervals=25,
    ),
    "poisson_loss_system": OPEN.with_(
        technique="simple", deadline_intervals=0
    ),
    "mmpp_diurnal_burst": OPEN.with_(
        technique="simple", arrival="mmpp", arrival_rate=None,
        mmpp_rates=(0.02, 0.08), mmpp_sojourn=(150.0, 50.0),
        diurnal_period=400.0, diurnal_amplitude=0.6,
        burst_at=300, burst_duration=200, burst_factor=3.0,
        burst_hotspot=0.5, deadline_intervals=25,
    ),
}


@pytest.mark.parametrize("name", sorted(SKIP_CASES))
def test_des_and_interval_engines_agree_on_skip_paths(name):
    result = assert_engines_agree(SKIP_CASES[name])
    assert result.completed > 0


@pytest.mark.parametrize(
    "config",
    [
        CLOSED.with_(technique="simple"),
        CLOSED.with_(technique="vdr", replication_source="tertiary"),
        OPEN.with_(technique="staggered", deadline_intervals=25),
        CLOSED.with_(technique="simple", queue_discipline="fcfs"),
        CLOSED.with_(
            technique="staggered", redundancy="mirror",
            fail_at=((3, 300),), mttr=60, rebuild_rate=2,
        ),
        CLOSED.with_(
            technique="vdr", redundancy="parity", mttf=40000.0, mttr=60,
        ),
    ],
    ids=[
        "simple", "vdr", "open_staggered", "simple_fcfs",
        "staggered_scripted_fault", "vdr_faults",
    ],
)
def test_forced_stepping_matches_next_event_advance(config, monkeypatch):
    """Skipped spans book their counters exactly as stepping would:
    results and the ``--obs-level metrics`` snapshot (counters, and
    the series sampled every ``sample_stride`` intervals) match a run
    forced to step every interval.  With faults, the skipped spans are
    the coordinator's quiet (healthy) ones."""

    def run():
        session = Observability(level="metrics")
        result = run_experiment(config, obs=session)
        return serialized(result), result.observation["metrics"]

    blob, metrics = run()
    for policy in (StaggeredStripingPolicy, VirtualReplicationPolicy):
        monkeypatch.setattr(policy, "next_activity", step_every_interval)
    assert run() == (blob, metrics)
    assert any(entry["type"] == "counter" for entry in metrics.values())


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
