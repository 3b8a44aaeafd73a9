"""Ablations of the design choices called out in DESIGN.md §4.

* replacement policy: LFU (paper) vs LRU;
* admission mode: contiguous (simple striping) vs fragmented
  (staggered's time-fragmentation machinery) at the same stride;
* queue discipline: scan (non-blocking FIFO) vs strict FCFS;
* VDR replica source: display-stream clone vs tertiary re-read;
* MRT replication threshold for the VDR baseline.

Each runs the scaled configuration twice, once per setting, and
asserts the direction of the effect.
"""

from __future__ import annotations

import pytest

from repro.simulation.config import ScaledConfig
from repro.simulation.runner import run_experiment


@pytest.fixture(scope="module")
def quick_config():
    return ScaledConfig(scale=10, warmup_intervals=300, measure_intervals=1500)


def run_each(base, field, values):
    """``{value: result}`` for ``base`` with ``field`` set to each value."""
    return {
        value: run_experiment(base.with_(**{field: value})) for value in values
    }


def test_replacement_policy(quick_config):
    """LFU vs LRU under a skewed, miss-generating workload: with a
    stable geometric skew, frequency is the better signal, so LFU at
    least matches LRU's hit rate."""
    base = quick_config.with_(
        technique="simple", num_stations=12, access_mean=4.35,
        measure_intervals=3000,
    )
    by_policy = run_each(base, "replacement", ("lfu", "lru"))
    assert (
        by_policy["lfu"].policy_stats["hit_rate"]
        >= by_policy["lru"].policy_stats["hit_rate"] - 0.02
    )


def test_admission_mode(quick_config):
    """Contiguous vs fragmented lane claims at stride 1.  Fragmented
    admission puts partial lane sets to work immediately (buffering per
    Algorithm 1), so it does not lose throughput."""
    base = quick_config.with_(num_stations=20, access_mean=1.0)
    by_technique = run_each(base, "technique", ("simple", "staggered"))
    assert (
        by_technique["staggered"].throughput_per_hour
        >= 0.9 * by_technique["simple"].throughput_per_hour
    )


def test_queue_discipline(quick_config):
    """Scan never blocks behind the queue's head, so its throughput
    dominates strict FCFS."""
    base = quick_config.with_(
        technique="simple", num_stations=20, access_mean=1.0
    )
    by_discipline = run_each(base, "queue_discipline", ("scan", "fcfs"))
    assert (
        by_discipline["scan"].throughput_per_hour
        >= by_discipline["fcfs"].throughput_per_hour * 0.99
    )


def test_replication_source(quick_config):
    """Stream cloning is the stronger VDR baseline: a replica costs one
    display time on an idle cluster.  Tertiary-sourced replicas queue on
    the 40 mbps device and hot-object demand serialises there — the
    collapse the paper's Table 4 magnitudes exhibit."""
    base = quick_config.with_(
        technique="vdr", num_stations=25, access_mean=1.0,
        measure_intervals=3000,
    )
    by_source = run_each(base, "replication_source", ("stream", "tertiary"))
    assert (
        by_source["stream"].throughput_per_hour
        > 1.5 * by_source["tertiary"].throughput_per_hour
    )
    assert by_source["tertiary"].policy_stats["tertiary_utilization"] > 0.5


def test_mrt_threshold(quick_config):
    """VDR with eager (threshold 1) vs reluctant (threshold 4)
    replication under a hot-object workload: eager replication creates
    more copies and does not hurt throughput."""
    base = quick_config.with_(
        technique="vdr", num_stations=20, access_mean=1.0,
        measure_intervals=3000,
    )
    by_threshold = run_each(base, "replication_threshold", (1, 4))
    assert (
        by_threshold[1].policy_stats["replicas_created"]
        >= by_threshold[4].policy_stats["replicas_created"]
    )
    assert (
        by_threshold[1].throughput_per_hour
        >= 0.8 * by_threshold[4].throughput_per_hour
    )
