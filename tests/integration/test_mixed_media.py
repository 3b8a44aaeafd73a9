"""Tests for the mixed-media and fairness experiments (§3.2, §5).

The module registers the ``mixed_media`` and ``fairness`` spec kinds,
so each design's and each discipline's run goes through
:func:`repro.exec.execute` like any sweep.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest

from repro.errors import ConfigurationError
from repro.exec import execute, require_ok
from repro.exec.spec import RunSpec, register_kind
from repro.simulation.policy import Request
from tests.oracles.mixed_media import (
    DEFAULT_MIX,
    bandwidth_waste_naive,
    build_mixed_system,
    fairness_row,
    mixed_media_row,
)


@register_kind("mixed_media")
def _mixed_media_kind(spec: RunSpec, obs=None) -> Dict:
    params = dict(spec.params)
    params["mix"] = [tuple(entry) for entry in params.get("mix", DEFAULT_MIX)]
    return mixed_media_row(**params)


@register_kind("fairness")
def _fairness_kind(spec: RunSpec, obs=None) -> Dict:
    return fairness_row(**dict(spec.params))


def run_mixed_media(
    num_stations: int = 16, measure_intervals: int = 2000
) -> List[Dict]:
    """Throughput + per-class latency: staggered vs naive clusters."""
    specs = [
        RunSpec(
            kind="mixed_media",
            params={
                "naive": naive,
                "num_stations": num_stations,
                "measure_intervals": measure_intervals,
                "mix": [list(entry) for entry in DEFAULT_MIX],
            },
            label=f"mixed-media naive={naive}",
        )
        for naive in (False, True)
    ]
    return [record.payload for record in require_ok(execute(specs))]


def fairness_comparison(
    disciplines: Sequence[str] = ("scan", "sjf", "largest_first"),
    measure_intervals: int = 2000,
) -> List[Dict]:
    """§5: 'Should a small request have priority?'  The mixed workload
    (staggered design) under each queue discipline."""
    specs = [
        RunSpec(
            kind="fairness",
            params={
                "discipline": discipline,
                "measure_intervals": measure_intervals,
            },
            label=f"fairness {discipline}",
        )
        for discipline in disciplines
    ]
    return [record.payload for record in require_ok(execute(specs))]


class TestBandwidthWaste:
    def test_paper_50_percent_example(self):
        """§3.2: 120 + 60 mbps media in 6-drive clusters waste 50% of
        the 60 mbps displays' drives; 25% weighted over an even mix."""
        mix = (("y", 120.0, 1), ("z", 60.0, 1))
        assert bandwidth_waste_naive(mix) == pytest.approx(0.25)

    def test_default_mix_wastes_over_a_third(self):
        assert bandwidth_waste_naive(DEFAULT_MIX) == pytest.approx(0.375)

    def test_single_type_wastes_nothing(self):
        assert bandwidth_waste_naive((("v", 100.0, 3),)) == 0.0


class TestBuildMixedSystem:
    def test_staggered_keeps_per_type_degrees(self):
        catalog, _policy = build_mixed_system(naive=False)
        degrees = sorted({obj.degree for obj in catalog})
        assert degrees == [2, 3, 4, 6]

    def test_naive_forces_max_degree(self):
        catalog, policy = build_mixed_system(naive=True)
        assert {obj.degree for obj in catalog} == {6}
        assert policy.disk_manager.stride == 6

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            build_mixed_system(num_disks=59)


class TestMixedMediaComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_mixed_media(num_stations=16, measure_intervals=1500)

    def test_staggered_outperforms_naive(self, rows):
        """The naive design wastes 37.5 % of claimed bandwidth on this
        mix; staggered striping converts that into throughput."""
        by_design = {row["design"]: row for row in rows}
        assert (
            by_design["staggered"]["displays_per_hour"]
            > 1.15 * by_design["naive-Mmax-clusters"]["displays_per_hour"]
        )

    def test_staggered_latency_lower_for_every_class(self, rows):
        by_design = {row["design"]: row for row in rows}
        for name, _bw, _count in DEFAULT_MIX:
            key = f"latency_{name}_ivs"
            assert by_design["staggered"][key] <= by_design[
                "naive-Mmax-clusters"
            ][key]


class TestFairness:
    @pytest.fixture(scope="class")
    def rows(self):
        return fairness_comparison(measure_intervals=1500)

    def test_all_disciplines_make_progress(self, rows):
        for row in rows:
            assert row["displays_per_hour"] > 0

    def test_sjf_prioritises_narrow_requests(self, rows):
        by_discipline = {row["discipline"]: row for row in rows}
        assert (
            by_discipline["sjf"]["narrow_latency_ivs"]
            <= by_discipline["scan"]["narrow_latency_ivs"]
        )

    def test_wide_requests_wait_longer_than_narrow(self, rows):
        """Time fragmentation penalises wide displays (§3.2's W example)."""
        for row in rows:
            assert row["wide_latency_ivs"] > row["narrow_latency_ivs"]


class TestAntiHoardingRule:
    def test_heavy_mixed_contention_never_deadlocks(self):
        """Regression: greedy fragmented claims used to deadlock when
        many partial displays hoarded all virtual disks."""
        mix = (("narrow", 40.0, 6), ("wide", 120.0, 6))
        catalog, policy = build_mixed_system(
            num_disks=36, naive=False, mix=mix, num_subobjects=40
        )
        # Flood with more demand than the array can ever hold at once.
        for i, object_id in enumerate(list(catalog.object_ids) * 4):
            policy.submit(
                Request(request_id=i + 1, station_id=i, object_id=object_id,
                        issued_at=0),
                interval=0,
            )
        completions = 0
        for interval in range(3000):
            completions += len(policy.advance(interval))
            if policy.pending_count() == 0:
                break
        assert policy.pending_count() == 0
        assert completions == 48
