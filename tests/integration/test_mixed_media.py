"""Tests for the mixed-media and fairness experiments (§3.2, §5)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.mixed_media import (
    DEFAULT_MIX,
    bandwidth_waste_naive,
    build_mixed_system,
    fairness_comparison,
    run_mixed_media,
)
from repro.simulation.policy import Request


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
