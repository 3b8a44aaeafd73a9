"""Tests for the simulation configuration (Table 3)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation.config import PaperConfig, ScaledConfig, SimulationConfig


class TestPaperConfig:
    """Every derived quantity must match Table 3 / §4.1."""

    @pytest.fixture
    def config(self):
        return PaperConfig()

    def test_disk_bandwidth_is_20(self, config):
        assert config.disk_bandwidth == pytest.approx(20.0)

    def test_degree_is_5(self, config):
        assert config.degree == 5

    def test_200_clusters(self, config):
        assert config.num_clusters == 200

    def test_stride_defaults_to_m_for_simple(self, config):
        assert config.effective_stride == 5

    def test_interval_length(self, config):
        assert config.interval_length == pytest.approx(0.6048)

    def test_display_time_is_1814_seconds(self, config):
        assert config.display_time == pytest.approx(1814.4)

    def test_database_is_10x_disk_capacity(self, config):
        assert config.database_size / config.disk_capacity == pytest.approx(10.0)

    def test_200_objects_fit_on_disk(self, config):
        assert config.max_resident_objects == 200

    def test_disk_capacity_is_4_54_gigabytes_each(self, config):
        per_disk = config.disk.capacity / 8 / 1000  # GB
        assert per_disk == pytest.approx(4.536, abs=0.01)


class TestScaledConfig:
    """The scaled config must preserve every ratio (DESIGN.md)."""

    @pytest.fixture
    def scaled(self):
        return ScaledConfig(scale=10)

    def test_same_degree_and_interval(self, scaled):
        paper = PaperConfig()
        assert scaled.degree == paper.degree
        assert scaled.interval_length == pytest.approx(paper.interval_length)
        assert scaled.disk_bandwidth == pytest.approx(paper.disk_bandwidth)

    def test_database_to_disk_ratio_preserved(self, scaled):
        assert scaled.database_size / scaled.disk_capacity == pytest.approx(10.0)

    def test_one_object_per_cluster(self, scaled):
        cluster_capacity = scaled.degree * scaled.disk.capacity
        assert cluster_capacity / scaled.object_size == pytest.approx(1.0)

    def test_resident_count_scales(self, scaled):
        assert scaled.max_resident_objects == 20

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaledConfig(scale=7)

    def test_overrides_apply(self):
        config = ScaledConfig(scale=10, technique="vdr", num_stations=26)
        assert config.technique == "vdr"
        assert config.num_stations == 26


class TestValidation:
    def test_unknown_technique(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(technique="raid")

    def test_simple_requires_divisibility(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(num_disks=999)

    def test_staggered_allows_any_d(self):
        config = PaperConfig(technique="staggered", num_disks=999)
        assert config.num_disks == 999

    def test_fill_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(fill_factor=0.0)
        with pytest.raises(ConfigurationError):
            PaperConfig(fill_factor=1.5)

    def test_with_returns_modified_copy(self):
        base = PaperConfig()
        other = base.with_(num_stations=64)
        assert other.num_stations == 64
        assert base.num_stations == 16

    def test_describe_mentions_technique(self):
        assert "vdr" in PaperConfig(technique="vdr").describe()

    @pytest.mark.parametrize("technique", ["simple", "staggered"])
    @pytest.mark.parametrize("stride", [0, -1, 1001])
    def test_stride_outside_one_to_d_rejected(self, technique, stride):
        with pytest.raises(ConfigurationError) as raised:
            PaperConfig(technique=technique, stride=stride)
        assert str(raised.value) == f"stride must be in 1..1000, got {stride}"

    @pytest.mark.parametrize("technique", ["simple", "staggered"])
    def test_stride_of_d_accepted(self, technique):
        config = PaperConfig(technique=technique, stride=1000)
        assert config.effective_stride == 1000

    def test_vdr_ignores_the_stride(self):
        assert PaperConfig(technique="vdr", stride=0).stride == 0
