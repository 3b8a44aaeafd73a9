"""Tests for the disk model against the paper's §3.1 numbers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.disk import (
    DiskModel,
    SABRE_DISK,
    TABLE3_DISK,
    disk_for_effective_bandwidth,
)
from tests.oracles.closed_forms import wasted_fraction
from tests.oracles.seek_buffering import sample_reposition, seek_time


class TestSabreNumbers:
    """The §3.1 numeric example on the 1.2 GB Sabre drive."""

    def test_cylinder_read_time_is_about_250ms(self):
        assert SABRE_DISK.cylinder_read_time == pytest.approx(0.250, abs=0.001)

    def test_t_switch_is_51_83ms(self):
        assert SABRE_DISK.t_switch == pytest.approx(0.05183)

    def test_service_time_one_cylinder_matches_paper(self):
        # Paper: 301.83 ms (with the cylinder read rounded to 250 ms).
        assert SABRE_DISK.service_time(1) == pytest.approx(0.30183, abs=0.0005)

    def test_service_time_two_cylinders_matches_paper(self):
        # Paper: 555.83 ms (2 cylinders + one track-to-track seek).
        assert SABRE_DISK.service_time(2) == pytest.approx(0.55583, abs=0.0005)

    def test_wasted_bandwidth_one_cylinder_is_17_2_percent(self):
        assert wasted_fraction(SABRE_DISK, 1) * 100 == pytest.approx(17.2, abs=0.1)

    def test_wasted_bandwidth_two_cylinders_is_about_10_percent(self):
        assert wasted_fraction(SABRE_DISK, 2) * 100 == pytest.approx(10.0, abs=0.2)

    def test_capacity_is_1_2_gigabytes(self):
        # 1635 cylinders x 756000 bytes ~ 1.236 GB = 9888 megabits.
        assert SABRE_DISK.capacity == pytest.approx(1635 * 0.756 * 8, rel=1e-6)


class TestTable3Disk:
    def test_effective_bandwidth_is_exactly_20mbps(self):
        assert TABLE3_DISK.effective_bandwidth(1) == pytest.approx(20.0)

    def test_interval_length_matches_display_arithmetic(self):
        # One fragment per interval at 20 mbps: 12.096 mbit / 20 = 0.6048 s.
        assert TABLE3_DISK.service_time(1) == pytest.approx(0.6048)

    def test_capacity_is_4_5_gigabytes(self):
        assert TABLE3_DISK.capacity == pytest.approx(3000 * 1.512 * 8)

    def test_object_display_time_matches_paper(self):
        # 3000 subobjects x 5 fragments at 100 mbps = 1814.4 s
        # (paper: "1814 seconds (30 minutes and 14 seconds)").
        object_size = 3000 * 5 * TABLE3_DISK.cylinder_capacity
        assert object_size / 100.0 == pytest.approx(1814.4)


class TestSeekCurve:
    def test_zero_distance_costs_nothing(self, sabre):
        assert seek_time(sabre, 0) == 0.0

    def test_single_cylinder_is_min_seek(self, sabre):
        assert seek_time(sabre, 1) == pytest.approx(sabre.min_seek)

    def test_full_stroke_is_max_seek(self, sabre):
        assert seek_time(sabre, sabre.num_cylinders - 1) == pytest.approx(
            sabre.max_seek
        )

    def test_curve_is_monotone(self, sabre):
        seeks = [seek_time(sabre, d) for d in range(0, sabre.num_cylinders, 100)]
        assert seeks == sorted(seeks)

    def test_negative_distance_rejected(self, sabre):
        with pytest.raises(ConfigurationError):
            seek_time(sabre, -1)

    def test_sample_reposition_bounded(self, sabre, stream):
        for _ in range(200):
            value = sample_reposition(sabre, stream)
            assert 0.0 <= value <= sabre.t_switch + 1e-9


class TestEffectiveBandwidth:
    def test_grows_with_fragment_size(self, sabre):
        bandwidths = [sabre.effective_bandwidth(c) for c in range(1, 6)]
        assert bandwidths == sorted(bandwidths)

    def test_approaches_transfer_rate(self, sabre):
        assert sabre.effective_bandwidth(100) == pytest.approx(
            sabre.transfer_rate, rel=0.02
        )

    def test_diminishing_gains_beyond_two_cylinders(self, sabre):
        gain_1_to_2 = sabre.effective_bandwidth(2) - sabre.effective_bandwidth(1)
        gain_2_to_3 = sabre.effective_bandwidth(3) - sabre.effective_bandwidth(2)
        assert gain_2_to_3 < gain_1_to_2 / 2


class TestValidation:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            DiskModel(
                transfer_rate=0.0,
                num_cylinders=10,
                cylinder_capacity=1.0,
                min_seek=0.001,
                avg_seek=0.002,
                max_seek=0.003,
                avg_latency=0.001,
                max_latency=0.002,
            )

    def test_rejects_unordered_seeks(self):
        with pytest.raises(ConfigurationError):
            DiskModel(
                transfer_rate=10.0,
                num_cylinders=10,
                cylinder_capacity=1.0,
                min_seek=0.005,
                avg_seek=0.002,
                max_seek=0.003,
                avg_latency=0.001,
                max_latency=0.002,
            )

    def test_fragment_size_requires_positive_cylinders(self, sabre):
        with pytest.raises(ConfigurationError):
            sabre.fragment_size(0)


class TestDerivedDisk:
    def test_solves_for_target_effective_bandwidth(self, sabre):
        derived = disk_for_effective_bandwidth(15.0, sabre, fragment_cylinders=2)
        assert derived.effective_bandwidth(2) == pytest.approx(15.0)

    def test_unreachable_target_rejected(self, sabre):
        with pytest.raises(ConfigurationError):
            disk_for_effective_bandwidth(1e9, sabre)
