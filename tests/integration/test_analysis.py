"""Tests for §3's closed forms (``tests/oracles/closed_forms.py``)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.disk import SABRE_DISK
from tests.oracles.closed_forms import (
    bandwidth_table,
    disks_used_by_object,
    expected_contiguous_wait,
    fragmentation_buffer_demand,
    is_perfectly_balanced,
    k_equals_d_blocking_time,
    low_bandwidth_buffer_demand,
    marginal_gain,
    minimum_display_memory,
    paper_formula_bandwidth,
    residue_classes,
    skew_profile,
    stride_is_skew_free,
    worst_case_initiation_delay,
)


class TestBandwidth:
    def test_paper_formula_matches_model_for_one_cylinder(self):
        frag = SABRE_DISK.cylinder_capacity
        assert paper_formula_bandwidth(SABRE_DISK, frag) == pytest.approx(
            SABRE_DISK.effective_bandwidth(1)
        )

    def test_table_rows_monotone(self):
        rows = bandwidth_table(SABRE_DISK, 5)
        bandwidths = [r["effective_bandwidth_mbps"] for r in rows]
        wastes = [r["wasted_percent"] for r in rows]
        assert bandwidths == sorted(bandwidths)
        assert wastes == sorted(wastes, reverse=True)

    def test_marginal_gain_shrinks(self):
        assert marginal_gain(SABRE_DISK, 2) < marginal_gain(SABRE_DISK, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            paper_formula_bandwidth(SABRE_DISK, 0.0)
        with pytest.raises(ConfigurationError):
            bandwidth_table(SABRE_DISK, 0)


class TestLatency:
    def test_paper_9_and_16_second_examples(self):
        assert worst_case_initiation_delay(SABRE_DISK, 90, 3, 1) == pytest.approx(
            8.75, abs=0.05
        )
        assert worst_case_initiation_delay(SABRE_DISK, 90, 3, 2) == pytest.approx(
            16.12, abs=0.05
        )

    def test_expected_wait_grows_as_stride_shrinks(self):
        small_k = expected_contiguous_wait(100, 1, 0.6)
        large_k = expected_contiguous_wait(100, 5, 0.6)
        assert small_k > large_k

    def test_k_equals_d_blocks_for_a_display_time(self):
        assert k_equals_d_blocking_time(181440.0, 100.0) == pytest.approx(1814.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            worst_case_initiation_delay(SABRE_DISK, 2, 3)
        with pytest.raises(ConfigurationError):
            expected_contiguous_wait(10, 0, 1.0)
        with pytest.raises(ConfigurationError):
            k_equals_d_blocking_time(0.0, 1.0)


class TestMemory:
    def test_minimum_memory_formula(self):
        assert minimum_display_memory(20.0, 0.05, 0.001) == pytest.approx(1.02)

    def test_fragmentation_demand(self):
        assert fragmentation_buffer_demand([0, 2, 1], 12.0) == pytest.approx(36.0)

    def test_low_bandwidth_demand(self):
        assert low_bandwidth_buffer_demand(12.0) == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fragmentation_buffer_demand([-1], 12.0)
        with pytest.raises(ConfigurationError):
            low_bandwidth_buffer_demand(12.0, num_sharers=1)


class TestSkew:
    def test_residue_classes(self):
        assert residue_classes(1000, 5) == 200
        assert residue_classes(1000, 1) == 1000
        assert residue_classes(10, 10) == 1

    def test_skew_free_strides(self):
        assert stride_is_skew_free(1000, 1)
        assert stride_is_skew_free(1000, 3)
        assert not stride_is_skew_free(1000, 5)

    def test_paper_28_disk_example(self):
        assert disks_used_by_object(100, 1, 25, 4) == 28
        assert disks_used_by_object(100, 4, 25, 4) == 100

    def test_perfect_balance_rule(self):
        # k=1 always satisfies the width condition.
        assert is_perfectly_balanced(100, 1, 200, 3)
        # Simple striping: M=5 over D=1000, n multiple of R=200.
        assert is_perfectly_balanced(1000, 5, 3000, 5)
        # Width not a multiple of gcd -> skewed.
        assert not is_perfectly_balanced(6, 2, 6, 3)

    def test_skew_profile_balanced_case(self):
        profile = skew_profile(10, 1, 20, 3)
        assert profile["relative_skew"] == 0.0
        assert profile["disks_used"] == 10

    def test_skew_profile_k_equals_d(self):
        profile = skew_profile(10, 10, 20, 3)
        assert profile["disks_used"] == 3
