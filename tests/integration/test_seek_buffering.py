"""Tests for the §5 seek-buffering study."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from tests.oracles.seek_buffering import (
    average_overhead_bandwidth,
    buffering_table,
    max_bandwidth_for_buffer,
    provisioned_bandwidth,
    simulate_hiccup_rate,
)


class TestProvisionedBandwidth:
    def test_worst_case_budget_matches_model(self, sabre):
        assert provisioned_bandwidth(sabre, sabre.t_switch) == pytest.approx(
            sabre.effective_bandwidth(1)
        )

    def test_zero_overhead_is_peak_rate(self, sabre):
        assert provisioned_bandwidth(sabre, 0.0) == pytest.approx(
            sabre.transfer_rate
        )

    def test_average_ceiling_above_worst_case(self, sabre):
        assert average_overhead_bandwidth(sabre) > sabre.effective_bandwidth(1)

    def test_validation(self, sabre):
        with pytest.raises(ConfigurationError):
            provisioned_bandwidth(sabre, -0.1)


class TestHiccupSimulation:
    def test_worst_case_budget_never_hiccups(self, sabre):
        rate = simulate_hiccup_rate(
            sabre, sabre.t_switch, buffer_size=0.0, activations=2000,
            stream=RandomStream(3),
        )
        assert rate == 0.0

    def test_aggressive_budget_without_buffer_hiccups(self, sabre):
        budget = sabre.avg_seek + sabre.avg_latency
        rate = simulate_hiccup_rate(
            sabre, budget, buffer_size=0.0, activations=2000,
            stream=RandomStream(3),
        )
        assert rate > 0.1

    def test_buffer_absorbs_variance(self, sabre):
        budget = sabre.avg_seek + sabre.avg_latency + 0.003
        no_buffer = simulate_hiccup_rate(
            sabre, budget, 0.0, 2000, RandomStream(3)
        )
        one_cylinder = simulate_hiccup_rate(
            sabre, budget, sabre.cylinder_capacity, 2000, RandomStream(3)
        )
        assert one_cylinder < no_buffer

    def test_validation(self, sabre):
        with pytest.raises(ConfigurationError):
            simulate_hiccup_rate(sabre, 0.01, -1.0, 10, RandomStream(1))
        with pytest.raises(ConfigurationError):
            simulate_hiccup_rate(sabre, 0.01, 0.0, 0, RandomStream(1))


class TestBufferingStudy:
    @pytest.fixture(scope="class")
    def table(self, request):
        from repro.hardware.disk import SABRE_DISK

        return buffering_table(SABRE_DISK, activations=5000)

    def test_row_zero_is_worst_case(self, table, sabre):
        assert table[0].buffer_cylinders == 0.0
        assert table[0].effective_bandwidth_mbps == pytest.approx(
            sabre.effective_bandwidth(1)
        )
        assert table[0].gain_over_worst_case_pct == 0.0

    def test_bandwidth_grows_with_buffer(self, table):
        bandwidths = [row.effective_bandwidth_mbps for row in table]
        assert all(
            later >= earlier - 0.05
            for earlier, later in zip(bandwidths, bandwidths[1:])
        )
        assert bandwidths[-1] > bandwidths[0]

    def test_one_cylinder_recovers_most_of_the_gap(self, table, sabre):
        """The paper's 'a cylinder or so' hypothesis: most of the
        worst-case-to-average gap is recoverable."""
        ceiling = average_overhead_bandwidth(sabre)
        worst = sabre.effective_bandwidth(1)
        one_cylinder = next(
            row for row in table if row.buffer_cylinders == 1.0
        )
        recovered = (one_cylinder.effective_bandwidth_mbps - worst) / (
            ceiling - worst
        )
        assert recovered > 0.6
        assert one_cylinder.gain_over_worst_case_pct > 5.0
        assert one_cylinder.effective_bandwidth_mbps < ceiling

    def test_bandwidth_stays_below_average_ceiling(self, table, sabre):
        ceiling = average_overhead_bandwidth(sabre)
        for row in table:
            assert row.effective_bandwidth_mbps <= ceiling + 1e-6

    def test_search_validation(self, sabre):
        with pytest.raises(ConfigurationError):
            max_bandwidth_for_buffer(sabre, 1.0, hiccup_target=0.0)
