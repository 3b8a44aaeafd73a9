"""Tests validating Equation 1 via the station-buffer dynamics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from tests.oracles.station import (
    equation1_buffer,
    hiccup_rate_over_switches,
    sectors_per_fragment,
    simulate_switch,
    worst_case_switch,
)

#: One 512-byte-ish sector in megabits (4 KB for round numbers).
SECTOR = 0.032768

#: A single drive's share of the display stream: its effective rate.
RATE = 20.0


class TestEquationOneBound:
    def test_eq1_buffer_survives_worst_case(self, sabre):
        buffer = equation1_buffer(RATE, sabre, SECTOR)
        outcome = worst_case_switch(sabre, buffer, RATE, SECTOR)
        assert not outcome.hiccup
        assert outcome.minimum_level >= -1e-9

    def test_eq1_bound_is_tight(self, sabre):
        """One sector less than Eq. 1 and the worst case underruns."""
        buffer = equation1_buffer(RATE, sabre, SECTOR) - SECTOR
        outcome = worst_case_switch(sabre, buffer, RATE, SECTOR)
        assert outcome.hiccup

    def test_minimum_is_at_first_sector(self, sabre):
        buffer = equation1_buffer(RATE, sabre, SECTOR)
        outcome = worst_case_switch(sabre, buffer, RATE, SECTOR)
        t_sector = SECTOR / sabre.transfer_rate
        expected = buffer - RATE * (sabre.t_switch + t_sector)
        assert outcome.minimum_level == pytest.approx(expected, abs=1e-9)

    def test_fast_reposition_keeps_slack(self, sabre):
        buffer = equation1_buffer(RATE, sabre, SECTOR)
        outcome = simulate_switch(
            sabre, buffer, RATE, reposition_time=sabre.min_seek,
            sector_size=SECTOR,
        )
        assert outcome.minimum_level > 0


class TestStochasticSwitches:
    def test_eq1_buffer_never_hiccups(self, sabre):
        buffer = equation1_buffer(RATE, sabre, SECTOR)
        rate = hiccup_rate_over_switches(
            sabre, buffer, RATE, SECTOR, switches=2000,
            stream=RandomStream(5),
        )
        assert rate == 0.0

    def test_half_buffer_hiccups_sometimes(self, sabre):
        buffer = equation1_buffer(RATE, sabre, SECTOR) / 2
        rate = hiccup_rate_over_switches(
            sabre, buffer, RATE, SECTOR, switches=2000,
            stream=RandomStream(5),
        )
        assert rate > 0.0


class TestValidation:
    def test_sectors_per_fragment(self, sabre):
        count = sectors_per_fragment(sabre, SECTOR)
        assert count == pytest.approx(sabre.cylinder_capacity / SECTOR, abs=1)

    def test_bad_inputs(self, sabre):
        with pytest.raises(ConfigurationError):
            sectors_per_fragment(sabre, 0.0)
        with pytest.raises(ConfigurationError):
            simulate_switch(sabre, -1.0, RATE, 0.01, SECTOR)
        with pytest.raises(ConfigurationError):
            simulate_switch(sabre, 1.0, RATE, sabre.t_switch + 1.0, SECTOR)
        with pytest.raises(ConfigurationError):
            hiccup_rate_over_switches(
                sabre, 1.0, RATE, SECTOR, 0, RandomStream(1)
            )
