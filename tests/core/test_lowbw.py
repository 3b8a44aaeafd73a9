"""Tests for low-bandwidth objects and Figure 7 (§3.2.3)."""

from __future__ import annotations

import pytest

from repro.core.lowbw import degree_in_halves
from repro.errors import ConfigurationError
from tests.oracles.lowbw import (
    figure7_schedule,
    half_disk_waste,
    validate_figure7_schedule,
    whole_disk_waste,
)


class TestRoundingWaste:
    def test_paper_example_30mbps(self):
        """30 mbps on 20 mbps drives wastes 25% of two drives."""
        assert whole_disk_waste(30.0, 20.0) == pytest.approx(0.25)

    def test_paper_example_exact_half_fit(self):
        """B = 3/2 B_disk fits exactly in 3 logical half-disks."""
        assert half_disk_waste(30.0, 20.0) == pytest.approx(0.0)

    def test_half_disks_never_worse(self):
        for display in (5.0, 11.0, 25.0, 33.0, 47.0, 61.0):
            assert half_disk_waste(display, 20.0) <= whole_disk_waste(
                display, 20.0
            ) + 1e-12

    def test_multiple_of_disk_wastes_nothing(self):
        assert whole_disk_waste(100.0, 20.0) == pytest.approx(0.0)
        assert half_disk_waste(100.0, 20.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            whole_disk_waste(0.0, 20.0)
        with pytest.raises(ConfigurationError):
            half_disk_waste(10.0, 0.0)


class TestDegreeInHalves:
    def test_values(self):
        assert degree_in_halves(10.0, 20.0) == 1
        assert degree_in_halves(20.0, 20.0) == 2
        assert degree_in_halves(30.0, 20.0) == 3
        assert degree_in_halves(100.0, 20.0) == 10


class TestFigure7:
    def test_first_interval_matches_paper(self):
        actions = figure7_schedule(3)
        # First half-interval: read X0, transmit X0a.
        assert actions[0].reads == ("X0",)
        assert actions[0].transmits == ("X0a",)
        # Second half: read Y0, transmit X0b (buffered) and Y0a.
        assert actions[1].reads == ("Y0",)
        assert set(actions[1].transmits) == {"X0b", "Y0a"}

    def test_second_interval_carries_y_buffer(self):
        actions = figure7_schedule(3)
        assert actions[2].reads == ("X1",)
        assert set(actions[2].transmits) == {"X1a", "Y0b"}

    def test_trailing_drain(self):
        actions = figure7_schedule(2)
        assert actions[-1].reads == ()
        assert actions[-1].transmits == ("Y1b",)

    def test_schedule_validates_clean(self):
        validate_figure7_schedule(figure7_schedule(10))

    def test_both_streams_continuous(self):
        actions = figure7_schedule(5)
        validate_figure7_schedule(actions)  # raises on any gap

    def test_validator_catches_duplicates(self):
        actions = figure7_schedule(2)
        broken = actions + [actions[0]]
        with pytest.raises(ConfigurationError):
            validate_figure7_schedule(broken)

    def test_validator_catches_gaps(self):
        actions = figure7_schedule(3)
        with pytest.raises(ConfigurationError):
            validate_figure7_schedule(actions[:2] + actions[3:])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            figure7_schedule(0)
