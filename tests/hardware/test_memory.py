"""Tests for buffer memory accounting (Equation 1)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from tests.oracles.closed_forms import minimum_display_memory


class TestEquationOne:
    def test_formula(self):
        # B_disk x (T_switch + T_sector)
        assert minimum_display_memory(20.0, 0.05183, 0.001) == pytest.approx(
            20.0 * 0.05283
        )

    def test_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            minimum_display_memory(0.0, 0.05, 0.001)
        with pytest.raises(ConfigurationError):
            minimum_display_memory(20.0, -0.05, 0.001)

