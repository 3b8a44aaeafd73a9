"""Tests for the tertiary storage device."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.tertiary import TertiaryDevice


@pytest.fixture
def device():
    return TertiaryDevice(bandwidth=40.0, reposition_time=5.0)


class TestServiceTimes:
    def test_transfer_time(self, device):
        assert device.transfer_time(400.0) == pytest.approx(10.0)

    def test_fragment_ordered_adds_one_reposition(self, device):
        assert device.service_time_fragment_ordered(400.0) == pytest.approx(15.0)

    def test_sequential_adds_reposition_per_subobject(self, device):
        assert device.service_time_sequential(400.0, 20) == pytest.approx(110.0)

    def test_sequential_validates_subobjects(self, device):
        with pytest.raises(ConfigurationError):
            device.service_time_sequential(400.0, 0)


class TestValidation:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            TertiaryDevice(bandwidth=0.0)

    def test_rejects_negative_reposition(self):
        with pytest.raises(ConfigurationError):
            TertiaryDevice(bandwidth=10.0, reposition_time=-1.0)
