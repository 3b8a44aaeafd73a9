"""Tests for unit helpers, the error hierarchy, and report formatting."""

from __future__ import annotations

import pytest

from repro import errors, units
from repro.analysis.reporting import format_table


class TestUnits:
    def test_megabytes_to_megabits(self):
        assert units.megabytes(1.512) == pytest.approx(12.096)

    def test_msec_roundtrip(self):
        assert units.msec(35.0) == pytest.approx(0.035)

    def test_per_hour(self):
        assert units.per_hour(1.0) == 3600.0

    def test_identity_helpers(self):
        assert units.mbps(20) == 20.0
        assert units.seconds(2) == 2.0


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.ConfigurationError,
            errors.SchedulingError,
            errors.CapacityError,
            errors.LayoutError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_single_catch_covers_library_errors(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchedulingError("hiccup")


class TestFormatTable:
    def test_aligned_columns(self):
        text = format_table(
            [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], columns=["a", "b"]
        )
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_floats_rounded(self):
        text = format_table([{"v": 3.14159}])
        assert "3.14" in text and "3.14159" not in text

    def test_missing_keys_blank(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "1" in text and "2" in text

    def test_empty(self):
        assert format_table([]) == "(no rows)"
