"""Tests for media types, objects, and fragment addressing."""

from __future__ import annotations

import pytest

from repro.core.lowbw import degree_in_halves
from repro.errors import ConfigurationError
from repro.media.objects import FragmentAddress, MediaObject, MediaType
from tests.conftest import make_object


class TestMediaType:
    def test_degree_of_declustering_examples(self):
        """The paper's M = ceil(B_display / B_disk) examples."""
        assert MediaType("X", 60.0).degree_of_declustering(20.0) == 3
        assert MediaType("Y", 120.0).degree_of_declustering(20.0) == 6
        assert MediaType("Z", 40.0).degree_of_declustering(20.0) == 2
        assert MediaType("table3", 100.0).degree_of_declustering(20.0) == 5

    def test_degree_rounds_up_for_fractional(self):
        assert MediaType("odd", 30.0).degree_of_declustering(20.0) == 2

    def test_low_bandwidth_needs_one_disk(self):
        assert MediaType("audio", 1.5).degree_of_declustering(20.0) == 1

    def test_logical_degree_in_half_disks(self):
        for media, halves in (
            (MediaType("half", 10.0), 1),
            (MediaType("x15", 30.0), 3),
            (MediaType("full", 100.0), 10),
        ):
            assert degree_in_halves(media.display_bandwidth, 20.0) == halves

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MediaType("bad", 0.0)
        with pytest.raises(ConfigurationError):
            MediaType("x", 10.0).degree_of_declustering(0.0)


class TestMediaObject:
    def test_sizes(self):
        obj = make_object(num_subobjects=10, degree=4, fragment_size=12.0)
        assert obj.subobject_size == pytest.approx(48.0)
        assert obj.size == pytest.approx(480.0)
        assert len(list(obj.fragments())) == 40

    def test_display_time(self):
        obj = make_object(bandwidth=60.0, num_subobjects=10, degree=3,
                          fragment_size=12.0)
        assert obj.display_time == pytest.approx(360.0 / 60.0)

    def test_paper_object_displays_1814_seconds(self, table3):
        obj = make_object(
            bandwidth=100.0,
            num_subobjects=3000,
            degree=5,
            fragment_size=table3.cylinder_capacity,
        )
        assert obj.display_time == pytest.approx(1814.4)

    def test_fragments_enumerate_subobject_major(self):
        obj = make_object(num_subobjects=2, degree=2)
        addresses = list(obj.fragments())
        assert addresses == [
            FragmentAddress(0, 0, 0),
            FragmentAddress(0, 0, 1),
            FragmentAddress(0, 1, 0),
            FragmentAddress(0, 1, 1),
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_object(num_subobjects=0)
        with pytest.raises(ConfigurationError):
            make_object(degree=0)
        with pytest.raises(ConfigurationError):
            make_object(fragment_size=0.0)


class TestFragmentAddress:
    def test_ordering_is_subobject_major(self):
        a = FragmentAddress(0, 1, 2)
        b = FragmentAddress(0, 2, 0)
        assert a < b

    def test_str(self):
        assert str(FragmentAddress(7, 2, 1)) == "7:2.1"

    def test_hashable(self):
        assert len({FragmentAddress(0, 0, 0), FragmentAddress(0, 0, 0)}) == 1
