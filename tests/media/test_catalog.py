"""Tests for the object catalog."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.media.catalog import Catalog, build_uniform_catalog
from repro.media.objects import MediaObject, MediaType
from tests.conftest import make_object


class TestCatalog:
    def test_lookup_and_membership(self):
        catalog = Catalog([make_object(0), make_object(1)])
        assert len(catalog) == 2
        assert 1 in catalog
        assert 5 not in catalog
        assert catalog.get(1).object_id == 1

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            Catalog([make_object(0), make_object(0)])

    def test_total_size(self):
        catalog = Catalog([make_object(0, num_subobjects=2, degree=2,
                                       fragment_size=10.0)])
        assert catalog.total_size == pytest.approx(40.0)

    def test_iteration_order(self):
        catalog = Catalog([make_object(3), make_object(1)])
        assert [o.object_id for o in catalog] == [3, 1]
        assert catalog.object_ids == [3, 1]


class TestUniformCatalog:
    def test_paper_database(self):
        media = MediaType("video", 100.0)
        catalog = build_uniform_catalog(
            num_objects=2000,
            media_type=media,
            num_subobjects=3000,
            degree=5,
            fragment_size=12.096,
        )
        assert len(catalog) == 2000
        obj = catalog.get(0)
        assert obj.num_subobjects == 3000
        assert obj.degree == 5
        # Database is ~10x the 1000-drive array's 4.54 GB capacity.
        array_capacity = 1000 * 3000 * 12.096
        assert catalog.total_size / array_capacity == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_uniform_catalog(0, MediaType("v", 1.0), 1, 1, 1.0)


def mixed_catalog(rates, disk_bandwidth=20.0):
    """One object per display rate, each declustered over its own
    ``M = ceil(B_display / B_disk)`` drives (§3.2, Figure 5)."""
    return Catalog([
        MediaObject(
            object_id=i,
            media_type=MediaType(f"m{i}", rate),
            num_subobjects=5,
            degree=MediaType(f"m{i}", rate).degree_of_declustering(disk_bandwidth),
            fragment_size=1.0,
        )
        for i, rate in enumerate(rates)
    ])


class TestMixedCatalog:
    def test_degrees_derived_from_disk_bandwidth(self):
        catalog = mixed_catalog([40.0, 60.0, 80.0, 80.0])
        degrees = [obj.degree for obj in catalog]
        assert degrees == [2, 3, 4, 4]

    def test_max_degree(self):
        catalog = mixed_catalog([20.0, 95.0])
        assert max(obj.degree for obj in catalog) == 5
