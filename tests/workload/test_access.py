"""Tests for access distributions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from repro.workload.access import GeometricAccess, UniformAccess
from tests.oracles.access import effective_working_set


class TestGeometricAccess:
    def test_samples_are_valid_ids(self, stream):
        access = GeometricAccess(list(range(100, 300)), mean=10.0, stream=stream)
        for _ in range(500):
            assert 100 <= access.sample() < 300

    def test_hotter_objects_sampled_more(self, stream):
        access = GeometricAccess(list(range(50)), mean=5.0, stream=stream)
        counts = {}
        for _ in range(20000):
            oid = access.sample()
            counts[oid] = counts.get(oid, 0) + 1
        assert counts.get(0, 0) > counts.get(10, 0) > counts.get(40, 0)

    def test_popularity_ranking_is_catalog_order(self, stream):
        ids = [5, 9, 1]
        access = GeometricAccess(ids, mean=10.0, stream=stream)
        assert access.popularity_ranking() == ids

    def test_working_set_grows_with_mean(self, stream):
        small = GeometricAccess(list(range(2000)), 10.0, stream)
        large = GeometricAccess(list(range(2000)), 43.5, stream)
        assert effective_working_set(small.mean, 2000) < effective_working_set(
            large.mean, 2000
        )

    def test_empty_ids_rejected(self, stream):
        with pytest.raises(ConfigurationError):
            GeometricAccess([], 10.0, stream)

    def test_deterministic_for_seed(self):
        a = GeometricAccess(list(range(100)), 10.0, RandomStream(1))
        b = GeometricAccess(list(range(100)), 10.0, RandomStream(1))
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]


class TestUniformAccess:
    def test_roughly_flat(self, stream):
        access = UniformAccess(list(range(10)), stream)
        counts = [0] * 10
        n = 20000
        for _ in range(n):
            counts[access.sample()] += 1
        for count in counts:
            assert count / n == pytest.approx(0.1, abs=0.02)

    def test_empty_rejected(self, stream):
        with pytest.raises(ConfigurationError):
            UniformAccess([], stream)
