"""Tests for the MRT replication policy."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.vdr.clusters import ClusterArray
from repro.vdr.replication import MRTReplication


def build(threshold=1, frequencies=None, pinned=None):
    array = ClusterArray(num_disks=20, degree=5, capacity_objects=1)
    frequencies = frequencies or {}
    pinned = pinned or set()
    policy = MRTReplication(
        array,
        frequencies=frequencies,
        pins={oid: 1 for oid in pinned},
        threshold=threshold,
    )
    return array, policy


class TestTrigger:
    def test_replicates_when_waiters_exceed_copies(self):
        array, policy = build()
        array.add_copy(1, 0)
        assert policy.should_replicate(1, still_waiting=1)

    def test_no_replication_without_waiters(self):
        array, policy = build()
        array.add_copy(1, 0)
        assert not policy.should_replicate(1, still_waiting=0)

    def test_threshold_scales_with_copies(self):
        array, policy = build(threshold=2)
        array.add_copy(1, 0)
        array.add_copy(1, 1)
        assert not policy.should_replicate(1, still_waiting=3)
        assert policy.should_replicate(1, still_waiting=4)

    def test_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            build(threshold=0)


class TestVictimSelection:
    def test_prefers_empty_clusters(self):
        array, policy = build(frequencies={1: 100})
        array.add_copy(1, 0)
        victim = policy.choose_victim(interval=0)
        assert victim is not None
        assert not victim.resident  # an empty cluster beats any content

    def test_prefers_cold_content(self):
        array, policy = build(frequencies={1: 100, 2: 1, 3: 50})
        for cluster, obj in enumerate((1, 2, 3)):
            array.add_copy(obj, cluster)
        array.add_copy(99, 3)  # fills the last cluster; freq 0
        victim = policy.choose_victim(interval=0)
        assert 99 in victim.resident

    def test_surplus_replicas_are_cheap(self):
        """A second copy of a hot object is cheaper than the single
        copy of a lukewarm one (value = freq / copies)."""
        array, policy = build(frequencies={1: 100, 2: 60})
        array.add_copy(1, 0)
        array.add_copy(1, 1)  # copy value 50
        array.add_copy(2, 2)  # copy value 60
        array.add_copy(1, 3)  # third copy -> value 33
        victim = policy.choose_victim(interval=0)
        assert 1 in victim.resident

    def test_pinned_last_copy_protected(self):
        array, policy = build(frequencies={1: 0}, pinned={1})
        array.add_copy(1, 0)
        for cluster, obj in enumerate((2, 3, 4), start=1):
            array.add_copy(obj, cluster)
        victim = policy.choose_victim(interval=0)
        assert victim is not None
        assert 1 not in victim.resident

    def test_pinned_with_multiple_copies_still_evictable(self):
        array, policy = build(frequencies={1: 0}, pinned={1})
        array.add_copy(1, 0)
        array.add_copy(1, 1)
        for cluster, obj in enumerate((2, 3), start=2):
            array.add_copy(obj, cluster)
        victim = policy.choose_victim(interval=0)
        assert victim is not None

    def test_busy_clusters_skipped(self):
        array, policy = build()
        for cluster in array.clusters:
            cluster.occupy(0, 10, "display", 9)
        assert policy.choose_victim(interval=0) is None

    def test_protect_object_not_chosen(self):
        array, policy = build(frequencies={})
        array.add_copy(5, 0)
        for cluster in array.clusters[1:]:
            cluster.occupy(0, 10, "display", 9)
        assert policy.choose_victim(interval=0, protect_object=5) is None
