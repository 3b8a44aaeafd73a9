"""Tests for striping layouts against the paper's figures."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, LayoutError
from repro.media.layout import StripingLayout
from repro.media.objects import FragmentAddress
from tests.conftest import make_object
from tests.oracles.closed_forms import (
    disks_used_by_object,
    is_perfectly_balanced,
    residue_classes,
    skew_profile,
)
from tests.oracles.layouts import render_layout, simple_striping_layout


def subobject_disks(layout, object_id, subobject):
    """The ``M`` drives holding one subobject, read off ``disk_of``."""
    degree = layout.object(object_id).degree
    return [
        layout.disk_of(FragmentAddress(object_id, subobject, j))
        for j in range(degree)
    ]


def disks_used(layout, object_id):
    """Drives the placed object touches, from its per-drive counts."""
    return sum(1 for count in layout.fragment_counts(object_id) if count)


class TestFigure1SimpleStriping:
    """Figure 1: X (M=3) over 9 drives, clusters used round-robin."""

    @pytest.fixture
    def layout(self):
        layout = simple_striping_layout(num_disks=9, degree=3)
        layout.place(make_object(num_subobjects=6, degree=3), start_disk=0)
        return layout

    def test_subobject_zero_on_cluster_zero(self, layout):
        assert subobject_disks(layout, 0, 0) == [0, 1, 2]

    def test_subobject_one_on_cluster_one(self, layout):
        assert subobject_disks(layout, 0, 1) == [3, 4, 5]

    def test_round_robin_wraps(self, layout):
        assert subobject_disks(layout, 0, 3) == [0, 1, 2]

    def test_simple_striping_requires_divisibility(self):
        with pytest.raises(ConfigurationError):
            simple_striping_layout(num_disks=10, degree=3)


class TestFigure4Staggered:
    """Figure 4: X (M=3) over 8 drives with stride 1."""

    @pytest.fixture
    def layout(self):
        layout = StripingLayout(num_disks=8, stride=1)
        layout.place(make_object(num_subobjects=10, degree=3), start_disk=0)
        return layout

    def test_consecutive_subobjects_shift_by_one(self, layout):
        for i in range(9):
            first_i = layout.disk_of(FragmentAddress(0, i, 0))
            first_next = layout.disk_of(FragmentAddress(0, i + 1, 0))
            assert first_next == (first_i + 1) % 8

    def test_fragments_occupy_consecutive_disks(self, layout):
        for i in range(10):
            disks = subobject_disks(layout, 0, i)
            for j in range(1, 3):
                assert disks[j] == (disks[0] + j) % 8


class TestFigure5MixedMedia:
    """Figure 5: Y (M=4) at drive 0, X (M=3) at 4, Z (M=2) at 7; D=12."""

    @pytest.fixture
    def layout(self):
        layout = StripingLayout(num_disks=12, stride=1)
        layout.place(make_object(1, bandwidth=80.0, num_subobjects=13, degree=4), 0)
        layout.place(make_object(2, bandwidth=60.0, num_subobjects=13, degree=3), 4)
        layout.place(make_object(3, bandwidth=40.0, num_subobjects=13, degree=2), 7)
        return layout

    def test_row_zero_matches_paper(self, layout):
        grid = render_layout(layout, [1, 2, 3], {1: "Y", 2: "X", 3: "Z"}, 1)
        assert grid[0] == [
            "Y0.0", "Y0.1", "Y0.2", "Y0.3",
            "X0.0", "X0.1", "X0.2",
            "Z0.0", "Z0.1",
            "", "", "",
        ]

    def test_row_four_wraps_like_paper(self, layout):
        """Paper row 4: Z4.1 on drive 0, Y4 on 4-7, X4 on 8-10, Z4.0 on 11."""
        grid = render_layout(layout, [1, 2, 3], {1: "Y", 2: "X", 3: "Z"}, 5)
        row = grid[4]
        assert row[0] == "Z4.1"
        assert row[4:8] == ["Y4.0", "Y4.1", "Y4.2", "Y4.3"]
        assert row[8:11] == ["X4.0", "X4.1", "X4.2"]
        assert row[11] == "Z4.0"

    def test_no_collisions_in_thirteen_rows(self, layout):
        render_layout(layout, [1, 2, 3], {1: "Y", 2: "X", 3: "Z"}, 13)


class TestVirtualReplicationPlacement:
    def test_all_subobjects_on_same_disks(self):
        layout = StripingLayout(num_disks=10, stride=10)
        layout.place(make_object(num_subobjects=8, degree=4), start_disk=2)
        for i in range(8):
            assert subobject_disks(layout, 0, i) == [2, 3, 4, 5]

    def test_disks_used_equals_degree(self):
        layout = StripingLayout(num_disks=10, stride=10)
        layout.place(make_object(num_subobjects=8, degree=4), start_disk=0)
        assert disks_used(layout, 0) == disks_used_by_object(10, 10, 8, 4) == 4


class TestSection322Arithmetic:
    def test_disks_used_with_k1_matches_paper(self):
        """D=100, 25 subobjects, M=4, k=1 -> 28 drives."""
        layout = StripingLayout(num_disks=100, stride=1)
        layout.place(make_object(num_subobjects=25, degree=4), start_disk=0)
        assert disks_used(layout, 0) == disks_used_by_object(100, 1, 25, 4) == 28

    def test_disks_used_with_k_equals_m_spreads_fully(self):
        layout = StripingLayout(num_disks=100, stride=4)
        layout.place(make_object(num_subobjects=25, degree=4), start_disk=0)
        assert disks_used(layout, 0) == disks_used_by_object(100, 4, 25, 4) == 100

    def test_residue_classes(self):
        assert residue_classes(10, 4) == 5
        assert residue_classes(10, 3) == 10
        assert residue_classes(10, 10) == 1

    def test_skew_free_count_rule(self):
        # D=10, k=4: gcd 2, 5 residue classes; M=2 is a multiple of 2.
        assert is_perfectly_balanced(10, 4, 5, 2)
        assert is_perfectly_balanced(10, 4, 10, 2)
        assert not is_perfectly_balanced(10, 4, 7, 2)
        layout = StripingLayout(num_disks=10, stride=4)
        layout.place(make_object(num_subobjects=10, degree=2), start_disk=0)
        assert len(set(layout.fragment_counts(0))) == 1

    def test_stride_one_has_zero_skew_for_multiples_of_d(self):
        layout = StripingLayout(num_disks=10, stride=1)
        layout.place(make_object(num_subobjects=20, degree=3), start_disk=0)
        assert len(set(layout.fragment_counts(0))) == 1
        assert skew_profile(10, 1, 20, 3)["relative_skew"] == 0.0

    def test_balanced_counts_with_coprime_stride(self):
        layout = StripingLayout(num_disks=10, stride=3)
        layout.place(make_object(num_subobjects=10, degree=2), start_disk=0)
        counts = layout.fragment_counts(0)
        assert max(counts) - min(counts) == 0


class TestPlacementManagement:
    def test_double_placement_rejected(self):
        layout = StripingLayout(8, stride=1)
        obj = make_object(degree=2)
        layout.place(obj, 0)
        with pytest.raises(LayoutError):
            layout.place(obj, 3)

    def test_remove_then_replace(self):
        layout = StripingLayout(8, stride=1)
        obj = make_object(degree=2)
        layout.place(obj, 0)
        layout.remove(0)
        assert not layout.is_placed(0)
        layout.place(obj, 5)
        assert layout.start_disk(0) == 5

    def test_degree_larger_than_d_rejected(self):
        layout = StripingLayout(2, stride=1)
        with pytest.raises(LayoutError):
            layout.place(make_object(degree=3), 0)

    def test_out_of_range_addresses_rejected(self):
        layout = StripingLayout(8, stride=1)
        layout.place(make_object(num_subobjects=2, degree=2), 0)
        with pytest.raises(LayoutError):
            layout.disk_of(FragmentAddress(0, 2, 0))
        with pytest.raises(LayoutError):
            layout.disk_of(FragmentAddress(0, 0, 2))
        with pytest.raises(LayoutError):
            layout.disk_of(FragmentAddress(99, 0, 0))

    def test_total_fragment_counts_sums_objects(self):
        layout = StripingLayout(6, stride=1)
        layout.place(make_object(0, num_subobjects=6, degree=2), 0)
        layout.place(make_object(1, num_subobjects=6, degree=2), 3)
        total = [sum(c) for c in zip(*map(layout.fragment_counts, (0, 1)))]
        assert sum(total) == 2 * 6 * 2

    def test_stride_bounds(self):
        with pytest.raises(ConfigurationError):
            StripingLayout(num_disks=8, stride=0)
        with pytest.raises(ConfigurationError):
            StripingLayout(num_disks=8, stride=9)
