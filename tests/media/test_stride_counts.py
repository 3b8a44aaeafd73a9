"""Differential tests for the closed-form per-drive fragment counts.

:func:`repro.media.layout.stride_fragment_counts` replaces a walk over
every fragment ``X_{i.j}`` of an object.  The walk survives here as
the oracle: drive ``(p + i*k + j) mod D`` gains one fragment for every
``i < n`` and ``j < M``.  The layout queries and the §3.2.2 skew
analysis built on the kernel are checked against set- and loop-based
oracles over the same space, including strides with ``gcd(D, k) != 1``
and the ``k = D`` placement of virtual data replication.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.skew import disks_used_by_object, skew_profile
from repro.core.disk_manager import DiskManager
from repro.errors import CapacityError, ConfigurationError, FaultError
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.media.layout import StripingLayout, stride_fragment_counts
from repro.sim.sanitize import Sanitizer
from repro.simulation.config import ScaledConfig
from repro.simulation.runner import build_engine
from tests.conftest import make_object


def walk_counts(d: int, k: int, n: int, m: int, p: int) -> List[int]:
    """Per-fragment walk: the reference the kernel must equal."""
    counts = [0] * d
    for i in range(n):
        for j in range(m):
            counts[(p + i * k + j) % d] += 1
    return counts


def walk_disks(d: int, k: int, n: int, m: int, p: int) -> set:
    return {(p + i * k + j) % d for i in range(n) for j in range(m)}


@st.composite
def placements(draw):
    """(D, k, n, M, p) with D in 1..64, k and M in 1..D, n in 1..300
    and p in 0..3D-1; k = D and gcd(D, k) > 1 are drawn often."""
    d = draw(st.integers(min_value=1, max_value=64))
    k = draw(
        st.one_of(
            st.integers(min_value=1, max_value=d),
            st.just(d),
            st.sampled_from([s for s in range(1, d + 1) if d % s == 0]),
        )
    )
    n = draw(st.integers(min_value=1, max_value=300))
    m = draw(st.integers(min_value=1, max_value=d))
    p = draw(st.integers(min_value=0, max_value=3 * d - 1))
    return d, k, n, m, p


class TestKernelAgainstWalk:
    @given(placements())
    @example((1, 1, 1, 1, 0))
    @example((1, 1, 300, 1, 2))
    @example((12, 12, 7, 4, 30))  # k = D: one fixed drive group
    @example((12, 4, 25, 3, 5))  # gcd(D, k) = 4
    @example((10, 3, 300, 10, 29))  # M = D: every drive holds n
    @settings(max_examples=400, deadline=None)
    def test_counts_equal_per_fragment_walk(self, params):
        d, k, n, m, p = params
        counts = stride_fragment_counts(d, k, n, m, p)
        assert counts == walk_counts(d, k, n, m, p)
        assert all(type(c) is int for c in counts)

    @given(placements())
    @example((12, 4, 25, 3, 0))
    @example((12, 4, 25, 3, 12))  # p = D: no rotation
    @example((12, 4, 25, 3, 35))  # p > 2D
    @settings(max_examples=200, deadline=None)
    def test_start_drive_rotates_the_origin_counts(self, params):
        """§3.2.2: the start drive ``p`` moves every fragment ``p mod D``
        drives to the right and changes nothing else."""
        d, k, n, m, p = params
        origin = stride_fragment_counts(d, k, n, m, 0)
        shift = p % d
        assert stride_fragment_counts(d, k, n, m, p) == (
            origin[d - shift:] + origin[:d - shift]
        )

    @pytest.mark.parametrize("start", [0, 3, 10])
    def test_returned_list_is_the_callers_own(self, start):
        """Counts are memoised per (D, k, n, M): writing to one result
        must not reach the next call's."""
        expected = walk_counts(10, 3, 7, 2, start)
        first = stride_fragment_counts(10, 3, 7, 2, start)
        first[0] += 100
        first.append(1)
        second = stride_fragment_counts(10, 3, 7, 2, start)
        assert second == expected
        second.clear()
        assert stride_fragment_counts(10, 3, 7, 2, 0) == walk_counts(
            10, 3, 7, 2, 0
        )

    def test_degree_outside_one_to_d_rejected(self):
        with pytest.raises(ConfigurationError):
            stride_fragment_counts(4, 1, 3, 5, 0)
        with pytest.raises(ConfigurationError):
            stride_fragment_counts(4, 1, 3, 0, 0)


class TestLayoutQueriesAgainstOracles:
    @given(placements())
    @example((12, 12, 7, 4, 30))
    @example((100, 1, 25, 4, 0))  # the paper's 28-drive example
    @settings(max_examples=200, deadline=None)
    def test_layout_counts_disks_used_and_skew(self, params):
        d, k, n, m, p = params
        layout = StripingLayout(num_disks=d, stride=k)
        layout.place(make_object(num_subobjects=n, degree=m), start_disk=p)
        oracle = walk_counts(d, k, n, m, p)
        counts = layout.fragment_counts(0)
        assert counts == oracle
        assert all(type(c) is int for c in counts)
        assert layout.disks_used(0) == len(walk_disks(d, k, n, m, p))
        touched = [c for c in oracle if c]
        mean = sum(touched) / len(touched)
        assert layout.skew(0) == (max(touched) - min(touched)) / mean

    @given(placements(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_total_counts_sum_every_object(self, params, objects):
        d, k, n, m, p = params
        layout = StripingLayout(num_disks=d, stride=k)
        expected = [0] * d
        for object_id in range(objects):
            start = p + 7 * object_id
            layout.place(
                make_object(object_id, num_subobjects=n, degree=m), start
            )
            for disk, c in enumerate(walk_counts(d, k, n, m, start)):
                expected[disk] += c
        total = layout.total_fragment_counts()
        assert total == expected
        assert all(type(c) is int for c in total)

    @given(placements())
    @example((12, 12, 7, 4, 0))
    @settings(max_examples=200, deadline=None)
    def test_analysis_matches_loop_oracles(self, params):
        d, k, n, m, _ = params
        oracle = walk_counts(d, k, n, m, 0)
        touched = [c for c in oracle if c]
        mean = sum(touched) / len(touched)
        assert disks_used_by_object(d, k, n, m) == len(walk_disks(d, k, n, m, 0))
        assert skew_profile(d, k, n, m) == {
            "min": float(min(touched)),
            "max": float(max(touched)),
            "mean": mean,
            "relative_skew": (max(touched) - min(touched)) / mean,
            "disks_used": float(len(touched)),
        }


class TestAtomicPlacement:
    def test_overflow_on_a_middle_drive_changes_nothing(self):
        array = DiskArray(model=TABLE3_DISK, num_disks=10)
        manager = DiskManager(array=array, stride=1, fragment_cylinders=2)
        manager.place_object(make_object(0, num_subobjects=4, degree=2))
        # Fill drive 5 so the next object's fragments there cannot fit.
        array.store_all(
            only(5, TABLE3_DISK.num_cylinders - array.used_cylinders(5) - 1, 10)
        )
        before = used_cylinders(array)
        version = array.version
        obj = make_object(1, num_subobjects=6, degree=3)  # drives 1..8
        with pytest.raises(CapacityError):
            manager.place_object(obj)
        assert not manager.is_placed(1)
        assert used_cylinders(array) == before
        assert array.version == version
        # The failed placement consumed no start drive.
        array.evict_all(only(5, array.used_cylinders(5), 10))
        assert manager.place_object(obj) == 1


def only(disk: int, cylinders: float, num_disks: int) -> List[float]:
    """A charge vector holding ``cylinders`` on ``disk`` alone."""
    charges = [0.0] * num_disks
    charges[disk] = cylinders
    return charges


def used_cylinders(array: DiskArray) -> List[int]:
    """Used cylinders per drive (index = drive number)."""
    return [array.used_cylinders(d) for d in range(array.num_disks)]


def _storage_oracle(manager: DiskManager) -> List[int]:
    layout = manager.layout
    expected = [0] * manager.num_disks
    for object_id in layout.placed_objects():
        obj = layout.object(object_id)
        counts = walk_counts(
            manager.num_disks,
            manager.stride,
            obj.num_subobjects,
            obj.degree,
            layout.start_disk(object_id),
        )
        for disk, c in enumerate(counts):
            expected[disk] += c * manager.fragment_cylinders
    return expected


@pytest.mark.parametrize(
    "fields",
    [
        {"technique": "staggered", "stride": 1},
        {"technique": "simple"},
        {"technique": "staggered", "stride": 20},  # k = D
    ],
    ids=["staggered", "simple", "k_equals_d"],
)
def test_storage_profile_matches_walk_after_evict_and_replace(fields):
    """Preload, then evict two objects and re-place them on each
    other's start drives: every drive's used cylinders equal
    ``fragment_cylinders`` times the walked fragment counts of the
    objects placed on it."""
    config = ScaledConfig(scale=50).with_(**fields)
    assert config.num_disks == 20
    manager = build_engine(config).policy.disk_manager
    placed = manager.layout.placed_objects()
    assert len(placed) >= 2
    assert used_cylinders(manager.array) == _storage_oracle(manager)

    a, b = placed[len(placed) // 2], placed[-1]
    objects = [manager.layout.object(a), manager.layout.object(b)]
    starts = [manager.start_disk(a), manager.start_disk(b)]
    manager.evict_object(a)
    manager.evict_object(b)
    assert used_cylinders(manager.array) == _storage_oracle(manager)
    manager.place_object(objects[0], start_disk=starts[1])
    manager.place_object(objects[1], start_disk=starts[0])
    assert manager.start_disk(a) == starts[1]
    assert used_cylinders(manager.array) == _storage_oracle(manager)


def first_overflow(used, charges, capacity):
    """The overflow message of a drive-by-drive room check in drive
    order, or ``None`` when every drive has the room."""
    for disk, (held, amount) in enumerate(zip(used, charges)):
        if amount and held + amount > capacity + 1e-9:
            return f"disk {disk} overflow: {held:.2f} + {amount:.2f} > {capacity}"
    return None


@st.composite
def accounting_runs(draw):
    """A small array and a sequence of placements, evictions, drive
    failures and repairs, and over-large refunds.  Capacities are small
    so that placements overflow often."""
    d = draw(st.integers(min_value=1, max_value=32))
    k = draw(
        st.one_of(
            st.integers(min_value=1, max_value=d),
            st.sampled_from([s for s in range(1, d + 1) if d % s == 0]),
        )
    )
    setup = {
        "num_disks": d,
        "stride": k,
        "fragment_cylinders": draw(st.sampled_from([1, 2, 3])),
        "placement_alignment": draw(st.integers(min_value=1, max_value=d)),
        "capacity": draw(st.integers(min_value=1, max_value=80)),
    }
    drive = st.integers(min_value=0, max_value=d - 1)
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("place"),
                    st.integers(min_value=1, max_value=40),
                    st.integers(min_value=1, max_value=d),
                    st.one_of(st.none(), st.integers(0, 2 * d)),
                ),
                st.tuples(st.just("evict"), st.integers(0, 63)),
                st.tuples(st.just("fail"), drive),
                st.tuples(st.just("repair"), drive),
                st.tuples(
                    st.just("refund"),
                    st.lists(drive, min_size=1, max_size=3),
                    st.sampled_from([1e-10, 1e-6, 1.0, 7.5]),
                ),
            ),
            max_size=30,
        )
    )
    return setup, steps


@given(accounting_runs())
@settings(max_examples=300, deadline=None)
def test_vector_accounting_matches_the_walk_after_any_sequence(run):
    """Whole-vector storage accounting against the per-fragment walk.

    After every placement, eviction, failure and repair each drive's
    used cylinders equal ``fragment_cylinders`` times the walked counts
    of the objects placed on it.  An overflowing placement raises the
    message of a drive-by-drive room check (first overflowing drive in
    drive order) and leaves the layout, the usage, the next start drive
    and the array version as they were; so does an underflowing
    ``evict_all``, naming the first drive that holds too little, and a
    refund inside the tolerance clamps to zero.
    """
    setup, steps = run
    d = setup["num_disks"]
    capacity = setup["capacity"]
    model = dataclasses.replace(TABLE3_DISK, num_cylinders=capacity)
    array = DiskArray(model=model, num_disks=d)
    manager = DiskManager(
        array=array,
        stride=setup["stride"],
        fragment_cylinders=setup["fragment_cylinders"],
        placement_alignment=setup["placement_alignment"],
    )
    failed = set()
    next_id = 0
    for step in steps:
        kind = step[0]
        before = used_cylinders(array)
        placed = manager.layout.placed_objects()
        next_start = manager._next_start
        version = array.version
        if kind == "place":
            _, n, m, start = step
            obj = make_object(next_id, num_subobjects=n, degree=m)
            next_id += 1
            p = next_start if start is None else start
            charges = [
                c * manager.fragment_cylinders
                for c in walk_counts(d, manager.stride, n, m, p)
            ]
            message = first_overflow(before, charges, capacity)
            if message is None:
                assert manager.place_object(obj, start) == p % d
            else:
                with pytest.raises(CapacityError) as raised:
                    manager.place_object(obj, start)
                assert str(raised.value) == message
                assert manager.layout.placed_objects() == placed
                assert used_cylinders(array) == before
                assert manager._next_start == next_start
                assert array.version == version
        elif kind == "evict" and placed:
            manager.evict_object(placed[step[1] % len(placed)])
        elif kind == "fail":
            disk = step[1]
            if disk in failed:
                with pytest.raises(FaultError):
                    array.fail(disk)
            else:
                assert array.fail(disk) == before[disk]
                failed.add(disk)
        elif kind == "repair":
            disk = step[1]
            if disk in failed:
                array.repair(disk)
                failed.discard(disk)
            else:
                with pytest.raises(FaultError):
                    array.repair(disk)
        elif kind == "refund":
            _, short, extra = step
            charges = list(before)
            for disk in short:
                charges[disk] = before[disk] + extra
            if extra > 1e-9:
                first = min(short)
                with pytest.raises(CapacityError) as raised:
                    array.evict_all(charges)
                assert str(raised.value) == (
                    f"disk {first} underflow: evicting "
                    f"{charges[first]:.2f} from {before[first]:.2f}"
                )
                assert used_cylinders(array) == before
                assert array.version == version
            else:
                array.evict_all(charges)
                assert used_cylinders(array) == [0.0] * d
                # Put the refunded storage back for the oracle.
                array.store_all(before)
        assert used_cylinders(array) == _storage_oracle(manager)
        assert [x for x in range(d) if array.is_failed(x)] == sorted(failed)
        sanitizer = Sanitizer(mode="check")
        array.verify_invariants(sanitizer, interval=0)
        assert sanitizer.total == 0
