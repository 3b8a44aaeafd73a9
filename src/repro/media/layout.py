"""Striping layouts: where every fragment of every object lives.

A :class:`StripingLayout` binds an object to a start drive ``p`` and a
stride ``k`` over ``D`` drives.  Fragment ``X_{i.j}`` is placed on
drive ``(p + i*k + j) mod D`` — consecutive subobjects start ``k``
drives apart (staggered striping, §3.2), and the ``M`` fragments of
one subobject occupy ``M`` consecutive drives.

Special cases:

* ``k = M`` reproduces **simple striping** (§3.1, Figure 1): physical
  clusters used round-robin.
* ``k = D`` pins every subobject to the same drives — the placement
  used by **virtual data replication** (one object per physical
  cluster).

The module also implements the §3.2.2 *data-skew* analysis: the set of
start-drive residues an object visits is ``{p + i*k mod D}``, which is
uniform over a coset of size ``D / gcd(D, k)``; relatively prime
``D, k`` (in particular ``k = 1``) guarantee no skew.

Per-drive fragment counts come from that residue view in closed form
(:func:`stride_fragment_counts`): count the subobject starts per drive,
then take a circular window sum of width ``M`` — ``O(n + D)`` array
work rather than a walk over all ``n * M`` fragments.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError, LayoutError
from repro.media.objects import FragmentAddress, MediaObject


def stride_fragment_counts(
    num_disks: int, stride: int, num_subobjects: int, degree: int, start: int
) -> List[int]:
    """Fragments per drive of one object placed with stride ``k``.

    Fragment ``X_{i.j}`` lives on drive ``(p + i*k + j) mod D``, so drive
    ``d`` holds one fragment for every subobject starting on one of the
    ``M`` drives ``d - M + 1 .. d`` (circularly).  Count the starts per
    drive with one ``bincount`` over ``p + i*k mod D``, then sum each
    circular window of width ``M`` as a difference of two prefix sums.
    Returns a length-``D`` list of Python ints.
    """
    if not 1 <= degree <= num_disks:
        raise ConfigurationError(
            f"degree must be in 1..{num_disks}, got {degree}"
        )
    starts = np.bincount(
        (start + np.arange(num_subobjects, dtype=np.int64) * stride) % num_disks,
        minlength=num_disks,
    )
    # Prepend the last M-1 drives so every window is a contiguous slice.
    wrapped = np.concatenate((starts[num_disks - degree + 1:], starts))
    prefix = np.concatenate(([0], np.cumsum(wrapped)))
    return (prefix[degree:] - prefix[:num_disks]).tolist()


class StripingLayout:
    """Placement of a set of objects across ``D`` drives with stride ``k``.

    Parameters
    ----------
    num_disks:
        ``D`` — drives in the system.
    stride:
        ``k`` — drives between the first fragments of consecutive
        subobjects, ``1 <= k <= D``.
    """

    def __init__(self, num_disks: int, stride: int) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        if not 1 <= stride <= num_disks:
            raise ConfigurationError(
                f"stride must be in 1..{num_disks}, got {stride}"
            )
        self.num_disks = num_disks
        self.stride = stride
        self._start_disk: Dict[int, int] = {}
        self._objects: Dict[int, MediaObject] = {}

    def __repr__(self) -> str:
        return (
            f"<StripingLayout D={self.num_disks} k={self.stride} "
            f"objects={len(self._objects)}>"
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, obj: MediaObject, start_disk: int) -> None:
        """Register ``obj`` with its first fragment on ``start_disk``."""
        if obj.degree > self.num_disks:
            raise LayoutError(
                f"object {obj.object_id} needs {obj.degree} drives but the "
                f"system has only {self.num_disks}"
            )
        if obj.object_id in self._objects:
            raise LayoutError(f"object {obj.object_id} is already placed")
        self._objects[obj.object_id] = obj
        self._start_disk[obj.object_id] = start_disk % self.num_disks

    def remove(self, object_id: int) -> None:
        """Forget ``object_id``'s placement (e.g. after eviction)."""
        self._objects.pop(object_id, None)
        self._start_disk.pop(object_id, None)

    def is_placed(self, object_id: int) -> bool:
        """True when the object currently has a placement."""
        return object_id in self._objects

    def placed_objects(self) -> List[int]:
        """Identifiers of all placed objects."""
        return list(self._objects)

    def start_disk(self, object_id: int) -> int:
        """Drive holding the object's first fragment ``X_{0.0}``."""
        return self._start_disk[object_id]

    def object(self, object_id: int) -> MediaObject:
        """Look up a placed object's metadata."""
        return self._objects[object_id]

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def disk_of(self, address: FragmentAddress) -> int:
        """Drive storing fragment ``X_{i.j}``: ``(p + i*k + j) mod D``."""
        obj = self._objects.get(address.object_id)
        if obj is None:
            raise LayoutError(f"object {address.object_id} is not placed")
        if not 0 <= address.subobject < obj.num_subobjects:
            raise LayoutError(f"subobject index out of range: {address}")
        if not 0 <= address.fragment < obj.degree:
            raise LayoutError(f"fragment index out of range: {address}")
        p = self._start_disk[address.object_id]
        return (p + address.subobject * self.stride + address.fragment) % self.num_disks

    def subobject_disks(self, object_id: int, subobject: int) -> List[int]:
        """The ``M`` consecutive drives holding one subobject."""
        obj = self._objects[object_id]
        first = self.disk_of(FragmentAddress(object_id, subobject, 0))
        return [(first + j) % self.num_disks for j in range(obj.degree)]

    # ------------------------------------------------------------------
    # Analysis (§3.2.2)
    # ------------------------------------------------------------------
    def disks_used(self, object_id: int) -> int:
        """Number of distinct drives the object touches.

        For strides ``k <= M`` this is ``min(D, (n-1)*k + M)`` — e.g.
        the paper's D=100, 25-subobject, M=4, k=1 object spans 28
        drives; larger strides leave gaps between subobjects.
        """
        return sum(1 for c in self.fragment_counts(object_id) if c)

    def fragment_counts(self, object_id: int) -> List[int]:
        """Fragments of the object stored per drive (length ``D``)."""
        obj = self._objects[object_id]
        return stride_fragment_counts(
            self.num_disks,
            self.stride,
            obj.num_subobjects,
            obj.degree,
            self._start_disk[object_id],
        )

    def total_fragment_counts(self) -> List[int]:
        """Fragments per drive across all placed objects."""
        counts = [0] * self.num_disks
        for object_id in self._objects:
            counts = [
                a + b for a, b in zip(counts, self.fragment_counts(object_id))
            ]
        return counts

    def skew(self, object_id: int) -> float:
        """Relative storage skew: ``(max - min) / mean`` fragment count
        over the drives the object actually uses."""
        counts = [c for c in self.fragment_counts(object_id) if c > 0]
        mean = sum(counts) / len(counts)
        return (max(counts) - min(counts)) / mean if mean else 0.0

    def residue_classes(self) -> int:
        """Distinct start-drive residues an object visits:
        ``D / gcd(D, k)``."""
        return self.num_disks // math.gcd(self.num_disks, self.stride)

    def is_skew_free_count(self, num_subobjects: int) -> bool:
        """§3.2.2 rule: per-drive load is perfectly balanced when the
        subobject count is a multiple of ``D / gcd(D, k)``."""
        return num_subobjects % self.residue_classes() == 0


def simple_striping_layout(num_disks: int, degree: int) -> StripingLayout:
    """Simple striping: stride equals the degree of declustering, so
    subobjects rotate over ``R = D / M`` non-overlapping physical
    clusters (§3.1, Figure 1)."""
    if degree < 1:
        raise ConfigurationError(f"degree must be >= 1, got {degree}")
    if num_disks % degree != 0:
        raise ConfigurationError(
            f"simple striping needs D divisible by M: D={num_disks}, M={degree}"
        )
    return StripingLayout(num_disks=num_disks, stride=degree)


def staggered_layout(num_disks: int, stride: int = 1) -> StripingLayout:
    """Staggered striping with an arbitrary stride (default 1, the
    skew-free choice)."""
    return StripingLayout(num_disks=num_disks, stride=stride)


def virtual_replication_layout(num_disks: int) -> StripingLayout:
    """The degenerate ``k = D`` placement: every subobject of an object
    occupies the same ``M`` drives — one physical cluster."""
    return StripingLayout(num_disks=num_disks, stride=num_disks)


def render_layout(
    layout: StripingLayout,
    object_ids: Sequence[int],
    labels: Dict[int, str],
    num_subobjects: int,
) -> List[List[str]]:
    """Render placement rows like the paper's Figures 1, 4, and 5.

    Returns ``num_subobjects`` rows of ``D`` cells; cell text is
    ``"<label><i>.<j>"`` (e.g. ``"X2.1"``) or ``""`` for empty.
    Raises :class:`LayoutError` if two fragments collide in one cell
    for the same subobject row (which would indicate a bad placement).
    """
    rows: List[List[str]] = [[""] * layout.num_disks for _ in range(num_subobjects)]
    for object_id in object_ids:
        label = labels[object_id]
        obj = layout.object(object_id)
        for i in range(min(num_subobjects, obj.num_subobjects)):
            for j in range(obj.degree):
                disk = layout.disk_of(FragmentAddress(object_id, i, j))
                if rows[i][disk]:
                    raise LayoutError(
                        f"cell collision at row {i} disk {disk}: "
                        f"{rows[i][disk]} vs {label}{i}.{j}"
                    )
                rows[i][disk] = f"{label}{i}.{j}"
    return rows
