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

The start-drive residues an object visits are ``{p + i*k mod D}``,
uniform over a coset of size ``D / gcd(D, k)`` (§3.2.2).  Per-drive
fragment counts come from that residue view in closed form
(:func:`stride_fragment_counts`): the start drive ``p`` only rotates
the counts, so the ``p = 0`` counts are computed once per
``(D, k, n, M)`` and every placement returns a rotated copy of them
rather than walking all ``n * M`` fragments.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Dict, List

from repro.errors import ConfigurationError, LayoutError
from repro.media.objects import FragmentAddress, MediaObject


@lru_cache(maxsize=64)
def _origin_counts(
    num_disks: int, stride: int, num_subobjects: int, degree: int
) -> List[int]:
    """Fragments per drive of an object starting on drive 0.

    The memoised list is shared by every caller of the key: it is only
    ever sliced, never handed out or written.
    """
    starts = [0] * num_disks
    for i in range(num_subobjects):
        starts[i * stride % num_disks] += 1
    # Prepend the last M-1 drives so every window is a contiguous run.
    prefix = [0, *accumulate(starts[num_disks - degree + 1:] + starts)]
    return list(map(sub, prefix[degree:], prefix))


def stride_fragment_counts(
    num_disks: int, stride: int, num_subobjects: int, degree: int, start: int
) -> List[int]:
    """Fragments per drive of one object placed with stride ``k``.

    Fragment ``X_{i.j}`` lives on drive ``(p + i*k + j) mod D``, so drive
    ``d`` holds one fragment for every subobject starting on one of the
    ``M`` drives ``d - M + 1 .. d`` (circularly).  For ``p = 0`` count
    the starts per drive over ``i*k mod D`` and sum each circular window
    of width ``M``; those counts are memoised per ``(D, k, n, M)``.  A
    start ``p`` shifts every fragment ``p mod D`` drives to the right,
    so the result is the ``p = 0`` counts rotated right by that much.
    Returns a fresh length-``D`` list of Python ints.
    """
    if not 1 <= degree <= num_disks:
        raise ConfigurationError(
            f"degree must be in 1..{num_disks}, got {degree}"
        )
    origin = _origin_counts(num_disks, stride, num_subobjects, degree)
    cut = num_disks - start % num_disks
    return origin[cut:] + origin[:cut]


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

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
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
