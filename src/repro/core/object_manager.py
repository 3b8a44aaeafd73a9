"""The Object Manager (§4.1).

"The Object Manager maintains the availability of different objects on
the disk drives.  Once the storage capacity of the disk drives is
exhausted and a request references an object that is tertiary
resident, it implements a replacement policy that removes the least
frequently accessed object."

This module tracks residency, access frequency, pins (objects that
must not be evicted because a display or materialisation is using
them), and implements LFU replacement (with LRU available as an
ablation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.errors import CapacityError, ConfigurationError
from repro.media.catalog import Catalog


class ReplacementPolicy(enum.Enum):
    """Which resident object to evict when space is needed."""

    LFU = "lfu"
    LRU = "lru"


@dataclass
class _ObjectState:
    """Bookkeeping for one object."""

    resident: bool = False
    reserved: bool = False  # placed, materialisation in flight
    frequency: int = 0
    last_access: int = -1
    pins: int = 0


class ObjectManager:
    """Residency, access statistics, and replacement.

    Parameters
    ----------
    catalog:
        The database.
    capacity:
        Aggregate disk storage available for objects, in megabits.
    policy:
        Eviction victim selection (LFU per the paper; LRU for
        ablation).
    """

    def __init__(
        self,
        catalog: Catalog,
        capacity: float,
        policy: ReplacementPolicy = ReplacementPolicy.LFU,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        self.catalog = catalog
        self.capacity = capacity
        self.policy = policy
        self._state: Dict[int, _ObjectState] = {
            object_id: _ObjectState() for object_id in catalog.object_ids
        }
        self.used = 0.0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"<ObjectManager resident={len(self.resident_objects())} "
            f"used={self.used:.4g}/{self.capacity:.4g}mbit>"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_resident(self, object_id: int) -> bool:
        """True when the object is materialised on the disks."""
        return self._state[object_id].resident

    def resident_objects(self) -> List[int]:
        """All disk-resident object ids."""
        return [oid for oid, s in self._state.items() if s.resident]

    def frequency(self, object_id: int) -> int:
        """Accesses recorded for the object so far."""
        return self._state[object_id].frequency

    def hit_rate(self) -> float:
        """Fraction of accesses that found the object resident."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Access accounting
    # ------------------------------------------------------------------
    def record_access(self, object_id: int, interval: int) -> bool:
        """Record a reference; returns True on a residency hit."""
        state = self._state[object_id]
        state.frequency += 1
        state.last_access = interval
        if state.resident:
            self.hits += 1
            return True
        self.misses += 1
        return False

    # ------------------------------------------------------------------
    # Pins
    # ------------------------------------------------------------------
    def pin(self, object_id: int) -> None:
        """Protect the object from eviction (display/materialisation)."""
        self._state[object_id].pins += 1

    def unpin(self, object_id: int) -> None:
        """Release one pin."""
        state = self._state[object_id]
        if state.pins <= 0:
            raise CapacityError(f"unpin of unpinned object {object_id}")
        state.pins -= 1

    def is_pinned(self, object_id: int) -> bool:
        """True when at least one pin is held."""
        return self._state[object_id].pins > 0

    # ------------------------------------------------------------------
    # Residency transitions
    # ------------------------------------------------------------------
    def reserve(self, object_id: int) -> None:
        """Charge capacity for an object whose materialisation is in
        flight (placed on the drives but not yet displayable)."""
        state = self._state[object_id]
        if state.resident or state.reserved:
            return
        size = self.catalog.get(object_id).size
        if self.used + size > self.capacity + 1e-6:
            raise CapacityError(
                f"cannot reserve object {object_id}: {self.used:.4g} + "
                f"{size:.4g} > {self.capacity:.4g} (call make_room first)"
            )
        state.reserved = True
        self.used += size

    def add_resident(self, object_id: int) -> None:
        """Mark the object resident, charging its size against capacity
        (a prior reservation converts without a second charge)."""
        state = self._state[object_id]
        if state.resident:
            return
        if state.reserved:
            state.reserved = False
            state.resident = True
            return
        size = self.catalog.get(object_id).size
        if self.used + size > self.capacity + 1e-6:
            raise CapacityError(
                f"cannot add object {object_id}: {self.used:.4g} + {size:.4g} "
                f"> {self.capacity:.4g} (call make_room first)"
            )
        state.resident = True
        self.used += size

    def remove_resident(self, object_id: int) -> None:
        """Mark the object evicted, reclaiming its storage."""
        state = self._state[object_id]
        if not state.resident:
            return
        if state.pins > 0:
            raise CapacityError(f"evicting pinned object {object_id}")
        state.resident = False
        self.used -= self.catalog.get(object_id).size
        self.evictions += 1

    def choose_victim(self, protect: Optional[Set[int]] = None) -> Optional[int]:
        """Pick the eviction victim per the replacement policy.

        Returns ``None`` when no unpinned, unprotected resident object
        exists.
        """
        protect = protect or set()
        best: Optional[int] = None
        best_key: Optional[tuple] = None
        for object_id, state in self._state.items():
            if not state.resident or state.pins > 0 or object_id in protect:
                continue
            if self.policy is ReplacementPolicy.LFU:
                key = (state.frequency, state.last_access)
            else:
                key = (state.last_access, state.frequency)
            if best_key is None or key < best_key:
                best, best_key = object_id, key
        return best

    def make_room(
        self, size: float, protect: Optional[Set[int]] = None
    ) -> tuple:
        """Evict victims until ``size`` megabits fit.

        Returns ``(fits, evicted_ids)``.  ``fits`` is False when not
        enough evictable space exists (every candidate is pinned) —
        the caller should defer the materialisation rather than
        violate pins.  ``evicted_ids`` lists the objects evicted
        *either way*: the caller must reclaim their placements even on
        failure, or per-drive storage accounting leaks.
        """
        if size > self.capacity:
            raise CapacityError(
                f"object of {size:.4g}mbit can never fit in "
                f"{self.capacity:.4g}mbit of disk storage"
            )
        evicted: List[int] = []
        while self.used + size > self.capacity + 1e-6:
            victim = self.choose_victim(protect)
            if victim is None:
                return False, evicted
            self.remove_resident(victim)
            evicted.append(victim)
        return True, evicted
