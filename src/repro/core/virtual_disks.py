"""Virtual disks and the slot pool (§3.2.1).

Because every display (and every materialisation) shifts ``k`` drives
per interval, the busy/idle pattern of the array rotates rigidly.  The
paper captures this with *virtual disks*: positions in the rotating
frame.  We index virtual disks so that

    ``physical(z, t) = (z + k·t) mod D``

i.e. virtual disk ``z`` sits over physical drive ``z`` at interval 0
and advances ``k`` drives to the right each interval.  (The paper
writes ``(i - kt) mod D``; the two differ only in the direction the
frame is labelled — our form makes "the data shifts right" read
directly.)  A display that owns a virtual disk owns it for its entire
duration, so admission control reduces to finding free slots in the
rotating frame — the *time fragmentation* problem.

Each virtual disk carries **two half-slots**: a full-bandwidth
fragment read claims both, while the low-bandwidth objects of §3.2.3
claim one each, the drive behaving as two logical disks of half the
bandwidth.

:class:`SlotPool` is the allocator and the simulator's one
per-interval occupancy record (the Disk Manager's busy/idle state of
§4.1): it tracks (half-)slot ownership and answers the
modular-arithmetic question "when does slot ``z`` next pass over
physical drive ``d``?".  Work that lasts exactly one interval — the
fault path's rebuild writes and degraded-mode reconstructions — takes
owner-less *holds* (:meth:`SlotPool.hold`), which count against the
same free-half index and are all returned at once by
:meth:`SlotPool.drop_holds`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import ConfigurationError, SchedulingError

#: Half-slots per virtual disk.
HALVES_PER_SLOT = 2


def physical_disk_of_slot(slot: int, interval: int, stride: int, num_disks: int) -> int:
    """Physical drive under virtual disk ``slot`` at ``interval``."""
    return (slot + stride * interval) % num_disks


def slot_at_physical(disk: int, interval: int, stride: int, num_disks: int) -> int:
    """Virtual disk currently over physical drive ``disk``."""
    return (disk - stride * interval) % num_disks


def first_arrival(
    slot: int, target_disk: int, stride: int, num_disks: int, not_before: int
) -> Optional[int]:
    """Earliest interval ``t >= not_before`` with
    ``physical(slot, t) == target_disk``.

    Solves ``k·t ≡ (target - slot) (mod D)``.  Returns ``None`` when no
    solution exists (``gcd(k, D)`` does not divide the offset) — e.g.
    with simple striping (``k = M``) a slot only ever visits drives in
    its own residue class.
    """
    offset = (target_disk - slot) % num_disks
    g = math.gcd(stride, num_disks)
    if offset % g != 0:
        return None
    d_r = num_disks // g
    # Solve (k/g)·t ≡ (offset/g) (mod D/g); k/g is invertible mod D/g.
    if d_r == 1:
        base = 0
    else:
        k_r = (stride // g) % d_r
        inverse = pow(k_r, -1, d_r)
        base = (offset // g) * inverse % d_r
    if base >= not_before:
        return base
    cycles = (not_before - base + d_r - 1) // d_r
    return base + cycles * d_r


class SlotPool:
    """Ownership of the ``D`` virtual disks at half-slot granularity.

    Owners are opaque hashables (display ids, materialisation ids).
    Holds (:meth:`hold`) take half-slots with no owner until
    :meth:`drop_holds`.  The pool enforces that a slot's two half-slots
    are never oversubscribed, owned and held halves together — that
    invariant is what guarantees no physical drive is ever asked for
    more than one full-bandwidth fragment (or two half-bandwidth
    sub-fragments) in one interval.
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
        # slot -> {owner: halves}
        self._owners: Dict[int, Dict[Hashable, int]] = {}
        # Owner-less holds, (slot, halves), until drop_holds.  A slot
        # may appear more than once.
        self._held: List[Tuple[int, int]] = []
        # Incremental occupancy index: per-slot free-half counts,
        # capacity buckets and the free-half total, so every occupancy
        # query is O(1) instead of a scan.  It holds exactly the
        # information derivable from ``_owners`` and ``_held``, and the
        # sanitizer recounts it from them on every sweep.
        # free halves per slot (dense; slots are 0..D-1)
        self._free: List[int] = [HALVES_PER_SLOT] * num_disks
        # _buckets[h] = number of slots with exactly h free halves
        self._buckets: List[int] = [0] * HALVES_PER_SLOT + [num_disks]
        self._free_half_total = num_disks * HALVES_PER_SLOT
        # Bumped on every successful claim, release, hold and drop;
        # lets the sanitize clean-skip memo detect "nothing changed"
        # in O(1).
        self._version = 0
        self._verified_clean_version: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"<SlotPool D={self.num_disks} k={self.stride} "
            f"occupied={self.busy_count}>"
        )

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    @property
    def busy_count(self) -> int:
        """Slots with at least one claimed or held half."""
        return self.num_disks - self._buckets[HALVES_PER_SLOT]

    @property
    def free_count(self) -> int:
        """Fully free slots."""
        return self._buckets[HALVES_PER_SLOT]

    @property
    def version(self) -> int:
        """Monotone counter bumped by every successful claim, release,
        hold and drop."""
        return self._version

    def claimed_halves(self, slot: int) -> int:
        """Half-slots of ``slot`` currently claimed or held."""
        return HALVES_PER_SLOT - self._free[slot % self.num_disks]

    def free_halves(self, slot: int) -> int:
        """Half-slots of ``slot`` still free."""
        return self._free[slot % self.num_disks]

    def is_free(self, slot: int, halves: int = HALVES_PER_SLOT) -> bool:
        """True when ``slot`` has at least ``halves`` free half-slots."""
        return self.free_halves(slot) >= halves

    @property
    def free_half_total(self) -> int:
        """Free half-slots across the whole pool."""
        return self._free_half_total

    def owners_of(self, slot: int) -> Dict[Hashable, int]:
        """Current owners of ``slot`` with their half counts."""
        return dict(self._owners.get(slot % self.num_disks, {}))

    def free_slots(self) -> List[int]:
        """All fully free slots, ascending."""
        return [
            z for z, free in enumerate(self._free) if free == HALVES_PER_SLOT
        ]

    def busy_physical_disks(self, interval: int) -> List[int]:
        """Physical drives under the busy (owned or held) slots at
        ``interval``, in no particular order.

        ``physical_of(z, interval)`` over every busy slot ``z``, with
        the rotation arithmetic hoisted out of the loop — this sits on
        the telemetry hot path (once per sample per busy slot).
        """
        d = self.num_disks
        offset = (self.stride * interval) % d
        owners = self._owners
        slots = list(owners)
        if self._held:
            slots += {slot for slot, _ in self._held if slot not in owners}
        return [(slot + offset) % d for slot in slots]

    def slots_of(self, owner: Hashable) -> List[int]:
        """Slots in which ``owner`` holds at least one half."""
        return [z for z, owners in self._owners.items() if owner in owners]

    def claim(self, slot: int, owner: Hashable, halves: int = HALVES_PER_SLOT) -> None:
        """Give ``halves`` half-slots of ``slot`` to ``owner``.

        A rejected claim raises :class:`SchedulingError` and changes
        nothing.  Capacity is read from the free-half index, which the
        sanitizer recounts from ownership."""
        if not 1 <= halves <= HALVES_PER_SLOT:
            raise SchedulingError(f"claim of {halves} half-slots is invalid")
        slot %= self.num_disks
        before = self._free[slot]
        if halves > before:
            raise SchedulingError(
                f"virtual disk {slot} oversubscribed: "
                f"{self._owners.get(slot, {})!r} + {owner!r}:{halves}"
            )
        holders = self._owners.get(slot)
        if holders is None:
            self._owners[slot] = {owner: halves}
        else:
            holders[owner] = holders.get(owner, 0) + halves
        after = before - halves
        self._free[slot] = after
        self._buckets[before] -= 1
        self._buckets[after] += 1
        self._free_half_total -= halves
        self._version += 1

    def release(self, slot: int, owner: Hashable) -> int:
        """Return all of ``owner``'s halves of ``slot``; returns count.

        Releasing an owner that holds nothing there raises
        :class:`SchedulingError` and changes nothing."""
        slot %= self.num_disks
        holders = self._owners.get(slot)
        if holders is None or owner not in holders:
            raise SchedulingError(
                f"virtual disk {slot} holds nothing for {owner!r}"
            )
        halves = holders.pop(owner)
        if not holders:
            del self._owners[slot]
        before = self._free[slot]
        after = before + halves
        self._free[slot] = after
        self._buckets[before] -= 1
        self._buckets[after] += 1
        self._free_half_total += halves
        self._version += 1
        return halves

    def release_all(self, owner: Hashable) -> int:
        """Return every half-slot of ``owner``; returns slots touched."""
        slots = self.slots_of(owner)
        for slot in slots:
            self.release(slot, owner)
        return len(slots)

    # ------------------------------------------------------------------
    # Owner-less holds (one-interval work)
    # ------------------------------------------------------------------
    def hold(self, slot: int, halves: int) -> None:
        """Hold ``halves`` half-slots of ``slot`` until
        :meth:`drop_holds`, with no owner.

        Capacity is checked as :meth:`claim` checks it: a rejected hold
        raises :class:`SchedulingError` and changes nothing."""
        if not 1 <= halves <= HALVES_PER_SLOT:
            raise SchedulingError(f"hold of {halves} half-slots is invalid")
        slot %= self.num_disks
        before = self._free[slot]
        if halves > before:
            raise SchedulingError(
                f"virtual disk {slot} oversubscribed: "
                f"{self._owners.get(slot, {})!r} + hold:{halves}"
            )
        after = before - halves
        self._free[slot] = after
        self._buckets[before] -= 1
        self._buckets[after] += 1
        self._free_half_total -= halves
        self._held.append((slot, halves))
        self._version += 1

    def drop_holds(self) -> None:
        """Return every held half-slot."""
        free = self._free
        buckets = self._buckets
        total = 0
        for slot, halves in self._held:
            before = free[slot]
            after = before + halves
            free[slot] = after
            buckets[before] -= 1
            buckets[after] += 1
            total += halves
        self._held.clear()
        self._free_half_total += total
        self._version += 1

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(self, sanitizer, interval: int) -> None:
        """Half-slot accounting over the rotating frame.

        Every occupied virtual disk holds between 1 and
        ``HALVES_PER_SLOT`` claimed and held halves, each owner and
        each hold a positive count, and no empty owner map lingers.
        The sweep also recounts the per-slot free counts, capacity
        buckets, and free-half total from ownership and holds —
        and is skipped entirely while the pool is unchanged since its
        last clean sweep (same ``version``): re-verifying untouched,
        known-clean state can only re-tally zero.
        """
        if self._verified_clean_version == self._version:
            return
        violations_before = sanitizer.total
        held_on: Dict[int, int] = {}
        for slot, halves in self._held:
            sanitizer.expect(
                0 < halves <= HALVES_PER_SLOT,
                "half_slots",
                f"virtual disk {slot} holds {halves} half-slots in "
                f"interval {interval}",
            )
            held_on[slot] = held_on.get(slot, 0) + halves
        for slot, holders in self._owners.items():
            sanitizer.expect(
                bool(holders),
                "half_slots",
                f"virtual disk {slot} has an empty owner map in "
                f"interval {interval}",
            )
            used = sum(holders.values()) + held_on.get(slot, 0)
            sanitizer.expect(
                0 < used <= HALVES_PER_SLOT,
                "half_slots",
                f"virtual disk {slot} oversubscribed in interval "
                f"{interval}: {holders!r} + held {held_on.get(slot, 0)}",
            )
            sanitizer.expect(
                all(halves > 0 for halves in holders.values()),
                "half_slots",
                f"virtual disk {slot} holds a non-positive claim in "
                f"interval {interval}: {holders!r}",
            )
        for slot, halves in held_on.items():
            if slot not in self._owners:
                sanitizer.expect(
                    halves <= HALVES_PER_SLOT,
                    "half_slots",
                    f"virtual disk {slot} oversubscribed in interval "
                    f"{interval}: held {halves}",
                )
        expected_free = [HALVES_PER_SLOT] * self.num_disks
        for slot, holders in self._owners.items():
            expected_free[slot] -= sum(holders.values())
        for slot, halves in held_on.items():
            expected_free[slot] -= halves
        sanitizer.expect(
            self._free == expected_free,
            "occ_index",
            f"free-half index diverged from ownership and holds in "
            f"interval {interval}",
        )
        expected_buckets = [0] * (HALVES_PER_SLOT + 1)
        for free in expected_free:
            if 0 <= free <= HALVES_PER_SLOT:
                expected_buckets[free] += 1
        sanitizer.expect(
            self._buckets == expected_buckets,
            "occ_index",
            f"capacity buckets diverged in interval {interval}: "
            f"{self._buckets} != {expected_buckets}",
        )
        sanitizer.expect(
            self._free_half_total == sum(expected_free),
            "occ_index",
            f"free-half total diverged in interval {interval}: "
            f"{self._free_half_total} != {sum(expected_free)}",
        )
        self._verified_clean_version = (
            self._version if sanitizer.total == violations_before else None
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def physical_of(self, slot: int, interval: int) -> int:
        """Physical drive under ``slot`` at ``interval``."""
        return physical_disk_of_slot(slot, interval, self.stride, self.num_disks)

    def slot_at(self, disk: int, interval: int) -> int:
        """Slot over physical drive ``disk`` at ``interval``."""
        return slot_at_physical(disk, interval, self.stride, self.num_disks)

    def arrival(self, slot: int, target_disk: int, not_before: int) -> Optional[int]:
        """Earliest interval ≥ ``not_before`` at which ``slot`` passes
        over ``target_disk`` (None when unreachable)."""
        return first_arrival(
            slot, target_disk, self.stride, self.num_disks, not_before
        )
