"""The disk array: ``D`` drives with per-interval bandwidth slots and
per-drive storage accounting.

The striping protocol quantises time into fixed intervals; within one
interval a drive delivers at most one fragment (or, in the
low-bandwidth mode of §3.2.3, two *half-interval* sub-fragments, the
drive behaving as two logical disks of half the bandwidth).  The
array therefore tracks, per interval, two *half-slots* per drive, and
cumulatively tracks the cylinders occupied by resident fragments.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError, FaultError, SchedulingError
from repro.hardware.disk import DiskModel

#: Bandwidth slots per drive per interval (two half-slots).
SLOTS_PER_DISK = 2


@dataclass
class DiskState:
    """Mutable per-drive state: storage used and this interval's claims."""

    index: int
    used_cylinders: float = 0.0
    #: Half-slots claimed in the current interval, keyed by owner.
    claims: Dict[Hashable, int] = field(default_factory=dict)
    #: True while the drive is down (failed, not yet rebuilt).
    failed: bool = False

    @property
    def claimed_slots(self) -> int:
        """Half-slots consumed so far in the current interval."""
        return sum(self.claims.values())

    @property
    def free_slots(self) -> int:
        """Half-slots still available in the current interval.

        A failed drive delivers nothing: its half-slots are gone until
        it is repaired and rebuilt.
        """
        if self.failed:
            return 0
        return SLOTS_PER_DISK - self.claimed_slots


class DiskArray:
    """``D`` drives sharing one :class:`DiskModel`.

    Responsibilities:

    * per-interval bandwidth claims (full drive or logical half drive);
    * cumulative storage accounting with capacity checks;
    * utilisation statistics (claimed slots per interval).
    """

    def __init__(self, model: DiskModel, num_disks: int) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        self.model = model
        self.num_disks = num_disks
        self.disks: List[DiskState] = [DiskState(index=i) for i in range(num_disks)]
        self.intervals_elapsed = 0
        self._slot_interval_sum = 0
        self._claimed_this_interval = 0
        # Incrementally maintained aggregates: a version counter bumped
        # by every state change the sanitize sweep inspects, and the
        # sorted failed-drive indices (so "which drives are down?" never
        # scans D drives).
        self._version = 0
        self._failed: List[int] = []
        self._verified_clean_version: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"<DiskArray D={self.num_disks} model={self.model.name} "
            f"interval={self.intervals_elapsed}>"
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> float:
        """Aggregate capacity of the array in megabits."""
        return self.num_disks * self.model.capacity

    def used_cylinders(self, disk: int) -> float:
        """Cylinders currently occupied on drive ``disk``."""
        return self.disks[disk].used_cylinders

    def observe_storage(self, registry, prefix: str = "disk.storage_cylinders") -> None:
        """Record per-drive used cylinders into a
        :class:`repro.obs.metrics.MetricsRegistry` gauge family."""
        for disk in self.disks:
            registry.gauge(prefix, disk=disk.index).set(disk.used_cylinders)

    def free_cylinders(self, disk: int) -> float:
        """Cylinders still free on drive ``disk``."""
        return self.model.num_cylinders - self.disks[disk].used_cylinders

    def store(self, disk: int, cylinders: float) -> None:
        """Occupy ``cylinders`` on drive ``disk`` (raises on overflow)."""
        self._check_room(disk, cylinders)
        self.disks[disk].used_cylinders += cylinders
        self._version += 1

    def store_all(self, cylinders: Sequence[float]) -> None:
        """Occupy ``cylinders[d]`` on every drive ``d`` at once.

        Every drive is checked before any is charged, so an overflow
        raises :class:`CapacityError` with the array unchanged.
        """
        charges = [(d, c) for d, c in enumerate(cylinders) if c]
        for disk, amount in charges:
            self._check_room(disk, amount)
        for disk, amount in charges:
            self.disks[disk].used_cylinders += amount
        self._version += 1

    def _check_room(self, disk: int, cylinders: float) -> None:
        used = self.disks[disk].used_cylinders
        if used + cylinders > self.model.num_cylinders + 1e-9:
            raise CapacityError(
                f"disk {disk} overflow: {used:.2f} + "
                f"{cylinders:.2f} > {self.model.num_cylinders}"
            )

    def evict(self, disk: int, cylinders: float) -> None:
        """Free ``cylinders`` on drive ``disk``."""
        state = self.disks[disk]
        if cylinders > state.used_cylinders + 1e-9:
            raise CapacityError(
                f"disk {disk} underflow: evicting {cylinders:.2f} from "
                f"{state.used_cylinders:.2f}"
            )
        state.used_cylinders = max(0.0, state.used_cylinders - cylinders)
        self._version += 1

    def storage_skew(self) -> Tuple[float, float]:
        """Return ``(min, max)`` used cylinders across drives."""
        used = [d.used_cylinders for d in self.disks]
        return min(used), max(used)

    # ------------------------------------------------------------------
    # Per-interval bandwidth claims
    # ------------------------------------------------------------------
    def begin_interval(self) -> None:
        """Start a new time interval: all bandwidth claims reset."""
        if self._claimed_this_interval:
            self._version += 1
            for state in self.disks:
                state.claims.clear()
        self._slot_interval_sum += self._claimed_this_interval
        self._claimed_this_interval = 0
        self.intervals_elapsed += 1

    def is_idle(self, disk: int) -> bool:
        """True when no half-slot of ``disk`` is claimed this interval."""
        return self.disks[disk].claimed_slots == 0

    def free_slots(self, disk: int) -> int:
        """Free half-slots on ``disk`` this interval."""
        return self.disks[disk].free_slots

    def claim(self, disk: int, owner: Hashable, slots: int = SLOTS_PER_DISK) -> None:
        """Claim ``slots`` half-slots of ``disk`` for ``owner``.

        A full-bandwidth fragment read claims both half-slots; a
        low-bandwidth (§3.2.3) read claims one.  Claims against a
        failed drive are rejected outright.
        """
        if slots < 1 or slots > SLOTS_PER_DISK:
            raise SchedulingError(f"claim of {slots} half-slots is invalid")
        state = self.disks[disk]
        if state.failed:
            raise FaultError(
                f"disk {disk} is failed; cannot claim {slots} half-slots "
                f"for {owner!r} in interval {self.intervals_elapsed}"
            )
        if state.free_slots < slots:
            raise SchedulingError(
                f"disk {disk} oversubscribed in interval "
                f"{self.intervals_elapsed}: {state.claims} + {owner}:{slots}"
            )
        state.claims[owner] = state.claims.get(owner, 0) + slots
        self._claimed_this_interval += slots
        self._version += 1

    def release(self, disk: int, owner: Hashable) -> None:
        """Drop ``owner``'s claim on ``disk`` within the current interval."""
        state = self.disks[disk]
        slots = state.claims.pop(owner, 0)
        if slots:
            self._claimed_this_interval -= slots
            self._version += 1

    # ------------------------------------------------------------------
    # Failure / repair (degraded mode; see repro.faults)
    # ------------------------------------------------------------------
    def fail(self, disk: int) -> float:
        """Mark drive ``disk`` failed; returns the cylinders it held.

        The drive's half-slots drop to zero (its in-flight claims this
        interval are dropped — those reads are the ones the fault
        coordinator reconstructs or tallies as hiccups) and its
        resident fragments are physically lost until rebuilt.  The
        *logical* placement bookkeeping is untouched: the returned
        cylinder count is exactly the rebuild work.
        """
        state = self.disks[disk]
        if state.failed:
            raise FaultError(f"disk {disk} is already failed")
        dropped = state.claimed_slots
        if dropped:
            self._claimed_this_interval -= dropped
            state.claims.clear()
        state.failed = True
        bisect.insort(self._failed, disk)
        self._version += 1
        return state.used_cylinders

    def repair(self, disk: int) -> None:
        """Bring drive ``disk`` back online (hardware replaced).

        The drive is immediately claimable again; restoring its data is
        the rebuild process's job (:mod:`repro.faults`).
        """
        state = self.disks[disk]
        if not state.failed:
            raise FaultError(f"disk {disk} is not failed")
        state.failed = False
        self._failed.remove(disk)
        self._version += 1

    def is_failed(self, disk: int) -> bool:
        """True while drive ``disk`` is down."""
        return self.disks[disk].failed

    @property
    def version(self) -> int:
        """Monotone counter bumped by every inspected-state change."""
        return self._version

    @property
    def has_failures(self) -> bool:
        """True while any drive is down — O(1), no drive scan."""
        return bool(self._failed)

    @property
    def failed_count(self) -> int:
        """Number of currently failed drives."""
        return len(self._failed)

    @property
    def free_half_total(self) -> int:
        """Free half-slots across healthy drives this interval."""
        return (
            (self.num_disks - len(self._failed)) * SLOTS_PER_DISK
            - self._claimed_this_interval
        )

    def failed_disks(self) -> List[int]:
        """Indices of currently failed drives, ascending (a copy)."""
        return list(self._failed)

    def reconstruction_claim(
        self, failed_disk: int, owner: Hashable, survivors: List[int],
        halves: int = 1,
    ) -> None:
        """Charge a degraded read of ``failed_disk`` to its survivors.

        Reconstructing a fragment of the failed drive costs ``halves``
        half-slots on *each* surviving member of its redundancy group
        (the mirror partner, or every other drive of the parity
        group).  The charge is atomic: either every survivor has the
        bandwidth and all are claimed, or nothing is.
        """
        if not self.disks[failed_disk].failed:
            raise FaultError(
                f"disk {failed_disk} is healthy; nothing to reconstruct"
            )
        if not survivors:
            raise FaultError(
                f"disk {failed_disk} has no survivors to reconstruct from"
            )
        for survivor in survivors:
            state = self.disks[survivor]
            if state.failed or state.free_slots < halves:
                raise SchedulingError(
                    f"survivor {survivor} cannot absorb a {halves}-half "
                    f"reconstruction claim for failed disk {failed_disk}"
                )
        for survivor in survivors:
            self.claim(survivor, owner=owner, slots=halves)

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(self, sanitizer, interval: int) -> None:
        """Half-slot accounting checks, reported to ``sanitizer``.

        Per drive: claims fit the two half-slots, every claim is
        positive, a failed drive holds nothing, and storage stays in
        ``[0, capacity]``.  Across the array: the running claim total
        equals the per-drive sum (the pair is updated on separate code
        paths — claim/release/fail — and drifting apart would corrupt
        the utilisation statistics silently), and the sorted
        failed-drive list matches a recount.  The O(D) sweep is skipped
        while the array is unchanged since its last clean sweep (same
        ``version``): every mutation path bumps the version, so any new
        state is swept at least once, and re-verifying untouched clean
        state can only re-tally zero.
        """
        if (
            self._verified_clean_version is not None
            and self._verified_clean_version == self._version
        ):
            return
        violations_before = sanitizer.total
        claimed_total = 0
        failed_recount: List[int] = []
        for state in self.disks:
            claimed = state.claimed_slots
            claimed_total += claimed
            if state.failed:
                failed_recount.append(state.index)
            sanitizer.expect(
                claimed <= SLOTS_PER_DISK,
                "half_slots",
                f"disk {state.index} oversubscribed in interval "
                f"{interval}: {state.claims!r}",
            )
            sanitizer.expect(
                all(halves > 0 for halves in state.claims.values()),
                "half_slots",
                f"disk {state.index} holds a non-positive claim in "
                f"interval {interval}: {state.claims!r}",
            )
            if state.failed:
                sanitizer.expect(
                    claimed == 0,
                    "half_slots",
                    f"failed disk {state.index} still holds claims in "
                    f"interval {interval}: {state.claims!r}",
                )
            sanitizer.expect(
                -1e-9 <= state.used_cylinders
                <= self.model.num_cylinders + 1e-9,
                "storage_bounds",
                f"disk {state.index} used_cylinders "
                f"{state.used_cylinders} outside [0, "
                f"{self.model.num_cylinders}]",
            )
        sanitizer.expect(
            claimed_total == self._claimed_this_interval,
            "half_slots",
            f"array claim total drifted in interval {interval}: running "
            f"sum {self._claimed_this_interval} != per-drive sum "
            f"{claimed_total}",
        )
        sanitizer.expect(
            failed_recount == self._failed,
            "occ_index",
            f"failed-drive list drifted in interval {interval}: running "
            f"list {self._failed} != recount {failed_recount}",
        )
        self._verified_clean_version = (
            self._version if sanitizer.total == violations_before else None
        )

    def idle_disks(self) -> List[int]:
        """Indices of fully idle drives this interval."""
        return [d.index for d in self.disks if d.claimed_slots == 0]

    def busy_disks(self) -> List[int]:
        """Indices of drives with at least one claim this interval."""
        return [d.index for d in self.disks if d.claimed_slots > 0]

    def utilization(self) -> float:
        """Mean fraction of half-slots claimed per elapsed interval."""
        if self.intervals_elapsed == 0:
            return 0.0
        total_slots = self.intervals_elapsed * self.num_disks * SLOTS_PER_DISK
        return (self._slot_interval_sum + self._claimed_this_interval) / total_slots
