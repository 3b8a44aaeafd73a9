"""The disk array: ``D`` drives with per-drive storage accounting and
failure state.

Per-interval bandwidth is not tracked here.  Which virtual disk (and
so which physical drive) each display reads in an interval is the
rotating :class:`~repro.core.virtual_disks.SlotPool`'s business — the
one half-slot accountant.  The array keeps what outlives an interval:
the cylinders occupied by resident fragments and which drives are down.
"""

from __future__ import annotations

import bisect
from itertools import repeat
from operator import add, sub
from typing import List, Optional, Sequence

from repro.errors import CapacityError, ConfigurationError, FaultError
from repro.hardware.disk import DiskModel


class DiskArray:
    """``D`` drives sharing one :class:`DiskModel`.

    Responsibilities:

    * cumulative storage accounting with capacity checks;
    * failure state (which drives are down, what each failure lost).

    The per-drive state is two flat length-``D`` lists, used cylinders
    and down flags, so placing or evicting an object charges the whole
    count vector at once instead of calling into each drive.
    """

    def __init__(self, model: DiskModel, num_disks: int) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        self.model = model
        self.num_disks = num_disks
        self._used: List[float] = [0.0] * num_disks
        #: ``_down[d]`` is True while drive ``d`` is down (failed, not
        #: yet rebuilt).
        self._down: List[bool] = [False] * num_disks
        self._limit = model.num_cylinders + 1e-9
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
            f"failed={self._failed}>"
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def used_cylinders(self, disk: int) -> float:
        """Cylinders currently occupied on drive ``disk``."""
        return self._used[disk]

    def observe_storage(self, registry, prefix: str = "disk.storage_cylinders") -> None:
        """Record per-drive used cylinders into a
        :class:`repro.obs.metrics.MetricsRegistry` gauge family."""
        for disk, used in enumerate(self._used):
            registry.gauge(prefix, disk=disk).set(used)

    def store_all(self, charges: Sequence[float]) -> None:
        """Occupy ``charges[d]`` cylinders on every drive ``d`` at once;
        ``charges`` has length ``D``.

        Every drive is checked before any is charged, so an overflow
        raises :class:`CapacityError`, naming the first drive that
        lacks the room, with the array unchanged.
        """
        used = list(map(add, self._used, charges))
        if max(used) > self._limit:
            for disk, (held, amount) in enumerate(zip(self._used, charges)):
                if amount and held + amount > self._limit:
                    raise CapacityError(
                        f"disk {disk} overflow: {held:.2f} + "
                        f"{amount:.2f} > {self.model.num_cylinders}"
                    )
        self._used = used
        self._version += 1

    def evict_all(self, charges: Sequence[float]) -> None:
        """Free ``charges[d]`` cylinders on every drive ``d`` at once;
        ``charges`` has length ``D``.

        Every drive is checked before any is refunded, so an underflow
        raises :class:`CapacityError`, naming the first drive that
        holds too little, with the array unchanged.  A refund within
        the tolerance of a drive's usage clamps it to zero.
        """
        used = list(map(sub, self._used, charges))
        if min(used) < 0.0:
            for disk, (held, amount) in enumerate(zip(self._used, charges)):
                if amount > held + 1e-9:
                    raise CapacityError(
                        f"disk {disk} underflow: evicting {amount:.2f} "
                        f"from {held:.2f}"
                    )
            used = list(map(max, repeat(0.0), used))
        self._used = used
        self._version += 1

    # ------------------------------------------------------------------
    # Failure / repair (degraded mode; see repro.faults)
    # ------------------------------------------------------------------
    def fail(self, disk: int) -> float:
        """Mark drive ``disk`` failed; returns the cylinders it held.

        Its resident fragments are physically lost until rebuilt.  The
        *logical* placement bookkeeping is untouched: the returned
        cylinder count is exactly the rebuild work.
        """
        if self._down[disk]:
            raise FaultError(f"disk {disk} is already failed")
        self._down[disk] = True
        bisect.insort(self._failed, disk)
        self._version += 1
        return self._used[disk]

    def repair(self, disk: int) -> None:
        """Bring drive ``disk`` back online (hardware replaced).

        Restoring its data is the rebuild process's job
        (:mod:`repro.faults`).
        """
        if not self._down[disk]:
            raise FaultError(f"disk {disk} is not failed")
        self._down[disk] = False
        self._failed.remove(disk)
        self._version += 1

    def is_failed(self, disk: int) -> bool:
        """True while drive ``disk`` is down."""
        return self._down[disk]

    @property
    def version(self) -> int:
        """Monotone counter bumped by every inspected-state change."""
        return self._version

    @property
    def failed_count(self) -> int:
        """Number of currently failed drives."""
        return len(self._failed)

    def failed_disks(self) -> List[int]:
        """Indices of currently failed drives, ascending (a copy)."""
        return list(self._failed)

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(self, sanitizer, interval: int) -> None:
        """Storage and failure-state checks, reported to ``sanitizer``.

        Per drive, storage stays in ``[0, capacity]``; across the
        array, the sorted failed-drive list matches a recount of the
        drives' own flags.  The O(D) sweep is skipped while the array
        is unchanged since its last clean sweep (same ``version``):
        every mutation path bumps the version, so any new state is
        swept at least once, and re-verifying untouched clean state
        can only re-tally zero.
        """
        if self._verified_clean_version == self._version:
            return
        violations_before = sanitizer.total
        for disk, used in enumerate(self._used):
            sanitizer.expect(
                -1e-9 <= used <= self._limit,
                "storage_bounds",
                f"disk {disk} used_cylinders {used} outside [0, "
                f"{self.model.num_cylinders}]",
            )
        failed_recount = [disk for disk, down in enumerate(self._down) if down]
        sanitizer.expect(
            failed_recount == self._failed,
            "occ_index",
            f"failed-drive list drifted in interval {interval}: running "
            f"list {self._failed} != recount {failed_recount}",
        )
        self._verified_clean_version = (
            self._version if sanitizer.total == violations_before else None
        )
