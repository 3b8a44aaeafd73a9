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
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import CapacityError, ConfigurationError, FaultError
from repro.hardware.disk import DiskModel


@dataclass
class DiskState:
    """Mutable per-drive state: storage used and whether it is down."""

    index: int
    used_cylinders: float = 0.0
    #: True while the drive is down (failed, not yet rebuilt).
    failed: bool = False


class DiskArray:
    """``D`` drives sharing one :class:`DiskModel`.

    Responsibilities:

    * cumulative storage accounting with capacity checks;
    * failure state (which drives are down, what each failure lost).
    """

    def __init__(self, model: DiskModel, num_disks: int) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        self.model = model
        self.num_disks = num_disks
        self.disks: List[DiskState] = [DiskState(index=i) for i in range(num_disks)]
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
        return self.disks[disk].used_cylinders

    def observe_storage(self, registry, prefix: str = "disk.storage_cylinders") -> None:
        """Record per-drive used cylinders into a
        :class:`repro.obs.metrics.MetricsRegistry` gauge family."""
        for disk in self.disks:
            registry.gauge(prefix, disk=disk.index).set(disk.used_cylinders)

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

    # ------------------------------------------------------------------
    # Failure / repair (degraded mode; see repro.faults)
    # ------------------------------------------------------------------
    def fail(self, disk: int) -> float:
        """Mark drive ``disk`` failed; returns the cylinders it held.

        Its resident fragments are physically lost until rebuilt.  The
        *logical* placement bookkeeping is untouched: the returned
        cylinder count is exactly the rebuild work.
        """
        state = self.disks[disk]
        if state.failed:
            raise FaultError(f"disk {disk} is already failed")
        state.failed = True
        bisect.insort(self._failed, disk)
        self._version += 1
        return state.used_cylinders

    def repair(self, disk: int) -> None:
        """Bring drive ``disk`` back online (hardware replaced).

        Restoring its data is the rebuild process's job
        (:mod:`repro.faults`).
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
        failed_recount: List[int] = []
        for state in self.disks:
            if state.failed:
                failed_recount.append(state.index)
            sanitizer.expect(
                -1e-9 <= state.used_cylinders
                <= self.model.num_cylinders + 1e-9,
                "storage_bounds",
                f"disk {state.index} used_cylinders "
                f"{state.used_cylinders} outside [0, "
                f"{self.model.num_cylinders}]",
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
