"""Degraded-mode service and online rebuild.

The coordinators sit between the :class:`~repro.faults.injector.
FaultInjector` and a storage policy.  Each simulated interval they run
twice:

* :meth:`begin_interval` — *before* admission: drop the previous
  interval's reconstruction/rebuild holds, apply the fail/repair
  transitions due this interval, and let every rebuilding drive hold
  up to ``rebuild_rate`` half-slots of bandwidth.
* :meth:`settle` — *after* admission: find the reads that landed on a
  failed drive this interval and resolve each one — reconstruct from
  the redundancy scheme by holding extra half-slots on the survivors
  (a mirrored survivor serves its own reads plus its failed partner's,
  Thomasian's RAID1 read-around), or tally a hiccup (the viewer sees a
  glitch) / abort the display (its request re-enters the queue) per
  the ``on_fault`` policy.

Reconstruction runs in the settle, *after* admission, so it competes
only for the bandwidth admission left.  Rebuild writes take theirs in
:meth:`begin_interval`, from what the active displays leave, before
this interval's admissions — the "online rebuild competes for interval
bandwidth" model.  Both passes are skipped entirely when no
coordinator is attached, keeping fault-free runs byte-identical to the
seed.

Failure/rebuild bookkeeping is measured in the protocol's own units:
a drive's lost content is ``2 × fragments`` half-slot·intervals of
rebuild work (a fragment write occupies a full slot for one interval).

Rebuild writes and reconstruction reads last exactly one interval, so
they are owner-less holds in the slot pool
(:meth:`~repro.core.virtual_disks.SlotPool.hold`), all returned by one
:meth:`~repro.core.virtual_disks.SlotPool.drop_holds` at the next
:meth:`begin_interval`; the pool stays the one half-slot accountant.
Both passes cost only the drives that are actually degraded: the
injector is polled only when its next event is due, the rebuild runs
only while a drive owes work (in ascending drive order, kept across
intervals), each failed drive's survivors are computed once per
fail/repair transition, and the slot over a drive is computed from one
rotation offset per pass.

A coordinator is *quiet* while no drive is down, none owes rebuild
work and nothing is held: its passes then only count healthy
intervals.  :meth:`next_change` reports the injector's next event as
its next change, the policies skip to it on the next-event clock, and
:meth:`skip` books the skipped intervals in bulk (:meth:`verify_skip`
proves the span quiet under ``--sanitize``).

The policy that owns a coordinator (``policy.faults``) passes itself
into both passes.  The coordinator takes what it needs of the policy at
build time (its storage, the catalog) and keeps no reference to it, so
a finished run is freed by reference counting alone.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.injector import FAIL, FaultInjector
from repro.faults.redundancy import survivors_of
from repro.obs.metrics import Tally
from repro.simulation.policy import NEVER


class _CoordinatorBase:
    """Availability accounting shared by both coordinators."""

    def __init__(
        self,
        injector: FaultInjector,
        num_disks: int,
        redundancy: str,
        parity_group: int,
        rebuild_rate: int,
        on_fault: str,
        obs=None,
    ) -> None:
        self.injector = injector
        self.num_disks = num_disks
        self.redundancy = redundancy
        self.parity_group = parity_group
        self.rebuild_rate = rebuild_rate
        self.on_fault = on_fault
        # Availability counters (threaded into policy stats()).
        self.failures = 0
        self.repairs = 0
        self.hiccups = 0
        self.aborts = 0
        self.reconstructions = 0
        self.background_disruptions = 0
        self.degraded_intervals = 0
        self.rebuild_intervals = 0
        self.rebuilds_completed = 0
        self.rebuild_time = Tally(name="faults.rebuild_intervals")
        self._fail_time: Dict[int, int] = {}
        self._intervals = 0
        self._healthy_disk_sum = 0
        # Telemetry (None → zero cost; see repro.obs).
        self.obs = obs
        if obs is not None:
            registry = obs.registry
            self._c_failures = registry.counter("faults.failures")
            self._c_hiccups = registry.counter("faults.hiccups")
            self._c_aborts = registry.counter("faults.aborts")
            self._c_reconstructions = registry.counter("faults.reconstructions")
            self._c_degraded = registry.counter("faults.degraded_intervals")
            self._c_rebuilds = registry.counter("faults.rebuilds_completed")
            obs.add_flusher(self._flush_counters)

    def _flush_counters(self) -> None:
        self._c_failures.value = float(self.failures)
        self._c_hiccups.value = float(self.hiccups)
        self._c_aborts.value = float(self.aborts)
        self._c_reconstructions.value = float(self.reconstructions)
        self._c_degraded.value = float(self.degraded_intervals)
        self._c_rebuilds.value = float(self.rebuilds_completed)

    def _next_event(self) -> int:
        """The injector's next event (``NEVER`` when exhausted)."""
        due = self.injector.peek()
        return NEVER if due is None else due

    def skip(self, intervals: int) -> None:
        """Book ``intervals`` quiet intervals (see ``next_change``):
        each is a healthy interval of every drive."""
        self._intervals += intervals
        self._healthy_disk_sum += self.num_disks * intervals

    def _verify_quiet(
        self, sanitizer, start: int, stop: int, quiet: bool
    ) -> None:
        """Shared ``verify_skip`` half: ``quiet`` (recomputed by the
        subclass) holds and no injector event falls in the span."""
        span = f"skipped intervals {start}..{stop - 1}"
        sanitizer.expect(
            quiet, "skip",
            f"a drive is down, owes rebuild work or holds slots in {span}",
        )
        due = self.injector.peek()
        sanitizer.expect(
            due is None or due >= stop, "skip",
            f"fault event due at {due} in {span}",
        )

    def stats(self) -> Dict[str, float]:
        """Availability metrics, merged into the policy's stats()."""
        return {
            "fault_failures": float(self.failures),
            "fault_repairs": float(self.repairs),
            "fault_hiccups": float(self.hiccups),
            "fault_aborts": float(self.aborts),
            "fault_reconstructions": float(self.reconstructions),
            "fault_background_disruptions": float(self.background_disruptions),
            "fault_degraded_intervals": float(self.degraded_intervals),
            "fault_rebuild_intervals": float(self.rebuild_intervals),
            "fault_rebuilds_completed": float(self.rebuilds_completed),
            "fault_mean_rebuild_intervals": (
                self.rebuild_time.mean if self.rebuild_time.count else 0.0
            ),
            "fault_hiccups_per_failure": (
                self.hiccups / self.failures if self.failures else 0.0
            ),
            "fault_effective_bandwidth": (
                self._healthy_disk_sum / (self._intervals * self.num_disks)
                if self._intervals
                else 1.0
            ),
        }


class FaultCoordinator(_CoordinatorBase):
    """Degraded mode for the striping policies (simple and staggered).

    The rotating frame makes the degraded-read geometry simple: at
    interval ``t`` exactly one virtual disk sits over a failed drive
    ``d`` — ``pool.slot_at(d, t)`` — so its owners are precisely the
    reads that failed this interval.  Reconstruction holds ``halves``
    half-slots on the slot over each survivor; the holds (like the
    rebuild's) last one interval and are dropped at the next
    :meth:`begin_interval`.
    """

    def __init__(
        self,
        policy,
        injector: FaultInjector,
        redundancy: str = "none",
        parity_group: int = 4,
        rebuild_rate: int = 1,
        on_fault: str = "hiccup",
        fragment_cylinders: int = 1,
        obs=None,
    ) -> None:
        array = policy.disk_manager.array
        super().__init__(
            injector, array.num_disks, redundancy, parity_group,
            rebuild_rate, on_fault, obs=obs,
        )
        self.array = array
        self.pool = policy.disk_manager.pool
        self.fragment_cylinders = fragment_cylinders
        # disk -> half-slot·intervals of rebuild work left / queued.
        self._rebuild_debt: Dict[int, int] = {}
        self._pending_debt: Dict[int, int] = {}
        # The keys of _rebuild_debt, ascending: the rebuild order.
        self._rebuild_order: List[int] = []
        # (failed drive, its survivors or None), in failed-drive order;
        # recomputed at each fail/repair transition.
        self._degraded: List[Tuple[int, Optional[List[int]]]] = []

    def __repr__(self) -> str:
        return (
            f"<FaultCoordinator down={self.array.failed_disks()} "
            f"rebuilding={sorted(self._rebuild_debt)}>"
        )

    # ------------------------------------------------------------------
    # Pass 1: before admission
    # ------------------------------------------------------------------
    def begin_interval(self, interval: int, policy) -> None:
        """Drop last interval's fault holds, apply transitions, and
        advance rebuilds."""
        pool = self.pool
        if pool._held:
            pool.drop_holds()
        due = self.injector.peek()
        if due is not None and due <= interval:
            for event in self.injector.pop_due(interval):
                if event.kind == FAIL:
                    self._apply_failure(event.disk, interval)
                else:
                    self._apply_repair(event.disk, interval)
            self._degraded = [
                (disk, survivors_of(
                    disk, self.redundancy, self.num_disks,
                    self.parity_group, self.array.is_failed,
                ))
                for disk in self.array._failed
            ]
        if self._rebuild_order:
            self._advance_rebuilds(interval)
        down = self.array.failed_count
        self._intervals += 1
        self._healthy_disk_sum += self.num_disks - down
        if down or self._rebuild_order:
            self.degraded_intervals += 1

    def next_change(self, interval: int) -> int:
        """First interval after ``interval`` at which the passes do
        more than count a healthy interval: the next one while a drive
        is down, owes rebuild work or holds slots, else the injector's
        next event."""
        if self.array._failed or self._rebuild_order or self.pool._held:
            return interval + 1
        return self._next_event()

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """The coordinator is quiet through ``start .. stop - 1``,
        recomputed from the drives' own flags, the debts and the
        pool's holds."""
        quiet = (
            not any(state.failed for state in self.array.disks)
            and not self._rebuild_debt
            and not self.pool._held
        )
        self._verify_quiet(sanitizer, start, stop, quiet)

    def _apply_failure(self, disk: int, interval: int) -> None:
        lost_cylinders = self.array.fail(disk)
        self.failures += 1
        self._fail_time[disk] = interval
        # A failure mid-rebuild re-loses whatever was restored.
        if self._rebuild_debt.pop(disk, None) is not None:
            self._rebuild_order.remove(disk)
        fragments = math.ceil(lost_cylinders / self.fragment_cylinders - 1e-9)
        self._pending_debt[disk] = 2 * fragments

    def _apply_repair(self, disk: int, interval: int) -> None:
        self.array.repair(disk)
        self.repairs += 1
        debt = self._pending_debt.pop(disk, 0)
        if debt > 0:
            self._rebuild_debt[disk] = debt
            bisect.insort(self._rebuild_order, disk)
        else:
            self.rebuilds_completed += 1
            self.rebuild_time.record(interval - self._fail_time.pop(disk, interval))

    def _advance_rebuilds(self, interval: int) -> None:
        """Each rebuilding drive holds up to ``rebuild_rate``
        half-slots of the virtual disk currently over it (the write
        side of the restore); leftover debt carries to the next
        interval.  Drives hold in ascending order."""
        self.rebuild_intervals += 1
        pool = self.pool
        free = pool._free
        num_disks = self.num_disks
        offset = pool.stride * interval
        rate = self.rebuild_rate
        debts = self._rebuild_debt
        order = self._rebuild_order
        completed = False
        for disk in order:
            debt = debts[disk]
            slot = (disk - offset) % num_disks
            halves = free[slot]
            if halves > rate:
                halves = rate
            if halves > debt:
                halves = debt
            if halves > 0:
                pool.hold(slot, halves)
                debt -= halves
                debts[disk] = debt
            if debt <= 0:
                del debts[disk]
                completed = True
                self.rebuilds_completed += 1
                self.rebuild_time.record(
                    interval - self._fail_time.pop(disk, interval)
                )
        if completed:
            order[:] = [disk for disk in order if disk in debts]

    # ------------------------------------------------------------------
    # Pass 2: after admission
    # ------------------------------------------------------------------
    def settle(self, interval: int, policy) -> None:
        """Resolve every read that landed on a failed drive."""
        degraded = self._degraded
        if not degraded:
            return
        owners_by_slot = self.pool._owners
        active = policy._active
        num_disks = self.num_disks
        offset = self.pool.stride * interval
        for disk, survivors in degraded:
            holders = owners_by_slot.get((disk - offset) % num_disks)
            if holders is None:
                continue
            # A snapshot: an abort below releases the display's claims.
            # Several owners compete in a fixed (repr) order.
            owners = list(holders.items())
            if len(owners) > 1:
                owners.sort(key=lambda item: repr(item[0]))
            for owner, halves in owners:
                display = active.get(owner) if isinstance(owner, int) else None
                if display is None:
                    # Background work (a materialisation write): the
                    # transfer retries implicitly; tally, don't hiccup.
                    self.background_disruptions += 1
                    continue
                if survivors is not None and self._hold_reconstruction(
                    survivors, halves, offset
                ):
                    self.reconstructions += 1
                elif self.on_fault == "abort":
                    self._abort(policy, display)
                else:
                    self.hiccups += 1

    def _hold_reconstruction(
        self, survivors: List[int], halves: int, offset: int
    ) -> bool:
        """All-or-nothing hold of ``halves`` half-slots on the slot
        over every survivor (``offset`` is the frame's rotation,
        ``stride × interval``)."""
        pool = self.pool
        free = pool._free
        num_disks = self.num_disks
        slots = [(s - offset) % num_disks for s in survivors]
        for z in slots:
            if free[z] < halves:
                return False
        for z in slots:
            pool.hold(z, halves)
        return True

    def _abort(self, policy, display) -> None:
        """Cancel the display; its request re-enters the queue head.

        The closed-loop station is still waiting on this request, so
        dropping it would stall the station forever — the redisplay
        starts from the beginning once re-admitted (the viewer sees a
        restart, not a freeze)."""
        policy.abort_display(display)
        self.aborts += 1


class ClusterFaultCoordinator(_CoordinatorBase):
    """Degraded mode for the VDR cluster array.

    A failed drive degrades its whole cluster (``disk // M``).  With no
    redundancy the cluster's copies are unrecoverable: they are evicted
    (future requests re-materialise from tertiary), the cluster is
    unavailable until repaired, and an active display either limps to
    completion hiccuping every interval or aborts.  With mirror/parity
    the cluster keeps serving — each active interval costs a
    reconstruction — and after repair the lost fragments rebuild at the
    rate cap whenever the cluster is idle (rebuild yields to displays).
    """

    def __init__(
        self,
        policy,
        injector: FaultInjector,
        redundancy: str = "none",
        parity_group: int = 4,
        rebuild_rate: int = 1,
        on_fault: str = "hiccup",
        obs=None,
    ) -> None:
        clusters = policy.clusters
        super().__init__(
            injector, clusters.num_disks, redundancy, parity_group,
            rebuild_rate, on_fault, obs=obs,
        )
        self.clusters = clusters
        self.catalog = policy.catalog
        # cluster index -> its currently failed member drives.
        self._down_members: Dict[int, Set[int]] = {}
        # cluster index -> half-slot·intervals of rebuild work left.
        self._rebuild_debt: Dict[int, int] = {}
        # The keys of _rebuild_debt, ascending: the rebuild order.
        self._rebuild_order: List[int] = []
        self._total_down = 0

    def __repr__(self) -> str:
        return (
            f"<ClusterFaultCoordinator degraded={sorted(self._down_members)} "
            f"rebuilding={sorted(self._rebuild_debt)}>"
        )

    def _is_failed_disk(self, disk: int) -> bool:
        cluster = disk // self.clusters.degree
        return disk in self._down_members.get(cluster, ())

    # ------------------------------------------------------------------
    # Pass 1: before event retirement / admission
    # ------------------------------------------------------------------
    def begin_interval(self, interval: int, policy) -> None:
        due = self.injector.peek()
        if due is not None and due <= interval:
            for event in self.injector.pop_due(interval):
                if event.kind == FAIL:
                    self._apply_failure(event.disk, interval, policy)
                else:
                    self._apply_repair(event.disk, interval)
        if self._rebuild_debt:
            self._advance_rebuilds(interval)
        down = self._total_down
        self._intervals += 1
        self._healthy_disk_sum += self.num_disks - down
        if down or self._rebuild_debt:
            self.degraded_intervals += 1

    def next_change(self, interval: int) -> int:
        """First interval after ``interval`` at which the passes do
        more than count a healthy interval: the next one while a drive
        is down or a cluster owes rebuild work, else the injector's
        next event."""
        if self._total_down or self._rebuild_debt:
            return interval + 1
        return self._next_event()

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """The coordinator is quiet through ``start .. stop - 1``,
        recomputed from the per-cluster down sets and the debts."""
        quiet = (
            not any(self._down_members.values())
            and not self._rebuild_debt
            and all(cluster.available for cluster in self.clusters.clusters)
        )
        self._verify_quiet(sanitizer, start, stop, quiet)

    def _apply_failure(self, disk: int, interval: int, policy) -> None:
        index = disk // self.clusters.degree
        cluster = self.clusters.clusters[index]
        self.failures += 1
        self._total_down += 1
        self._fail_time.setdefault(index, interval)
        self._down_members.setdefault(index, set()).add(disk)
        if self._rebuild_debt.pop(index, None) is not None:
            self._rebuild_order.remove(index)  # re-lost mid-rebuild
        survivors = survivors_of(
            disk, self.redundancy, self.num_disks,
            self.parity_group, self._is_failed_disk,
        )
        if survivors is None:
            # Unrecoverable: the cluster's copies are lost and the
            # cluster serves nothing until its drives are repaired.
            cluster.available = False
            self.clusters.evict_all(index)
            self._cancel_incoming_copies(policy, index)
            if cluster.activity == "display" and self.on_fault == "abort":
                self._abort_display(policy, index, interval)

    def _apply_repair(self, disk: int, interval: int) -> None:
        index = disk // self.clusters.degree
        cluster = self.clusters.clusters[index]
        self.repairs += 1
        self._total_down -= 1
        members = self._down_members.get(index, set())
        members.discard(disk)
        if members:
            return  # other member drives still down
        self._down_members.pop(index, None)
        if not cluster.available:
            # Data was lost; nothing to rebuild — the cluster returns
            # empty and copies re-materialise from tertiary on demand.
            cluster.available = True
            self.rebuild_time.record(
                interval - self._fail_time.pop(index, interval)
            )
        else:
            # Redundancy held: restore the failed drive's fragments.
            # Each resident object spreads num_subobjects fragments on
            # every member drive; a fragment write is one full slot.
            debt = 2 * sum(
                self.catalog.get(object_id).num_subobjects
                for object_id in sorted(cluster.resident)
            )
            if debt > 0:
                self._rebuild_debt[index] = debt
                bisect.insort(self._rebuild_order, index)
            else:
                self.rebuilds_completed += 1
                self.rebuild_time.record(
                    interval - self._fail_time.pop(index, interval)
                )

    def _advance_rebuilds(self, interval: int) -> None:
        """Each rebuilding cluster that is free this interval works off
        ``rebuild_rate`` of its debt, in ascending cluster order."""
        self.rebuild_intervals += 1
        clusters = self.clusters.clusters
        debts = self._rebuild_debt
        order = self._rebuild_order
        completed = False
        for index in order:
            if not clusters[index].is_free(interval):
                continue  # rebuild yields to the active display
            debts[index] -= self.rebuild_rate
            if debts[index] <= 0:
                del debts[index]
                completed = True
                self.rebuilds_completed += 1
                self.rebuild_time.record(
                    interval - self._fail_time.pop(index, interval)
                )
        if completed:
            order[:] = [index for index in order if index in debts]

    # ------------------------------------------------------------------
    # Pass 2: after admission
    # ------------------------------------------------------------------
    def settle(self, interval: int, policy) -> None:
        """Charge each degraded cluster's active display interval."""
        if not self._down_members:
            return
        # Only counts: the walk order does not matter.
        for index in self._down_members:
            cluster = self.clusters.clusters[index]
            if cluster.activity != "display":
                continue
            if cluster.available:
                self.reconstructions += 1  # redundancy read-around
            else:
                self.hiccups += 1  # limping without data

    # ------------------------------------------------------------------
    # Cancellation plumbing
    # ------------------------------------------------------------------
    def _cancel_incoming_copies(self, policy, index: int) -> None:
        """Void in-flight clone/materialise writes onto a dead cluster."""
        for _t, seq, kind, cluster_index, payload in list(policy._events):
            if cluster_index != index or seq in policy._cancelled_seqs:
                continue
            if kind in ("clone", "materialize"):
                policy._cancelled_seqs.add(seq)
                if kind == "materialize":
                    policy._mat_pending.discard(payload)
                self.background_disruptions += 1

    def _abort_display(self, policy, index: int, interval: int) -> None:
        """Cancel the cluster's active display; requeue its request."""
        cluster = self.clusters.clusters[index]
        for _t, seq, kind, cluster_index, payload in list(policy._events):
            if (
                cluster_index != index
                or kind != "display"
                or seq in policy._cancelled_seqs
            ):
                continue
            policy._cancelled_seqs.add(seq)
            request, _deliver_start = payload
            policy._queue.insert(0, request)
            self.aborts += 1
        cluster.finish()
        cluster.busy_until = interval
