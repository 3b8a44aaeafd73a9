"""Degraded-mode service and online rebuild.

The coordinators sit between the :class:`~repro.faults.injector.
FaultInjector` and a storage policy.  Each simulated interval they run
twice:

* :meth:`begin_interval` — *before* admission: release the previous
  interval's reconstruction/rebuild slot claims, apply the fail/repair
  transitions due this interval, and let every rebuilding drive claim
  up to ``rebuild_rate`` half-slots of bandwidth.
* :meth:`settle` — *after* admission: find the reads that landed on a
  failed drive this interval and resolve each one — reconstruct from
  the redundancy scheme by claiming extra half-slots on the survivors,
  or tally a hiccup (the viewer sees a glitch) / abort the display
  (its request re-enters the queue) per the ``on_fault`` policy.

Running the settle *after* admission gives user streams priority over
nothing — admission has already claimed its slots — while
reconstruction and rebuild compete for whatever bandwidth is left,
which is exactly the "online rebuild competes for interval bandwidth"
model.  Both passes are skipped entirely when no coordinator is
attached, keeping fault-free runs byte-identical to the seed.

Failure/rebuild bookkeeping is measured in the protocol's own units:
a drive's lost content is ``2 × fragments`` half-slot·intervals of
rebuild work (a fragment write occupies a full slot for one interval).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.faults.injector import FAIL, FaultInjector
from repro.faults.redundancy import survivors_of
from repro.obs.metrics import Tally


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

    def _account_interval(self, down_disks: int, rebuilding: bool) -> None:
        """Per-interval availability bookkeeping."""
        self._intervals += 1
        self._healthy_disk_sum += self.num_disks - down_disks
        if down_disks or rebuilding:
            self.degraded_intervals += 1

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
    reads that failed this interval.  Reconstruction claims ``halves``
    half-slots on the slot over each survivor; the claims (like the
    rebuild's) last one interval and are released at the next
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
        self.policy = policy
        self.array = array
        self.pool = policy.disk_manager.pool
        self.fragment_cylinders = fragment_cylinders
        # One-interval slot claims, released at the next begin_interval.
        self._transient_claims: Set[Tuple[int, Hashable]] = set()
        # disk -> half-slot·intervals of rebuild work left / queued.
        self._rebuild_debt: Dict[int, int] = {}
        self._pending_debt: Dict[int, int] = {}

    def __repr__(self) -> str:
        return (
            f"<FaultCoordinator down={self.array.failed_disks()} "
            f"rebuilding={sorted(self._rebuild_debt)}>"
        )

    # ------------------------------------------------------------------
    # Pass 1: before admission
    # ------------------------------------------------------------------
    def begin_interval(self, interval: int) -> None:
        """Release last interval's fault claims, apply transitions,
        and advance rebuilds."""
        for slot, owner in self._transient_claims:
            self.pool.release(slot, owner)
        self._transient_claims.clear()
        for event in self.injector.pop_due(interval):
            if event.kind == FAIL:
                self._apply_failure(event.disk, interval)
            else:
                self._apply_repair(event.disk, interval)
        self._advance_rebuilds(interval)
        self._account_interval(
            down_disks=self.array.failed_count,
            rebuilding=bool(self._rebuild_debt),
        )

    def _apply_failure(self, disk: int, interval: int) -> None:
        lost_cylinders = self.array.fail(disk)
        self.failures += 1
        self._fail_time[disk] = interval
        # A failure mid-rebuild re-loses whatever was restored.
        self._rebuild_debt.pop(disk, None)
        fragments = math.ceil(lost_cylinders / self.fragment_cylinders - 1e-9)
        self._pending_debt[disk] = 2 * fragments

    def _apply_repair(self, disk: int, interval: int) -> None:
        self.array.repair(disk)
        self.repairs += 1
        debt = self._pending_debt.pop(disk, 0)
        if debt > 0:
            self._rebuild_debt[disk] = debt
        else:
            self.rebuilds_completed += 1
            self.rebuild_time.record(interval - self._fail_time.pop(disk, interval))

    def _advance_rebuilds(self, interval: int) -> None:
        """Each rebuilding drive claims up to ``rebuild_rate``
        half-slots of the virtual disk currently over it (the write
        side of the restore); leftover debt carries to the next
        interval."""
        if not self._rebuild_debt:
            return
        self.rebuild_intervals += 1
        for disk in sorted(self._rebuild_debt):
            slot = self.pool.slot_at(disk, interval)
            halves = min(
                self.rebuild_rate,
                self.pool.free_halves(slot),
                self._rebuild_debt[disk],
            )
            if halves > 0:
                owner = ("rebuild", disk)
                self.pool.claim(slot, owner, halves)
                self._transient_claims.add((slot, owner))
                self._rebuild_debt[disk] -= halves
            if self._rebuild_debt[disk] <= 0:
                del self._rebuild_debt[disk]
                self.rebuilds_completed += 1
                self.rebuild_time.record(
                    interval - self._fail_time.pop(disk, interval)
                )

    # ------------------------------------------------------------------
    # Pass 2: after admission
    # ------------------------------------------------------------------
    def settle(self, interval: int) -> None:
        """Resolve every read that landed on a failed drive."""
        failed = self.array.failed_disks()
        if not failed:
            return
        for disk in failed:
            slot = self.pool.slot_at(disk, interval)
            owners = self.pool.owners_of(slot)
            for owner, halves in sorted(
                owners.items(), key=lambda item: repr(item[0])
            ):
                display = (
                    self.policy._active.get(owner)
                    if isinstance(owner, int)
                    else None
                )
                if display is None:
                    # Background work (a materialisation write): the
                    # transfer retries implicitly; tally, don't hiccup.
                    self.background_disruptions += 1
                    continue
                survivors = survivors_of(
                    disk, self.redundancy, self.num_disks,
                    self.parity_group, self.array.is_failed,
                )
                if survivors is not None and self._claim_reconstruction(
                    display.display_id, survivors, halves, interval
                ):
                    self.reconstructions += 1
                elif self.on_fault == "abort":
                    self._abort(display, interval)
                else:
                    self.hiccups += 1

    def _claim_reconstruction(
        self, display_id: int, survivors: List[int], halves: int, interval: int
    ) -> bool:
        """All-or-nothing claim of ``halves`` half-slots on the slot
        over every survivor."""
        slots = [self.pool.slot_at(s, interval) for s in survivors]
        if any(self.pool.free_halves(z) < halves for z in slots):
            return False
        owner = ("reconstruct", display_id)
        for z in slots:
            self.pool.claim(z, owner, halves)
            self._transient_claims.add((z, owner))
        return True

    def _abort(self, display, interval: int) -> None:
        """Cancel the display; its request re-enters the queue head.

        The closed-loop station is still waiting on this request, so
        dropping it would stall the station forever — the redisplay
        starts from the beginning once re-admitted (the viewer sees a
        restart, not a freeze)."""
        from repro.core.scheduler import _QueueEntry

        policy = self.policy
        request = policy._display_request.get(display.display_id)
        policy._cancel_display(display)
        if request is not None:
            policy._queue.insert(0, _QueueEntry(request=request))
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
        self.policy = policy
        self.clusters = clusters
        # cluster index -> its currently failed member drives.
        self._down_members: Dict[int, Set[int]] = {}
        # cluster index -> half-slot·intervals of rebuild work left.
        self._rebuild_debt: Dict[int, int] = {}
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
    def begin_interval(self, interval: int) -> None:
        for event in self.injector.pop_due(interval):
            if event.kind == FAIL:
                self._apply_failure(event.disk, interval)
            else:
                self._apply_repair(event.disk, interval)
        self._advance_rebuilds(interval)
        self._account_interval(
            down_disks=self._total_down,
            rebuilding=bool(self._rebuild_debt),
        )

    def _apply_failure(self, disk: int, interval: int) -> None:
        index = disk // self.clusters.degree
        cluster = self.clusters.clusters[index]
        self.failures += 1
        self._total_down += 1
        self._fail_time.setdefault(index, interval)
        self._down_members.setdefault(index, set()).add(disk)
        self._rebuild_debt.pop(index, None)  # re-lost mid-rebuild
        survivors = survivors_of(
            disk, self.redundancy, self.num_disks,
            self.parity_group, self._is_failed_disk,
        )
        if survivors is None:
            # Unrecoverable: the cluster's copies are lost and the
            # cluster serves nothing until its drives are repaired.
            cluster.available = False
            self.clusters.evict_all(index)
            self._cancel_incoming_copies(index, interval)
            if cluster.activity == "display" and self.on_fault == "abort":
                self._abort_display(index, interval)

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
                self.policy.catalog.get(object_id).num_subobjects
                for object_id in sorted(cluster.resident)
            )
            if debt > 0:
                self._rebuild_debt[index] = debt
            else:
                self.rebuilds_completed += 1
                self.rebuild_time.record(
                    interval - self._fail_time.pop(index, interval)
                )

    def _advance_rebuilds(self, interval: int) -> None:
        if not self._rebuild_debt:
            return
        self.rebuild_intervals += 1
        for index in sorted(self._rebuild_debt):
            cluster = self.clusters.clusters[index]
            if not cluster.is_free(interval):
                continue  # rebuild yields to the active display
            self._rebuild_debt[index] -= self.rebuild_rate
            if self._rebuild_debt[index] <= 0:
                del self._rebuild_debt[index]
                self.rebuilds_completed += 1
                self.rebuild_time.record(
                    interval - self._fail_time.pop(index, interval)
                )

    # ------------------------------------------------------------------
    # Pass 2: after admission
    # ------------------------------------------------------------------
    def settle(self, interval: int) -> None:
        """Charge each degraded cluster's active display interval."""
        if not self._down_members:
            return
        for index in sorted(self._down_members):
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
    def _cancel_incoming_copies(self, index: int, interval: int) -> None:
        """Void in-flight clone/materialise writes onto a dead cluster."""
        policy = self.policy
        for _t, seq, kind, cluster_index, payload in list(policy._events):
            if cluster_index != index or seq in policy._cancelled_seqs:
                continue
            if kind in ("clone", "materialize"):
                policy._cancelled_seqs.add(seq)
                if kind == "materialize":
                    policy._mat_pending.discard(payload)
                self.background_disruptions += 1

    def _abort_display(self, index: int, interval: int) -> None:
        """Cancel the cluster's active display; requeue its request."""
        policy = self.policy
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
