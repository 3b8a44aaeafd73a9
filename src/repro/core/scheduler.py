"""The Centralized Scheduler for staggered striping (§4.1).

:class:`StaggeredStripingPolicy` wires the three managers together:

* the **Object Manager** decides residency and eviction (LFU);
* the **Disk Manager** owns placement and the rotating slot pool;
* the **Tertiary Manager** serialises materialisations.

Per interval the policy releases finished lanes, completes
materialisations, walks the admission queue claiming virtual disks for
waiting displays (contiguous or time-fragmented per the configured
:class:`~repro.core.admission.AdmissionMode`), and reports completed
displays.

Setting the stride to ``M`` yields the paper's **simple striping**;
stride 1 is classic staggered striping; any other stride is accepted
(§3.2.2 discusses the trade-offs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.admission import AdmissionMode, Admitter
from repro.core.batch import BatchAdmissionIndex
from repro.core.display import Display, Lane
from repro.core.disk_manager import DiskManager
from repro.core.ff_rewind import plan_reposition
from repro.core.lowbw import degree_in_halves
from repro.core.object_manager import ObjectManager
from repro.core.tertiary_manager import TertiaryManager
from repro.core.virtual_disks import HALVES_PER_SLOT
from repro.errors import ConfigurationError, SchedulingError
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.obs.metrics import Tally
from repro.simulation.policy import (
    NEVER,
    Completion,
    Request,
    StoragePolicy,
    UtilizationSample,
)


@dataclass
class _QueueEntry:
    """One waiting (or partially admitted) request."""

    request: Request
    #: The object's degree (it never changes): the budget test and the
    #: sjf/largest_first sort keys read it without a catalog lookup.
    degree: int
    display: Optional[Display] = None
    deferred_placement: bool = False


class StaggeredStripingPolicy(StoragePolicy):
    """Staggered striping as a pluggable storage policy.

    Parameters
    ----------
    catalog:
        The database.
    disk_manager:
        Placement + slot pool (fixes ``D`` and the stride ``k``).
    object_manager:
        Residency + replacement.
    tertiary_manager:
        Materialisation queue (may be ``None`` for disk-only setups —
        every object must then be preloaded).
    admission_mode:
        CONTIGUOUS (all lanes at once) or FRAGMENTED (§3.2.1 lazy
        claims with buffering).
    queue_discipline:
        How the admission queue is walked each interval — the paper's
        §5 poses this as an open fairness question, so several
        disciplines are provided:

        * ``"scan"`` (default) — non-blocking FIFO: walk the whole
          queue in arrival order, admitting whoever can claim.
        * ``"fcfs"`` — strict head-of-line order: stop at the first
          request that cannot finish claiming.
        * ``"sjf"`` — smallest job first: walk in ascending degree of
          declustering (small requests get priority), FIFO within a
          degree class.
        * ``"largest_first"`` — descending degree (wide displays are
          the hardest to place; give them first pick of free slots).
    half_slot_objects:
        When True, objects whose bandwidth is below (or not a multiple
        of) the disk bandwidth are admitted on logical half-disks
        (§3.2.3).
    """

    def __init__(
        self,
        catalog: Catalog,
        disk_manager: DiskManager,
        object_manager: ObjectManager,
        tertiary_manager: Optional[TertiaryManager] = None,
        admission_mode: AdmissionMode = AdmissionMode.FRAGMENTED,
        queue_discipline: str = "scan",
        half_slot_objects: bool = False,
        disk_bandwidth: Optional[float] = None,
        obs=None,
    ) -> None:
        if queue_discipline not in ("scan", "fcfs", "sjf", "largest_first"):
            raise ConfigurationError(
                f"queue_discipline must be one of scan/fcfs/sjf/"
                f"largest_first, got {queue_discipline!r}"
            )
        if half_slot_objects and disk_bandwidth is None:
            raise ConfigurationError(
                "half_slot_objects requires disk_bandwidth to derive degrees"
            )
        self.catalog = catalog
        self.disk_manager = disk_manager
        self.object_manager = object_manager
        self.tertiary_manager = tertiary_manager
        self.admitter = Admitter(disk_manager.pool, mode=admission_mode, obs=obs)
        self._pool = disk_manager.pool
        self._fragmented = admission_mode is AdmissionMode.FRAGMENTED
        self.queue_discipline = queue_discipline
        self.half_slot_objects = half_slot_objects
        self.disk_bandwidth = disk_bandwidth
        # Telemetry (None → nothing is recorded; the engine books the
        # per-interval samples through observe_sample; see repro.obs).
        self.obs = obs
        if obs is not None:
            registry = obs.registry
            self._m_disk_busy = registry.utilization_matrix(
                "disk.busy", disk_manager.num_disks,
            )
            self._m_queue_depth = registry.series("admission.queue_depth")
            self._m_active = registry.series("displays.active")
            self._m_staging = registry.series(
                "buffers.staging_mbit", buffer="staging"
            )
            self._c_admitted = registry.counter("scheduler.admitted")
            self._c_completed = registry.counter("scheduler.completed")
            self._c_evictions = registry.counter("scheduler.evictions")
            self._c_materializations = registry.counter(
                "scheduler.materializations"
            )
            # All four mirror plain ints kept on the event paths;
            # published to the registry at snapshot time.
            obs.add_flusher(self._flush_counters)
        self._n_admitted = 0
        self._n_materializations = 0
        # Batched admission (repro.core.batch): the verdict index is
        # the registry of queued displays (added at creation and by a
        # reposition, removed on admission and cancel), and one pass
        # over their waiting lanes per interval tells the walk which
        # of them can claim.
        self._batch_index = BatchAdmissionIndex(
            disk_manager.pool, self.admitter.mode
        )
        self._fcfs = queue_discipline == "fcfs"
        # The anti-hoarding test rejects a display-less entry whose
        # degree exceeds the budget; once the budget is below every
        # degree in the catalog, no display-less entry can pass.
        self._min_degree = min((obj.degree for obj in catalog), default=1)

        # Fault coordinator (attach_faults); None = fault-free hooks
        # are skipped and the run is byte-identical to the seed.
        self.faults = None
        # Unclaimed lanes across queued displays, maintained at display
        # creation and on every lane claim, so the per-interval
        # anti-hoarding budget is one subtraction instead of a queue
        # walk.  Queued and active displays are disjoint (an entry
        # leaves the queue the pass it completes; fault aborts requeue
        # a bare request), so nothing else moves the count.  The
        # sanitizer cross-checks it against a recount every interval.
        self._queued_pending_lanes = 0
        # Queue entries whose placement is deferred (submit could not
        # evict enough to place the object), so the per-interval retry
        # walk runs only while there is something to retry.  Changed
        # only by submit, the retry walk and try_cancel: a deferred
        # entry never gets a display (its object is not placed, so not
        # resident), and reposition and fault aborts queue non-deferred
        # entries.  The sanitizer recounts it every interval.
        self._n_deferred = 0
        self._queue: List[_QueueEntry] = []
        self._active: Dict[int, Display] = {}
        self._display_request: Dict[int, Request] = {}
        self._cancelled: Set[int] = set()
        self._display_seq = 0
        # Heaps of scheduled events.  Lane releases carry the slot so a
        # slot can be returned even after its display completed.
        self._lane_releases: List[Tuple[int, int, int]] = []  # (t, disp, slot)
        self._completions: List[Tuple[int, int]] = []  # (t, disp)
        # Statistics.
        self.completed = 0
        self.startup_latency = Tally(name="staggered.startup")
        self.queue_length_sum = 0
        self.intervals_advanced = 0
        # §3.2.1 trade-off accounting: staging memory held by
        # time-fragmented displays (early lanes buffering fragments).
        self._staging_memory = 0.0
        self.peak_staging_memory = 0.0
        self.fragmented_admissions = 0

    def _flush_counters(self) -> None:
        self._c_admitted.value = float(self._n_admitted)
        self._c_completed.value = float(self.completed)
        self._c_evictions.value = float(self.object_manager.evictions)
        self._c_materializations.value = float(self._n_materializations)

    def __repr__(self) -> str:
        return (
            f"<StaggeredStripingPolicy k={self.disk_manager.stride} "
            f"queue={len(self._queue)} active={len(self._active)}>"
        )

    # ------------------------------------------------------------------
    # StoragePolicy interface
    # ------------------------------------------------------------------
    def preload(self, object_ids: List[int]) -> None:
        """Place and mark resident without tertiary cost (warm start).

        Each object in turn must fit the object manager's free
        capacity; the list is then placed in one batch
        (:meth:`~repro.core.disk_manager.DiskManager.place_objects`)
        and marked resident.  A preload that does not fit changes
        nothing.
        """
        objects = [self.catalog.get(object_id) for object_id in object_ids]
        capacity = self.object_manager.capacity
        used = self.object_manager.used
        for obj in objects:
            if obj.size - (capacity - used) > 1e-6:
                raise ConfigurationError(
                    f"preload overflows disk capacity at object {obj.object_id}"
                )
            used += obj.size
        self.disk_manager.place_objects(objects)
        for object_id in object_ids:
            self.object_manager.add_resident(object_id)

    def submit(self, request: Request, interval: int) -> None:
        """A request enters: record access, start a materialisation on
        a miss, and queue for admission."""
        obj = self.catalog.get(request.object_id)
        self.object_manager.pin(request.object_id)
        hit = self.object_manager.record_access(request.object_id, interval)
        entry = _QueueEntry(request=request, degree=obj.degree)
        if not hit and not self._materialization_pending(request.object_id):
            if not self._start_materialization(obj, interval):
                entry.deferred_placement = True
                self._n_deferred += 1
        self._queue.append(entry)

    def try_cancel(self, request: Request, interval: int) -> bool:
        """Withdraw ``request`` if it is still waiting for admission.

        Open workloads block requests whose deadline expires (see
        :mod:`repro.workload.arrivals`).  A queued entry is removed
        and every resource :meth:`submit` or a partial admission pass
        acquired is handed back: tentatively claimed lanes (via
        :meth:`repro.core.admission.Admitter.abort`), the pending-lane
        budget, and the object pin.  A request whose display already
        activated is refused — it runs to completion.  An in-flight
        materialisation is deliberately left running: the title still
        lands on disk for future arrivals.
        """
        for index, entry in enumerate(self._queue):
            if entry.request.request_id == request.request_id:
                break
        else:
            return False
        del self._queue[index]
        if entry.deferred_placement:
            self._n_deferred -= 1
        display = entry.display
        if display is not None:
            self._queued_pending_lanes -= display.pending_lane_count
            self._cancel_display(display)
        self.object_manager.unpin(request.object_id)
        return True

    def attach_faults(self, coordinator) -> None:
        """Install a fault coordinator (see :mod:`repro.faults`)."""
        self.faults = coordinator

    def advance(self, interval: int) -> List[Completion]:
        """One interval: releases, tertiary progress, admission,
        completions.

        Each stage runs only when it has work, tested inline on the
        state it would read: a lane release or completion due at the
        heap's top, a tertiary writer running or a job waiting, a
        deferred placement, a queued request.  A stage without work
        would change nothing, so the interval is the same as running
        every stage.
        """
        self.intervals_advanced += 1
        faults = self.faults
        if faults is not None:
            faults.begin_interval(interval, self)
        releases = self._lane_releases
        if releases and releases[0][0] <= interval:
            self._process_lane_releases(interval)
        tm = self.tertiary_manager
        if tm is not None and (tm._current is not None or tm._queue):
            self._process_tertiary(interval)
        if self._n_deferred:
            self._retry_deferred_placements(interval)
        if self._queue:
            self._admission_pass(interval)
        if faults is not None:
            faults.settle(interval, self)
        completions = self._completions
        if completions and completions[0][0] <= interval:
            finished = self._process_completions(interval)
        else:
            finished = []
        self.queue_length_sum += len(self._queue)
        return finished

    def next_activity(self, interval: int) -> int:
        """The earliest of the lane-release and completion heaps'
        tops, the tertiary writer's next change, the fault
        coordinator's next change (:meth:`~repro.faults.coordinator.
        FaultCoordinator.next_change`) and, for CONTIGUOUS admission,
        the first interval at which a queued display's aligned window
        rotates onto free slots.

        Steps every interval (returns ``interval + 1``) while the
        model cannot predict its next change cheaply: while a fault
        coordinator is degraded, while a placement is deferred, and
        under FRAGMENTED admission while a queued display still claims
        lanes (each lane's chance comes at its own rotation offset).
        """
        step = interval + 1
        if (
            (self._queued_pending_lanes and self._fragmented)
            or self._n_deferred
        ):
            return step
        wake = NEVER
        if self.faults is not None:
            wake = self.faults.next_change(interval)
            if wake == step:
                return step
        if self.tertiary_manager is not None:
            wake = min(wake, self.tertiary_manager.next_activity(interval))
        if self._queue:
            if self._displayless_admissible():
                return step
            if not self._fragmented:
                wake = min(
                    wake, self._batch_index.first_admissible(interval + 1)
                )
        if self._lane_releases and self._lane_releases[0][0] < wake:
            wake = self._lane_releases[0][0]
        if self._completions and self._completions[0][0] < wake:
            wake = self._completions[0][0]
        return max(wake, step)

    def _displayless_admissible(self) -> bool:
        """Would the next pass give a display-less entry its display?

        It does once the entry's object is resident and (FRAGMENTED)
        its degree fits the claim budget; residency and the budget
        change only at events, or when a cancel returns a partial
        display's lanes after the pass.  Under fcfs the walk reaches a
        display-less entry only at the head.
        """
        budget = self._claim_budget()
        if budget is not None and budget < self._min_degree:
            return False
        is_resident = self.object_manager.is_resident
        for entry in self._reachable():
            if (
                entry.display is None
                and (budget is None or entry.degree <= budget)
                and is_resident(entry.request.object_id)
            ):
                return True
        return False

    def _reachable(self) -> List[_QueueEntry]:
        """The entries a pass that changes nothing walks: under fcfs
        the head (a head that cannot progress stops the walk), else
        the whole queue."""
        return self._queue[:1] if self._fcfs else self._queue

    def _idle_attempts(self) -> int:
        """Claim attempts a pass that changes nothing books: one per
        queued display, or under fcfs one if the head has a display."""
        if self._fcfs:
            queue = self._queue
            return int(bool(queue) and queue[0].display is not None)
        return len(self._batch_index)

    def skip_span(self, start: int, stop: int) -> None:
        """Book a quiet span (see :meth:`next_activity`): the queue
        waits, a running writer stays busy, a fault coordinator counts
        healthy intervals, and each interval books the claim attempts
        of a pass that changes nothing."""
        n = stop - start
        self.intervals_advanced += n
        self.queue_length_sum += len(self._queue) * n
        if self.tertiary_manager is not None:
            self.tertiary_manager.skip(n)
        if self.faults is not None:
            self.faults.skip(n)
        if self.obs is not None:
            attempts = self._idle_attempts()
            if attempts:
                self.admitter.count_attempts(attempts * n)

    def observe_sample(self, interval: int) -> None:
        """Telemetry sample: queue depth, active displays, staging
        memory, per-drive busy state, the tertiary queue and the load
        counter (obs enabled only; see
        :meth:`~repro.simulation.policy.StoragePolicy.observe_sample`)."""
        t = float(interval)
        self._m_queue_depth.record(t, float(len(self._queue)))
        self._m_active.record(t, float(len(self._active)))
        self._m_staging.record(t, self._staging_memory)
        self.disk_manager.observe_interval(self._m_disk_busy, interval)
        if self.tertiary_manager is not None:
            self.tertiary_manager.observe_sample(interval)
        tracer = self.obs.tracer
        if tracer is not None:
            tracer.counter(
                "scheduler.load", t,
                queued=len(self._queue), active=len(self._active),
            )

    def pending_count(self) -> int:
        """Queued plus active (not yet completed) requests."""
        return len(self._queue) + len(self._active)

    def utilization_sample(self) -> UtilizationSample:
        """Active displays and fraction of virtual disks in use."""
        pool = self._pool
        # Busy slots (owned or held): those not fully free.
        busy = pool.num_disks - pool._buckets[HALVES_PER_SLOT]
        return len(self._active), busy / pool.num_disks

    def stats(self) -> Dict[str, float]:
        """Policy statistics for the result report.

        ``peak_staging_memory_mbit`` is the no-coalescing upper bound:
        the scheduler never runs Algorithm 2, so a time-fragmented
        display holds its steady-state buffers
        (:meth:`~repro.core.display.Display.buffer_demand`) until it
        ends.  Coalescing would release them early.
        """
        om = self.object_manager
        report = {
            "completed_displays": float(self.completed),
            "mean_startup_latency_intervals": self.startup_latency.mean,
            "max_startup_latency_intervals": (
                self.startup_latency.maximum if self.startup_latency.count else 0.0
            ),
            "hit_rate": om.hit_rate(),
            "evictions": float(om.evictions),
            "resident_objects": float(len(om.resident_objects())),
            "mean_queue_length": (
                self.queue_length_sum / self.intervals_advanced
                if self.intervals_advanced
                else 0.0
            ),
            "fragmented_admissions": float(self.fragmented_admissions),
            "peak_staging_memory_mbit": self.peak_staging_memory,
        }
        if self.tertiary_manager is not None:
            report["tertiary_utilization"] = self.tertiary_manager.utilization(
                self.intervals_advanced
            )
            report["tertiary_completed"] = float(self.tertiary_manager.completed)
        if self.faults is not None:
            report.update(self.faults.stats())
        return report

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(self, sanitizer, interval: int) -> None:
        """The policy-level invariant suite, run once per interval.

        Delegates half-slot accounting to the disk array and slot
        pool, then checks the two properties only the scheduler can
        see: buffer conservation (the staging-memory gauge equals the
        recomputed demand of the active displays) and event-time
        monotonicity (no due lane release or completion is still
        sitting in a heap after the interval was processed).
        """
        self.disk_manager.array.verify_invariants(sanitizer, interval)
        self.disk_manager.pool.verify_invariants(sanitizer, interval)
        expected = sum(
            display.buffer_demand() for display in self._active.values()
        )
        sanitizer.expect(
            abs(self._staging_memory - expected) <= 1e-6 * max(1.0, expected),
            "buffer_conservation",
            f"staging memory gauge {self._staging_memory:.6f} != "
            f"recomputed active-display demand {expected:.6f} mbit in "
            f"interval {interval}",
        )
        sanitizer.expect(
            self._staging_memory >= -1e-9,
            "buffer_conservation",
            f"staging memory went negative in interval {interval}: "
            f"{self._staging_memory}",
        )
        reserved = sum(
            entry.display.pending_lane_count
            for entry in self._queue
            if entry.display is not None
        )
        sanitizer.expect(
            reserved == self._queued_pending_lanes,
            "occ_index",
            f"queued pending-lane count drifted in interval {interval}: "
            f"running {self._queued_pending_lanes} != recount {reserved}",
        )
        deferred = sum(1 for entry in self._queue if entry.deferred_placement)
        sanitizer.expect(
            deferred == self._n_deferred,
            "occ_index",
            f"deferred-placement count drifted in interval {interval}: "
            f"running {self._n_deferred} != recount {deferred}",
        )
        self._batch_index.verify_invariants(
            sanitizer,
            interval,
            [entry.display for entry in self._queue if entry.display],
        )
        # Heap-min bounds every entry, so a whole-heap scan is needed
        # only when something is actually due — O(1) on the common
        # clean interval instead of O(pending lanes).
        releases = self._lane_releases
        stale_possible = bool(releases) and releases[0][0] <= interval
        for due, display_id, _slot in releases if stale_possible else ():
            if due > interval:
                continue
            # Fragmented admission activates a display only once its
            # *last* lane is claimed; earlier lanes finished their
            # (buffered) reads beforehand, so activation — which runs
            # after this interval's release pass — may push entries
            # already due.  They drain at the next pass; only entries
            # from older activations are genuinely stale.
            display = self._active.get(display_id)
            sanitizer.expect(
                display_id in self._cancelled
                or (display is not None and display.deliver_start == interval),
                "event_time",
                f"lane release due at {due} still queued after "
                f"interval {interval}",
            )
        if self._completions:
            sanitizer.expect(
                self._completions[0][0] > interval,
                "event_time",
                f"completion due at {self._completions[0][0]} still "
                f"queued after interval {interval}",
            )

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """Nothing scheduled and nothing admissible in ``start ..
        stop - 1``: no heap top, writer change or must-step condition
        falls inside, a fault coordinator stays quiet, and at every
        skipped interval no display the walk reaches is claimable and
        no display-less entry it reaches could get a display."""
        span = f"skipped intervals {start}..{stop - 1}"
        sanitizer.expect(
            not self._n_deferred,
            "skip",
            f"deferred placement active in {span}",
        )
        if self.faults is not None:
            self.faults.verify_skip(sanitizer, start, stop)
        for name, heap in (
            ("lane release", self._lane_releases),
            ("completion", self._completions),
        ):
            if heap:
                sanitizer.expect(
                    heap[0][0] >= stop,
                    "skip",
                    f"{name} due at {heap[0][0]} in {span}",
                )
        tm = self.tertiary_manager
        job = tm._current if tm is not None else None
        if job is not None:
            sanitizer.expect(
                job.finish_interval is not None
                and job.finish_interval >= stop,
                "skip",
                f"tertiary writer claims lanes or finishes in {span}",
            )
        elif tm is not None:
            sanitizer.expect(
                not tm._queue, "skip", f"a materialisation starts in {span}"
            )
        budget = self._claim_budget()
        reachable = self._reachable()
        for entry in reachable:
            if entry.display is None and self.object_manager.is_resident(
                entry.request.object_id
            ):
                sanitizer.expect(
                    budget is not None and entry.degree > budget,
                    "skip",
                    f"{entry.request} could get a display in {span}",
                )
        displays = [e.display.display_id for e in reachable if e.display]
        if not displays:
            return
        for interval in range(start, stop):
            sanitizer.expect(
                self._batch_index.claimable(interval).isdisjoint(displays),
                "skip",
                f"a queued display could claim at {interval} in {span}",
            )

    # ------------------------------------------------------------------
    # Rewind / fast-forward support (§3.2.5)
    # ------------------------------------------------------------------
    def reposition(
        self, display_id: int, target_subobject: int, interval: int
    ) -> Display:
        """Jump an active display to ``target_subobject``.

        The display's lanes are released and a tail display re-enters
        the admission queue at the front (the station observes a
        seek, never a hiccup — nothing is displayed while seeking).
        Returns the replacement display.
        """
        display = self._active.get(display_id)
        if display is None:
            raise SchedulingError(f"display {display_id} is not active")
        original = self._display_request[display_id]
        obj = display.obj
        current = max(
            0, min(interval - display.deliver_start, obj.num_subobjects - 1)
        )
        plan = plan_reposition(
            obj,
            display.start_disk,
            self.disk_manager.num_disks,
            self.disk_manager.stride,
            current_subobject=current,
            target_subobject=target_subobject,
        )
        self._cancel_display(display)
        tail = MediaObject(
            object_id=obj.object_id,
            media_type=obj.media_type,
            num_subobjects=obj.num_subobjects - target_subobject,
            degree=obj.degree,
            fragment_size=obj.fragment_size,
        )
        replacement = self._new_display(tail, plan.target_start_disk, original)
        self._queue.insert(
            0,
            _QueueEntry(
                request=original, degree=obj.degree, display=replacement
            ),
        )
        self._queued_pending_lanes += len(replacement.lanes)
        self._batch_index.add_display(replacement)
        return replacement

    def abort_display(self, display: Display) -> None:
        """Cancel ``display`` and requeue its request at the head (a
        fault abort: the station still waits on the request, and the
        redisplay restarts once re-admitted)."""
        request = self._display_request.get(display.display_id)
        self._cancel_display(display)
        if request is not None:
            degree = self.catalog.get(request.object_id).degree
            self._queue.insert(0, _QueueEntry(request=request, degree=degree))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _materialization_pending(self, object_id: int) -> bool:
        tm = self.tertiary_manager
        return tm is not None and tm.is_pending(object_id)

    def _start_materialization(self, obj: MediaObject, interval: int) -> bool:
        """Place the object and queue its materialisation.

        Returns False when eviction could not free enough space (all
        resident objects pinned); the caller retries next interval.
        """
        if self.tertiary_manager is None:
            raise SchedulingError(
                f"object {obj.object_id} is not resident and no tertiary "
                "device is configured"
            )
        if self.disk_manager.is_placed(obj.object_id):
            self.tertiary_manager.request(obj, interval)
            return True
        fits, evicted = self.object_manager.make_room(obj.size)
        for victim in evicted:
            self.disk_manager.evict_object(victim)
            if self.obs is not None and self.obs.tracer is not None:
                self.obs.tracer.instant(
                    "scheduler", "evict", float(interval),
                    object=victim, track="scheduler",
                )
        if not fits:
            return False
        self.object_manager.reserve(obj.object_id)
        self.disk_manager.place_object(obj)
        self.tertiary_manager.request(obj, interval)
        self._n_materializations += 1
        return True

    def _retry_deferred_placements(self, interval: int) -> None:
        """Retry the placements :meth:`submit` deferred, in queue order.

        Returns at once while nothing is deferred, and stops after the
        last deferred entry instead of walking the rest of the queue.
        """
        remaining = self._n_deferred
        if not remaining:
            return
        for entry in self._queue:
            if not entry.deferred_placement:
                continue
            obj = self.catalog.get(entry.request.object_id)
            placed = self._materialization_pending(obj.object_id) or (
                self._start_materialization(obj, interval)
            )
            if placed:
                entry.deferred_placement = False
                self._n_deferred -= 1
            remaining -= 1
            if not remaining:
                return

    def _process_tertiary(self, interval: int) -> None:
        tm = self.tertiary_manager
        if tm is None:
            return
        finished = tm.advance(
            interval, self.disk_manager.pool, self.disk_manager.start_disk
        )
        for object_id in finished:
            self.object_manager.add_resident(object_id)

    def _scan_order(self) -> List[_QueueEntry]:
        """The queue in the configured walk order (the stored queue
        itself always stays in arrival order)."""
        if self.queue_discipline == "sjf":
            return sorted(self._queue, key=lambda e: e.degree)
        if self.queue_discipline == "largest_first":
            return sorted(self._queue, key=lambda e: -e.degree)
        return self._queue

    def _admission_pass(self, interval: int) -> None:
        """Walk the queue in the discipline's order, giving display-less
        entries their display and probing each display's claim.

        Every display-having entry's object is pinned (submit pins,
        completion and cancel unpin) and the object manager never
        evicts a pinned object, so only a display-less entry can be
        non-resident.  A display-less entry whose degree exceeds the
        FRAGMENTED claim budget is passed over (the anti-hoarding rule,
        see :meth:`_claim_budget`).  fcfs stops the walk at the first
        entry that cannot finish claiming: a non-resident entry, a
        display-less entry over budget, a False verdict, or an
        incomplete claim.  One claim attempt is counted per display the
        walk reaches, probed or not.

        With any display queued, the walk first takes every queued
        display's claim verdict
        (:meth:`BatchAdmissionIndex.pass_verdicts`).  A display with a
        False verdict would claim nothing this pass (see
        :mod:`repro.core.batch`), so its probe is skipped.  Once any
        claim has landed, a True verdict may be stale, so the walk
        refreshes the verdict of each display it reaches
        (:meth:`BatchAdmissionIndex.verdict`) before probing it; a
        False one stays valid, as free halves only fall during the
        pass.  A display created during the pass is probed directly.

        Two whole-pass fast-outs need no walk at all, when (a) a
        FRAGMENTED pool is saturated — every probe claims nothing and
        the budget (0 free minus reserved) blocks every creation — or
        (b) no queued display can claim and no creation is possible
        (nothing display-less, or a budget below the catalog's smallest
        degree).  The same bound ends a walk early: the budget only
        falls during a pass, so once it is below the smallest degree
        and the walk has passed every display that existed before the
        pass, nothing later in the walk can claim.
        """
        index = self._batch_index
        n_displays = len(index)
        fcfs = self._fcfs
        idle = self._fragmented and not self.disk_manager.pool._free_half_total
        if not idle:
            budget = self._claim_budget()
            min_degree = self._min_degree
            verdicts = index.pass_verdicts(interval) if n_displays else {}
            idle = True not in verdicts.values() and (
                len(self._queue) == n_displays
                or (budget is not None and budget < min_degree)
            )
        if idle:
            if self.obs is not None:
                # The attempts of a pass that changes nothing
                # (:meth:`_idle_attempts`), booked with one add.
                self.admitter._n_attempts += (
                    self._queue[0].display is not None if fcfs
                    else n_displays
                )
            return
        admitted: List[int] = []
        attempts = 0
        displays_left = n_displays
        claimed = False
        order = self._scan_order()
        for position, entry in enumerate(order):
            display = entry.display
            if display is None:
                # The budget test runs before the residency lookup —
                # both are pure checks, so their order is unobservable,
                # and it makes the common budget-blocked entry one int
                # compare.
                degree = entry.degree
                if budget is not None and degree > budget:
                    if fcfs or (not displays_left and budget < min_degree):
                        break
                    continue
                object_id = entry.request.object_id
                if not self.object_manager.is_resident(object_id):
                    if fcfs:
                        break
                    continue
                if budget is not None:
                    budget -= degree
                display = entry.display = self._new_display(
                    self.catalog.get(object_id),
                    self.disk_manager.start_disk(object_id),
                    entry.request,
                )
                self._queued_pending_lanes += len(display.lanes)
                index.add_display(display)
                attempts += 1
            else:
                displays_left -= 1
                attempts += 1
                display_id = display.display_id
                if not verdicts[display_id] or (
                    claimed and not index.verdict(display_id, interval)
                ):
                    if fcfs:
                        break
                    continue
            plan = self.admitter.try_claim(display, interval)
            if plan.claimed_now:
                self._queued_pending_lanes -= len(plan.claimed_now)
                claimed = True
            if plan.complete:
                self._activate(display)
                index.remove_display(display.display_id)
                admitted.append(position)
            elif fcfs:
                break
        if attempts and self.obs is not None:
            # Batched once per pass; a local add per attempt keeps the
            # claim loop free of per-call instrument traffic.
            self.admitter.count_attempts(attempts)
        if admitted:
            self._drop_admitted(order, admitted)

    def _drop_admitted(
        self, order: List[_QueueEntry], admitted: List[int]
    ) -> None:
        """Remove the entries at ``admitted`` (ascending positions in
        the walk ``order``) from the stored queue, which keeps arrival
        order whatever order the discipline walked."""
        queue = self._queue
        if order is queue:
            for position in reversed(admitted):
                del queue[position]
            return
        gone = {id(order[position]) for position in admitted}
        self._queue = [e for e in queue if id(e) not in gone]

    def _claim_budget(self) -> Optional[int]:
        """Virtual disks available for *new* claimants (FRAGMENTED only).

        Fragmented admission claims lanes incrementally, and a lane is
        held until its display completes.  Without admission control,
        many partial displays can each hoard a few virtual disks until
        every disk is held and no display can ever become whole — a
        deadlock.  The fix: a display may start claiming only while
        the total outstanding lane demand of all claimants fits the
        free-slot supply (each claimed lane reduces demand and supply
        together, so the invariant is preserved and every claimant
        eventually completes its lane set).

        CONTIGUOUS claims are all-or-nothing and never hoard, so no
        budget applies (``None``).
        """
        if not self._fragmented:
            return None
        # Fully free slots minus the lanes promised to the queue.
        return (
            self._pool._buckets[HALVES_PER_SLOT] - self._queued_pending_lanes
        )

    def _new_display(
        self, obj: MediaObject, start_disk: int, request: Request
    ) -> Display:
        self._display_seq += 1
        degree_halves: Optional[int] = None
        lanes: List[Lane] = []
        if self.half_slot_objects and self.disk_bandwidth is not None:
            halves = degree_in_halves(obj.display_bandwidth, self.disk_bandwidth)
            if halves != 2 * obj.degree:
                degree_halves = halves
                lanes = [Lane(fragment=j) for j in range((halves + 1) // 2)]
        display = Display(
            display_id=self._display_seq,
            obj=obj,
            start_disk=start_disk,
            requested_at=request.issued_at,
            lanes=lanes,
            degree_halves=degree_halves,
        )
        self._display_request[display.display_id] = request
        return display

    def _activate(self, display: Display) -> None:
        self._active[display.display_id] = display
        n = display.obj.num_subobjects
        for lane in display.lanes:
            heapq.heappush(
                self._lane_releases,
                (lane.release_interval(n), display.display_id, lane.slot),
            )
        heapq.heappush(
            self._completions, (display.finish_interval, display.display_id)
        )
        self.startup_latency.record(display.startup_latency_intervals)
        self._n_admitted += 1
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.instant(
                "scheduler", "admit", float(display.deliver_start),
                display=display.display_id,
                object=display.obj.object_id,
                latency=display.startup_latency_intervals,
                track="scheduler",
            )
        demand = display.buffer_demand()
        if demand > 0:
            self.fragmented_admissions += 1
            self._staging_memory += demand
            if self._staging_memory > self.peak_staging_memory:
                self.peak_staging_memory = self._staging_memory

    def _process_lane_releases(self, interval: int) -> None:
        heap = self._lane_releases
        pool = self.disk_manager.pool
        while heap and heap[0][0] <= interval:
            _t, display_id, slot = heapq.heappop(heap)
            if display_id in self._cancelled:
                continue  # slots already returned by the abort
            pool.release(slot, display_id)

    def _process_completions(self, interval: int) -> List[Completion]:
        completions: List[Completion] = []
        heap = self._completions
        while heap and heap[0][0] <= interval:
            _t, display_id = heapq.heappop(heap)
            if display_id in self._cancelled:
                # Stays in the cancelled set: stale lane-release heap
                # entries for this display may still be pending.
                continue
            display = self._active.pop(display_id)
            request = self._display_request.pop(display_id)
            self.object_manager.unpin(request.object_id)
            self._staging_memory = max(
                0.0, self._staging_memory - display.buffer_demand()
            )
            self.completed += 1
            if self.obs is not None and self.obs.tracer is not None:
                # One complete ("X") span per display: request to
                # final delivery, on the displays track.
                self.obs.tracer.complete(
                    "display", f"display-{display_id}",
                    float(display.deliver_start),
                    dur=float(
                        display.finish_interval - display.deliver_start + 1
                    ),
                    object=request.object_id, track="displays",
                )
            completions.append(
                Completion(
                    request=request,
                    deliver_start=display.deliver_start,
                    finished_at=display.finish_interval,
                )
            )
        return completions

    def _cancel_display(self, display: Display) -> None:
        # A no-op for an active display (the index holds queued ones).
        self._batch_index.remove_display(display.display_id)
        self.admitter.abort(display)
        self._active.pop(display.display_id, None)
        self._cancelled.add(display.display_id)
        self._display_request.pop(display.display_id, None)
        if display.fully_laned:
            self._staging_memory = max(
                0.0, self._staging_memory - display.buffer_demand()
            )
