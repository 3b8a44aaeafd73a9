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
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.admission import AdmissionMode, Admitter
from repro.core.batch import BatchAdmissionIndex
from repro.core.display import Display, Lane
from repro.core.disk_manager import DiskManager
from repro.core.ff_rewind import plan_reposition
from repro.core.lowbw import degree_in_halves
from repro.core.object_manager import ObjectManager
from repro.core.tertiary_manager import TertiaryManager
from repro.errors import ConfigurationError, SchedulingError
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.obs.metrics import Tally
from repro.simulation.policy import NEVER, Completion, Request, StoragePolicy


@dataclass
class _QueueEntry:
    """One waiting (or partially admitted) request."""

    request: Request
    display: Optional[Display] = None
    deferred_placement: bool = False
    #: Cached object degree for the sjf/largest_first sort keys (an
    #: object's degree never changes; saves a catalog lookup per entry
    #: per interval while queued).
    degree: Optional[int] = None


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
        self._fragmented = admission_mode is AdmissionMode.FRAGMENTED
        self.queue_discipline = queue_discipline
        self.half_slot_objects = half_slot_objects
        self.disk_bandwidth = disk_bandwidth
        # Telemetry (None → the advance path is byte-for-byte the
        # uninstrumented one; see repro.obs).
        self.obs = obs
        if obs is not None:
            registry = obs.registry
            self._obs_stride = obs.sample_stride
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
            # Instance-bound dispatch: the uninstrumented `advance`
            # stays byte-for-byte the seed path and pays nothing off.
            self.advance = self._advance_observed
        self._n_admitted = 0
        self._n_materializations = 0
        # Batched admission (repro.core.batch): one numpy pass per
        # interval computes claim verdicts for the whole queue, and
        # displays that provably cannot claim skip their scalar probe.
        # Bound instance-wise like `advance`.  fcfs keeps the scalar
        # pass — its head-of-line stop at the first incomplete claim
        # ends the walk early, so a whole-queue verdict pass would be
        # wasted work (DESIGN.md decision 9).
        self._batch_index: Optional[BatchAdmissionIndex] = None
        if queue_discipline != "fcfs":
            self._batch_index = BatchAdmissionIndex(
                disk_manager.pool, self.admitter.mode
            )
            self._admission_pass = self._admission_pass_batched
            # The display-having queue entries, maintained between
            # passes as parallel display-id / segment-position lists
            # (order is irrelevant — they only feed attempt counts and
            # the verdict gather).  _batch_dirty forces a rebuild after
            # any mutation the pass itself did not make (cancellation,
            # reposition, fault abort — all route through
            # _cancel_display) or after the index compacts.
            self._batch_ids: List[int] = []
            self._batch_positions: List[int] = []
            self._batch_gather_np = None
            self._batch_dirty = True
            self._batch_generation = self._batch_index.generation
            # The anti-hoarding test rejects a display-less entry whose
            # degree exceeds the budget; once the budget is below every
            # degree in the catalog, no display-less entry can pass.
            self._min_degree = min(
                (obj.degree for obj in catalog), default=1
            )

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
        """Place and mark resident without tertiary cost (warm start)."""
        for object_id in object_ids:
            obj = self.catalog.get(object_id)
            if obj.size - self.object_manager.free_capacity > 1e-6:
                raise ConfigurationError(
                    f"preload overflows disk capacity at object {object_id}"
                )
            self.disk_manager.place_object(obj)
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
        completions."""
        self.intervals_advanced += 1
        if self.faults is not None:
            self.faults.begin_interval(interval)
        self._process_lane_releases(interval)
        self._process_tertiary(interval)
        self._retry_deferred_placements(interval)
        self._admission_pass(interval)
        if self.faults is not None:
            self.faults.settle(interval)
        completions = self._process_completions(interval)
        self.queue_length_sum += len(self._queue)
        return completions

    def next_activity(self, interval: int) -> int:
        """The earliest of the lane-release and completion heaps'
        tops, the tertiary writer's next change and, for CONTIGUOUS
        admission, the first interval at which a queued display's
        aligned window rotates onto free slots.

        Steps every interval (returns ``interval + 1``) while the
        model cannot predict its next change cheaply: under fcfs, with
        a fault coordinator attached, while a placement is deferred,
        and under FRAGMENTED admission while a queued display still
        claims lanes (each lane's chance comes at its own rotation
        offset).
        """
        step = interval + 1
        if (
            self._batch_index is None
            or (self._queued_pending_lanes and self._fragmented)
            or self.faults is not None
            or self._n_deferred
        ):
            return step
        wake = NEVER
        if self.tertiary_manager is not None:
            wake = self.tertiary_manager.next_activity(interval)
        if self._queue:
            if self._displayless_admissible():
                return step
            if not self._fragmented:
                wake = min(wake, self._next_contiguous_admission(interval))
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
        display's lanes after the pass.
        """
        budget = self._claim_budget()
        if budget is not None and budget < self._min_degree:
            return False
        is_resident = self.object_manager.is_resident
        for entry in self._queue:
            if (
                entry.display is None
                and (budget is None or self._entry_degree(entry) <= budget)
                and is_resident(entry.request.object_id)
            ):
                return True
        return False

    def _next_contiguous_admission(self, interval: int) -> int:
        """CONTIGUOUS: the first interval at which a queued display's
        aligned window rotates onto free slots
        (:meth:`BatchAdmissionIndex.first_admissible`)."""
        index = self._batch_index
        if self._batch_dirty or self._batch_generation != index.generation:
            self._batch_rebuild()
        return index.first_admissible(self._batch_gather(), interval + 1)

    def skip_span(self, start: int, stop: int) -> None:
        """Book a quiet span (see :meth:`next_activity`): the queue
        waits, a running writer stays busy, and every queued display
        counts one claim attempt per interval."""
        n = stop - start
        self.intervals_advanced += n
        self.queue_length_sum += len(self._queue) * n
        if self.tertiary_manager is not None:
            self.tertiary_manager.skip(n)
        if self.obs is not None:
            displays = sum(
                1 for entry in self._queue if entry.display is not None
            )
            if displays:
                self.admitter.count_attempts(displays * n)

    def _advance_observed(self, interval: int) -> List[Completion]:
        """The same interval pipeline with phase timers and metric
        samples around each stage.

        Scans and timers run on every ``sample_stride``-th interval
        only; other intervals take the plain pipeline (event counters
        stay exact — they live in the per-event hooks, not here).
        """
        obs = self.obs
        self.intervals_advanced += 1
        if interval % self._obs_stride:
            if self.faults is not None:
                self.faults.begin_interval(interval)
            self._process_lane_releases(interval)
            self._process_tertiary(interval)
            self._retry_deferred_placements(interval)
            self._admission_pass(interval)
            if self.faults is not None:
                self.faults.settle(interval)
            completions = self._process_completions(interval)
            self.queue_length_sum += len(self._queue)
            return completions
        profiler = obs.profiler
        t0 = perf_counter()
        if self.faults is not None:
            self.faults.begin_interval(interval)
        self._process_lane_releases(interval)
        t1 = perf_counter()
        profiler.add("scheduler.lane_releases", t1 - t0)
        self._process_tertiary(interval)
        t2 = perf_counter()
        profiler.add("scheduler.tertiary", t2 - t1)
        self._retry_deferred_placements(interval)
        self._admission_pass(interval)
        if self.faults is not None:
            self.faults.settle(interval)
        t3 = perf_counter()
        profiler.add("scheduler.admission", t3 - t2)
        completions = self._process_completions(interval)
        t4 = perf_counter()
        profiler.add("scheduler.completions", t4 - t3)
        self.queue_length_sum += len(self._queue)
        t = float(interval)
        self._m_queue_depth.record(t, float(len(self._queue)))
        self._m_active.record(t, float(len(self._active)))
        self._m_staging.record(t, self._staging_memory)
        self.disk_manager.observe_interval(self._m_disk_busy, interval)
        if self.tertiary_manager is not None:
            self.tertiary_manager.observe_sample(interval)
        if obs.tracer is not None:
            obs.tracer.counter(
                "scheduler.load", t,
                queued=len(self._queue), active=len(self._active),
            )
        profiler.add("scheduler.observe", perf_counter() - t4)
        return completions

    def pending_count(self) -> int:
        """Queued plus active (not yet completed) requests."""
        return len(self._queue) + len(self._active)

    def utilization_sample(self):
        """Active displays and fraction of virtual disks in use."""
        from repro.simulation.policy import UtilizationSample

        pool = self.disk_manager.pool
        return UtilizationSample(
            active_displays=len(self._active),
            busy_fraction=pool.busy_count / pool.num_disks,
        )

    def stats(self) -> Dict[str, float]:
        """Policy statistics for the result report."""
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
        if self._batch_index is not None:
            self._batch_index.verify_invariants(sanitizer, interval)
            if not self._batch_dirty:
                queued_ids = sorted(
                    entry.display.display_id
                    for entry in self._queue
                    if entry.display is not None
                )
                sanitizer.expect(
                    sorted(self._batch_ids) == queued_ids,
                    "batch_index",
                    f"maintained display-id list drifted in interval "
                    f"{interval}",
                )
                index = self._batch_index
                sanitizer.expect(
                    self._batch_generation == index.generation
                    and all(
                        index.position(display_id) == position
                        for display_id, position in zip(
                            self._batch_ids, self._batch_positions
                        )
                    ),
                    "batch_index",
                    f"maintained segment positions drifted in interval "
                    f"{interval}",
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
        falls inside, and at every skipped interval each queued
        display's verdict is False and no display-less entry could
        get a display."""
        span = f"skipped intervals {start}..{stop - 1}"
        sanitizer.expect(
            self.faults is None and not self._n_deferred,
            "skip",
            f"fault coordinator or deferred placement active in {span}",
        )
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
        displays = [e.display for e in self._queue if e.display is not None]
        budget = self._claim_budget()
        for entry in self._queue:
            if entry.display is None and self.object_manager.is_resident(
                entry.request.object_id
            ):
                sanitizer.expect(
                    budget is not None
                    and self._entry_degree(entry) > budget,
                    "skip",
                    f"{entry.request} could get a display in {span}",
                )
        if not displays:
            return
        index = self._batch_index
        positions = (
            [index.position(d.display_id) for d in displays]
            if index is not None else [None]
        )
        if None in positions:
            sanitizer.violation(
                "skip", f"queued displays have no claim verdicts in {span}"
            )
            return
        for interval in range(start, stop):
            verdicts = index.pass_verdicts(interval)[positions]
            sanitizer.expect(
                not verdicts.any(),
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
        self._queue.insert(0, _QueueEntry(request=original, display=replacement))
        self._queued_pending_lanes += len(replacement.lanes)
        return replacement

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

    def _entry_degree(self, entry: _QueueEntry) -> int:
        if entry.degree is None:
            entry.degree = self.catalog.get(entry.request.object_id).degree
        return entry.degree

    def _scan_order(self) -> List[_QueueEntry]:
        """The queue in the configured walk order (the stored queue
        itself always stays in arrival order)."""
        if self.queue_discipline == "sjf":
            return sorted(self._queue, key=self._entry_degree)
        if self.queue_discipline == "largest_first":
            return sorted(self._queue, key=lambda e: -self._entry_degree(e))
        return self._queue

    def _admission_pass(self, interval: int) -> None:
        admitted: List[int] = []
        blocked = False
        attempts = 0
        budget = self._claim_budget()
        order = self._scan_order()
        for position, entry in enumerate(order):
            if blocked:
                break
            if not self.object_manager.is_resident(entry.request.object_id):
                if self.queue_discipline == "fcfs":
                    blocked = True
                continue
            if entry.display is None:
                obj = self.catalog.get(entry.request.object_id)
                if budget is not None:
                    if obj.degree > budget:
                        # Anti-hoarding rule: beginning to claim now
                        # could leave partially-laned displays holding
                        # virtual disks that can never all be
                        # completed — a deadlock (see DESIGN.md §4).
                        if self.queue_discipline == "fcfs":
                            blocked = True
                        continue
                    budget -= obj.degree
                start = self.disk_manager.start_disk(entry.request.object_id)
                entry.display = self._new_display(obj, start, entry.request)
                self._queued_pending_lanes += len(entry.display.lanes)
            attempts += 1
            plan = self.admitter.try_claim(entry.display, interval)
            if plan.claimed_now:
                self._queued_pending_lanes -= len(plan.claimed_now)
            if plan.complete:
                self._activate(entry.display)
                admitted.append(position)
            elif self.queue_discipline == "fcfs":
                blocked = True
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

    def _batch_rebuild(self) -> None:
        """Re-derive the maintained display-id / segment-position lists
        from the stored queue (after a cancel, reposition, fault
        abort, or index compaction)."""
        index = self._batch_index
        ids: List[int] = []
        positions: List[int] = []
        for entry in self._queue:
            display = entry.display
            if display is None:
                continue
            position = index.position(display.display_id)
            if position is None:
                position = index.add_display(display)
            ids.append(display.display_id)
            positions.append(position)
        self._batch_ids = ids
        self._batch_positions = positions
        self._batch_gather_np = None
        self._batch_dirty = False
        self._batch_generation = index.generation

    def _batch_gather(self):
        """The maintained segment positions as a numpy index array."""
        gather = self._batch_gather_np
        if gather is None:
            gather = self._batch_gather_np = np.array(
                self._batch_positions, dtype=np.intp
            )
        return gather

    def _batch_keep_ids(self, interval: int) -> Optional[Set[int]]:
        """Display ids whose pre-probe verdict is True right now, or
        None when every queued display's verdict is False."""
        ok = self._batch_index.pass_verdicts(interval)[self._batch_gather()]
        if not ok.any():
            return None
        ids = self._batch_ids
        return {ids[i] for i in np.flatnonzero(ok).tolist()}

    def _admission_pass_batched(self, interval: int) -> None:
        """:meth:`_admission_pass` with vectorised claim verdicts.

        Byte-identical to the scalar pass (see the equivalence
        argument in :mod:`repro.core.batch`): a False verdict proves
        the display's scalar probe would claim nothing this pass, so
        it is skipped — but still counted as an attempt; a True
        verdict (and any display created during this pass) takes the
        scalar claim path unchanged.  After any successful claim the
        verdicts are recomputed before the next probe, so stale True
        verdicts never trigger doomed probes.

        Two whole-pass fast-outs need no walk at all.  Every
        display-having queue entry's object is pinned (submit pins,
        completion/cancel unpin) and the object manager never evicts a
        pinned object, so the scalar pass's per-entry residency check
        is True for all of them and the pass reduces to attempt
        accounting when (a) the pool is saturated — the scalar pass
        would deny every display on its one-integer fast-out and the
        claim budget (0 free minus reserved) blocks every creation —
        or (b) every verdict is False and no creation is possible
        (nothing display-less, or a budget below the catalog's smallest
        degree, which fails every display-less entry's anti-hoarding
        test).

        The same bound ends a walk early.  The budget only falls during
        a pass, so once it is below the smallest degree and the walk
        has passed every display-having entry that existed before the
        pass (entries given a display this pass were already visited),
        nothing later in the walk can claim.
        """
        index = self._batch_index
        if self._batch_dirty or self._batch_generation != index.generation:
            self._batch_rebuild()
        n_displays = len(self._batch_ids)
        pool = self.disk_manager.pool
        fragmented = self.admitter.mode is AdmissionMode.FRAGMENTED
        if fragmented and not pool._free_half_total:
            if n_displays and self.obs is not None:
                self.admitter.count_attempts(n_displays)
            return
        budget = self._claim_budget()
        keep: Optional[Set[int]] = None
        if n_displays:
            keep = self._batch_keep_ids(interval)
        min_degree = self._min_degree
        if keep is None:
            displayless = len(self._queue) - n_displays
            if displayless == 0 or (budget is not None and budget < min_degree):
                if n_displays and self.obs is not None:
                    self.admitter.count_attempts(n_displays)
                return
        admitted: List[int] = []
        admitted_ids: List[int] = []
        attempts = n_displays
        displays_left = n_displays
        stale = False
        order = self._scan_order()
        for position, entry in enumerate(order):
            display = entry.display
            if display is None:
                # The budget test runs on the cached degree before the
                # residency lookup — both are pure checks, so the swap
                # (vs the scalar pass) is unobservable, and it makes
                # the common budget-blocked entry one int compare.
                if budget is not None:
                    degree = entry.degree
                    if degree is None:
                        degree = self._entry_degree(entry)
                    if degree > budget:
                        # Anti-hoarding rule — see _admission_pass.
                        if not displays_left and budget < min_degree:
                            break
                        continue
                if not self.object_manager.is_resident(
                    entry.request.object_id
                ):
                    continue
                obj = self.catalog.get(entry.request.object_id)
                if budget is not None:
                    budget -= obj.degree
                start = self.disk_manager.start_disk(entry.request.object_id)
                display = entry.display = self._new_display(
                    obj, start, entry.request
                )
                self._queued_pending_lanes += len(display.lanes)
                self._batch_ids.append(display.display_id)
                self._batch_positions.append(index.add_display(display))
                self._batch_gather_np = None
                attempts += 1
                # A display created this pass is probed directly — it
                # has no pre-pass verdict.
            else:
                displays_left -= 1
                if keep is None or display.display_id not in keep:
                    continue
                if stale:
                    keep = self._batch_keep_ids(interval)
                    stale = False
                    if keep is None or display.display_id not in keep:
                        continue
            plan = self.admitter.try_claim(display, interval)
            if plan.claimed_now:
                self._queued_pending_lanes -= len(plan.claimed_now)
                index.on_claim(display)
                stale = True
            if plan.complete:
                self._activate(display)
                admitted.append(position)
                admitted_ids.append(display.display_id)
        if attempts and self.obs is not None:
            self.admitter.count_attempts(attempts)
        if admitted:
            self._drop_admitted(order, admitted)
            # Order of the maintained lists is irrelevant, so admitted
            # displays are swap-removed in place.
            gone = set(admitted_ids)
            ids = self._batch_ids
            positions = self._batch_positions
            i = 0
            remaining = len(gone)
            while remaining and i < len(ids):
                if ids[i] in gone:
                    gone.discard(ids[i])
                    remaining -= 1
                    ids[i] = ids[-1]
                    positions[i] = positions[-1]
                    ids.pop()
                    positions.pop()
                else:
                    i += 1
            self._batch_gather_np = None
            for display_id in admitted_ids:
                index.remove_display(display_id)
            if index.generation != self._batch_generation:
                # Compaction renumbered the segments; the cached
                # positions die with the old generation.
                self._batch_dirty = True

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
        if self.admitter.mode is not AdmissionMode.FRAGMENTED:
            return None
        return self.disk_manager.pool.free_count - self._queued_pending_lanes

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
        if self._batch_index is not None:
            # Covers every out-of-pass queue mutation that can touch a
            # display-having entry: try_cancel, reposition, and fault
            # aborts all come through here.  Cancels of active displays
            # dirty the lists needlessly — they are rare, and the
            # rebuild is one queue walk.
            self._batch_index.remove_display(display.display_id)
            self._batch_dirty = True
        self.admitter.abort(display)
        self._active.pop(display.display_id, None)
        self._cancelled.add(display.display_id)
        self._display_request.pop(display.display_id, None)
        if display.fully_laned:
            self._staging_memory = max(
                0.0, self._staging_memory - display.buffer_demand()
            )
