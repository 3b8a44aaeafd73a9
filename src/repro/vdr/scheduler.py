"""Virtual data replication as a pluggable storage policy (§2, §4.1).

Per interval the policy:

1. retires finished cluster activities (displays complete; clones and
   materialisations register their new copy);
2. starts the next queued materialisation when the tertiary device and
   a victim cluster are both free;
3. walks the admission queue: a request whose object has a free copy
   starts displaying on that cluster; on the way it may trigger an MRT
   replication (a clone mirrored from the new display onto a victim
   cluster); a request whose object has no copy at all queues a
   materialisation.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.hardware.tertiary import TertiaryDevice
from repro.media.catalog import Catalog
from repro.media.tape_layout import TapeLayout
from repro.obs.metrics import Tally
from repro.simulation.policy import (
    NEVER,
    Completion,
    Request,
    StoragePolicy,
    UtilizationSample,
)
from repro.vdr.clusters import ClusterArray
from repro.vdr.replication import MRTReplication


class VirtualReplicationPolicy(StoragePolicy):
    """The [GS93] baseline with MRT dynamic replication.

    Parameters
    ----------
    catalog:
        The database.
    clusters:
        The physical cluster array.
    device:
        The tertiary store.
    tape_layout:
        Recording order on the tertiary medium.
    interval_length:
        ``S(C_i)`` in seconds.
    replication_threshold:
        MRT trigger (waiters per copy).
    replication_source:
        ``"stream"`` mirrors an ongoing display onto the victim
        cluster (replica ready after one display time, no tertiary
        involvement — a strong baseline); ``"tertiary"`` re-reads the
        object from tertiary store (replicas queue on the 40 mbps
        device — the weaker behaviour the paper's Table 4 magnitudes
        suggest).
    """

    def __init__(
        self,
        catalog: Catalog,
        clusters: ClusterArray,
        device: TertiaryDevice,
        tape_layout: TapeLayout,
        interval_length: float,
        replication_threshold: int = 1,
        replication_source: str = "stream",
        obs=None,
    ) -> None:
        if interval_length <= 0:
            raise ConfigurationError(
                f"interval_length must be > 0, got {interval_length}"
            )
        if replication_source not in ("stream", "tertiary"):
            raise ConfigurationError(
                f"replication_source must be 'stream' or 'tertiary', "
                f"got {replication_source!r}"
            )
        self.catalog = catalog
        self.clusters = clusters
        self.device = device
        self.tape_layout = tape_layout
        self.interval_length = interval_length
        self._pins: Dict[int, int] = {}
        self._frequency: Dict[int, int] = {}
        # The dicts themselves, not closures over the policy: a closure
        # would make the policy a reference cycle.
        self.replication = MRTReplication(
            clusters,
            frequencies=self._frequency,
            pins=self._pins,
            threshold=replication_threshold,
        )
        self.replication_source = replication_source
        self._queue: List[Request] = []
        # (object_id, is_replica): replica materialisations proceed
        # even though a copy already exists.
        self._mat_queue: Deque[Tuple[int, bool]] = deque()
        self._mat_pending: Set[int] = set()
        self._tertiary_busy_until = 0
        # Last interval at which the tertiary head waited for a victim
        # cluster: it retries only once a cluster frees or a copy,
        # pin or frequency changes, all of which are events.
        self._tertiary_blocked_at = -1
        # Event heap: (interval, seq, kind, cluster_index, payload)
        self._events: List[Tuple[int, int, str, int, object]] = []
        self._event_seq = 0
        # Heap entries voided by the fault coordinator (heaps cannot
        # remove; retirement skips these).  Fault coordinator itself:
        # None = every fault hook is skipped.
        self._cancelled_seqs: Set[int] = set()
        self.faults = None
        # Statistics.
        self.completed = 0
        self.startup_latency = Tally(name="vdr.startup")
        self.queue_length_sum = 0
        self.intervals_advanced = 0
        self.tertiary_busy_intervals = 0
        self.materializations = 0
        self.hits = 0
        self.misses = 0
        # Telemetry (None → zero cost; see repro.obs).  The per-disk
        # busy matrix expands each busy physical cluster to its M
        # member drives so VDR runs report the same per-disk
        # utilization view as staggered striping.
        self.obs = obs
        if obs is not None:
            registry = obs.registry
            self._m_disk_busy = registry.utilization_matrix(
                "disk.busy", clusters.num_disks
            )
            self._m_queue_depth = registry.series("admission.queue_depth")
            self._m_active = registry.series("displays.active")
            self._m_tertiary_depth = registry.series(
                "tertiary.queue_depth", device="tertiary"
            )
            self._c_completed = registry.counter("scheduler.completed")
            self._c_replicas = registry.counter("scheduler.replicas_created")
            self._c_materializations = registry.counter(
                "scheduler.materializations"
            )
            # All three mirror plain ints kept on the event paths;
            # published to the registry at snapshot time.
            obs.add_flusher(self._flush_counters)

    def _flush_counters(self) -> None:
        self._c_completed.value = float(self.completed)
        self._c_replicas.value = float(self.replication.replicas_created)
        self._c_materializations.value = float(self.materializations)

    def __repr__(self) -> str:
        return (
            f"<VirtualReplicationPolicy R={len(self.clusters)} "
            f"queue={len(self._queue)}>"
        )

    # ------------------------------------------------------------------
    # StoragePolicy interface
    # ------------------------------------------------------------------
    def preload(self, object_ids: List[int]) -> None:
        """Assign one object per cluster (in order) at no cost."""
        cluster_index = 0
        for object_id in object_ids:
            while (
                cluster_index < len(self.clusters.clusters)
                and not self.clusters.clusters[cluster_index].has_space
            ):
                cluster_index += 1
            if cluster_index >= len(self.clusters.clusters):
                raise ConfigurationError(
                    "preload exceeds total cluster capacity"
                )
            self.clusters.add_copy(object_id, cluster_index)

    def submit(self, request: Request, interval: int) -> None:
        """A request enters the system."""
        object_id = request.object_id
        self._frequency[object_id] = self._frequency.get(object_id, 0) + 1
        self._pins[object_id] = self._pins.get(object_id, 0) + 1
        if self.clusters.copy_count(object_id) > 0:
            self.hits += 1
        else:
            self.misses += 1
            self._queue_materialization(object_id)
        self._queue.append(request)

    def try_cancel(self, request: Request, interval: int) -> bool:
        """Withdraw ``request`` if it is still queued for a cluster.

        Open workloads block requests whose deadline expires.  The
        waiting entry is dropped and its pin released; the recorded
        access frequency is kept (the demand was real — MRT replica
        decisions should still see it).  A request whose display
        already started on a cluster is refused.  An in-flight
        materialisation its miss triggered keeps running: the title
        still lands for future arrivals.
        """
        for index, queued in enumerate(self._queue):
            if queued.request_id == request.request_id:
                del self._queue[index]
                self._unpin(request.object_id)
                return True
        return False

    def attach_faults(self, coordinator) -> None:
        """Install a fault coordinator (see :mod:`repro.faults`)."""
        self.faults = coordinator

    def advance(self, interval: int) -> List[Completion]:
        """One interval: retire activities, drive tertiary, admit."""
        self.intervals_advanced += 1
        if self.faults is not None:
            self.faults.begin_interval(interval, self)
        completions = self._retire_events(interval)
        self._drive_tertiary(interval)
        self._admission_pass(interval)
        if self.faults is not None:
            self.faults.settle(interval, self)
        if interval < self._tertiary_busy_until:
            self.tertiary_busy_intervals += 1
        self.queue_length_sum += len(self._queue)
        return completions

    def next_activity(self, interval: int) -> int:
        """The earliest of: the event heap's top, a cluster freeing
        (one interval after its display event retires), the fault
        coordinator's next change (every interval while it is
        degraded) and, while materialisations wait, the tertiary
        device freeing.

        A queued request is admitted only onto a free cluster holding
        its object, and clusters free and copies land only at those
        times, so the admission pass cannot succeed in between.
        """
        step = interval + 1
        wake = self._events[0][0] if self._events else NEVER
        if self.faults is not None:
            change = self.faults.next_change(interval)
            if change == step:
                return step
            wake = min(wake, change)
        for cluster in self.clusters.clusters:
            busy_until = cluster.busy_until
            if interval < busy_until < wake:
                wake = busy_until
        if self._mat_queue:
            if self._tertiary_busy_until > interval:
                wake = min(wake, self._tertiary_busy_until)
            elif self._tertiary_blocked_at != interval:
                # The head was dropped this interval or queued after
                # the device was driven: try the next one.
                return step
        return wake

    def skip_span(self, start: int, stop: int) -> None:
        """Book a quiet span (see :meth:`next_activity`)."""
        n = stop - start
        self.intervals_advanced += n
        self.queue_length_sum += len(self._queue) * n
        busy = min(stop, self._tertiary_busy_until) - start
        if busy > 0:
            self.tertiary_busy_intervals += busy
        if self.faults is not None:
            self.faults.skip(n)

    def verify_skip(self, sanitizer, start: int, stop: int) -> None:
        """Nothing scheduled and nothing admissible in ``start ..
        stop - 1``, recomputed from the clusters and heaps."""
        span = f"skipped intervals {start}..{stop - 1}"
        if self.faults is not None:
            self.faults.verify_skip(sanitizer, start, stop)
        if self._events:
            sanitizer.expect(
                self._events[0][0] >= stop,
                "skip",
                f"{self._events[0][2]} event due at {self._events[0][0]} "
                f"in {span}",
            )
        for cluster in self.clusters.clusters:
            sanitizer.expect(
                not start <= cluster.busy_until < stop,
                "skip",
                f"cluster {cluster.index} frees at {cluster.busy_until} "
                f"in {span}",
            )
        if self._mat_queue and self._tertiary_busy_until < stop:
            object_id, is_replica = self._mat_queue[0]
            at = max(start, self._tertiary_busy_until)
            sanitizer.expect(
                (is_replica or not self.clusters.copy_count(object_id))
                and self.replication.choose_victim(
                    at, protect_object=object_id
                ) is None,
                "skip",
                f"materialisation of object {object_id} could start at "
                f"{at} in {span}",
            )
        free_holder = self.clusters.free_holder
        for object_id in {request.object_id for request in self._queue}:
            sanitizer.expect(
                self.clusters.copy_count(object_id) > 0
                or object_id in self._mat_pending,
                "skip",
                f"queued object {object_id} has no copy and no "
                f"materialisation in {span}",
            )
            for interval in range(start, stop):
                if free_holder(object_id, interval) is not None:
                    sanitizer.violation(
                        "skip",
                        f"object {object_id} has a free copy at "
                        f"{interval} in {span}",
                    )
                    break

    def observe_sample(self, interval: int) -> None:
        """Telemetry sample: busy clusters' drives, queue depth, active
        displays, the tertiary queue and the load counter (obs enabled
        only; see
        :meth:`~repro.simulation.policy.StoragePolicy.observe_sample`).

        Called at every ``sample_stride`` multiple only, so the
        cluster scan and depth samples amortise on long runs; counters
        stay exact via the snapshot-time flusher.
        """
        obs = self.obs
        t = float(interval)
        degree = self.clusters.degree
        active = 0
        busy_disks: List[int] = []
        for index, cluster in enumerate(self.clusters.clusters):
            if cluster.activity is not None:
                if cluster.activity == "display":
                    active += 1
                first = index * degree
                busy_disks.extend(range(first, first + degree))
        self._m_disk_busy.mark_many(busy_disks)
        self._m_disk_busy.tick(t)
        self._m_queue_depth.record(t, float(len(self._queue)))
        self._m_active.record(t, float(active))
        self._m_tertiary_depth.record(
            t,
            len(self._mat_queue)
            + (1 if interval < self._tertiary_busy_until else 0),
        )
        if obs.tracer is not None:
            obs.tracer.counter(
                "scheduler.load", t,
                queued=len(self._queue), active=active,
            )

    # ------------------------------------------------------------------
    # Runtime invariant checks (repro.sim.sanitize)
    # ------------------------------------------------------------------
    def verify_invariants(self, sanitizer, interval: int) -> None:
        """VDR invariant suite: copy directory, capacity, event times.

        The copy directory and the per-cluster resident sets are
        updated on different code paths (admission, eviction, fault
        eviction); a disagreement between them means a display could
        be admitted onto a cluster that no longer holds its object.
        """
        clusters = self.clusters.clusters
        for object_id, holders in self.clusters.copies.items():
            for index in holders:
                sanitizer.expect(
                    0 <= index < len(clusters)
                    and object_id in clusters[index].resident,
                    "copy_directory",
                    f"copy directory lists object {object_id} on "
                    f"cluster {index}, which does not hold it "
                    f"(interval {interval})",
                )
        for cluster in clusters:
            sanitizer.expect(
                len(cluster.resident) <= cluster.capacity_objects,
                "storage_bounds",
                f"cluster {cluster.index} holds {len(cluster.resident)} "
                f"objects over capacity {cluster.capacity_objects} "
                f"(interval {interval})",
            )
            for object_id in cluster.resident:
                sanitizer.expect(
                    cluster.index in self.clusters.copies.get(object_id, ()),
                    "copy_directory",
                    f"cluster {cluster.index} holds object {object_id} "
                    f"missing from the copy directory (interval "
                    f"{interval})",
                )
        # Event-time monotonicity: every live (non-cancelled) event
        # due at or before this interval must have been retired.
        for time, seq, kind, cluster_index, _payload in self._events:
            if time <= interval and seq not in self._cancelled_seqs:
                sanitizer.violation(
                    "event_time",
                    f"{kind} event on cluster {cluster_index} due at "
                    f"{time} still queued after interval {interval}",
                )

    def pending_count(self) -> int:
        """Queued requests plus active displays."""
        active = sum(
            1
            for _t, seq, kind, _c, _p in self._events
            if kind == "display" and seq not in self._cancelled_seqs
        )
        return len(self._queue) + active

    def utilization_sample(self) -> UtilizationSample:
        """Active displays and fraction of clusters busy right now."""
        active = 0
        busy = 0
        for cluster in self.clusters.clusters:
            if cluster.activity is not None:
                busy += 1
                if cluster.activity == "display":
                    active += 1
        return active, busy / len(self.clusters.clusters)

    def stats(self) -> Dict[str, float]:
        """Policy statistics for the result report."""
        total = self.hits + self.misses
        report = {
            "completed_displays": float(self.completed),
            "mean_startup_latency_intervals": self.startup_latency.mean,
            "max_startup_latency_intervals": (
                self.startup_latency.maximum if self.startup_latency.count else 0.0
            ),
            "hit_rate": self.hits / total if total else 0.0,
            "replicas_created": float(self.replication.replicas_created),
            "materializations": float(self.materializations),
            "mean_queue_length": (
                self.queue_length_sum / self.intervals_advanced
                if self.intervals_advanced
                else 0.0
            ),
            "tertiary_utilization": (
                self.tertiary_busy_intervals / self.intervals_advanced
                if self.intervals_advanced
                else 0.0
            ),
            "resident_objects": float(len(self.clusters.copies)),
        }
        if self.faults is not None:
            report.update(self.faults.stats())
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push_event(
        self, interval: int, kind: str, cluster_index: int, payload: object
    ) -> None:
        self._event_seq += 1
        heapq.heappush(
            self._events, (interval, self._event_seq, kind, cluster_index, payload)
        )

    def _retire_events(self, interval: int) -> List[Completion]:
        completions: List[Completion] = []
        while self._events and self._events[0][0] <= interval:
            _t, seq, kind, cluster_index, payload = heapq.heappop(self._events)
            if seq in self._cancelled_seqs:
                # Voided by a fault (the cluster was freed or lost at
                # cancellation time — don't touch its current state).
                self._cancelled_seqs.discard(seq)
                continue
            cluster = self.clusters.clusters[cluster_index]
            cluster.finish()
            if kind == "display":
                request, deliver_start = payload  # type: ignore[misc]
                self._unpin(request.object_id)
                self.completed += 1
                completions.append(
                    Completion(
                        request=request,
                        deliver_start=deliver_start,
                        finished_at=interval,
                    )
                )
            elif kind in ("clone", "materialize"):
                object_id = payload  # type: ignore[assignment]
                self.clusters.add_copy(object_id, cluster_index)
                if kind == "materialize":
                    self._mat_pending.discard(object_id)
        return completions

    def _unpin(self, object_id: int) -> None:
        pins = self._pins.get(object_id, 0)
        if pins <= 1:
            self._pins.pop(object_id, None)
        else:
            self._pins[object_id] = pins - 1

    def _queue_materialization(self, object_id: int, is_replica: bool = False) -> None:
        if object_id not in self._mat_pending:
            self._mat_pending.add(object_id)
            self._mat_queue.append((object_id, is_replica))

    def _drive_tertiary(self, interval: int) -> None:
        if interval < self._tertiary_busy_until or not self._mat_queue:
            return
        object_id, is_replica = self._mat_queue[0]
        if not is_replica and self.clusters.copy_count(object_id) > 0:
            # Someone replicated it meanwhile; drop the materialisation.
            self._mat_queue.popleft()
            self._mat_pending.discard(object_id)
            return
        victim = self.replication.choose_victim(interval, protect_object=object_id)
        if victim is None:
            self._tertiary_blocked_at = interval
            return  # retry next interval
        self._mat_queue.popleft()
        obj = self.catalog.get(object_id)
        self.clusters.evict_all(victim.index)
        service = self.tape_layout.service_time(obj, self.device)
        duration = max(1, math.ceil(service / self.interval_length - 1e-9))
        victim.occupy(interval, duration, "materialize", object_id)
        self._tertiary_busy_until = interval + duration
        if is_replica:
            self.replication.replicas_created += 1
        else:
            self.materializations += 1
        self._push_event(interval + duration, "materialize", victim.index, object_id)

    def _admission_pass(self, interval: int) -> None:
        """Walk the queue once, starting every display that has a free
        copy.

        ``blocked`` memoizes the objects with no free copy this pass:
        within a pass clusters only get busier (``occupy``) or lose
        copies (``evict_all`` in :meth:`_maybe_replicate`) — copies
        land and clusters free up only in :meth:`_retire_events` — so
        a ``None`` from ``free_holder`` stays ``None`` until the pass
        ends.  Every blocked request still takes the materialisation
        check, as in the unmemoized pass.  A pass that admits nothing
        neither counts the waiters per object nor rebuilds the queue.
        """
        queue = self._queue
        copies = self.clusters.copies
        free_holder = self.clusters.free_holder
        mat_pending = self._mat_pending
        blocked: Set[int] = set()
        admitted: List[int] = []
        waiting_after: Optional[Dict[int, int]] = None
        for position, request in enumerate(queue):
            object_id = request.object_id
            if object_id in blocked:
                cluster = None
            else:
                cluster = free_holder(object_id, interval)
                if cluster is None:
                    blocked.add(object_id)
            if cluster is None:
                # copy_count(object_id) == 0, inlined.
                if not copies.get(object_id) and object_id not in mat_pending:
                    self._queue_materialization(object_id)
                continue
            if waiting_after is None:
                # Nothing admitted yet, so these are the pass-start
                # counts.
                waiting_after = {}
                for queued in queue:
                    waiting_after[queued.object_id] = (
                        waiting_after.get(queued.object_id, 0) + 1
                    )
            obj = self.catalog.get(object_id)
            n = obj.num_subobjects
            cluster.occupy(interval, n, "display", object_id)
            self.startup_latency.record(interval - request.issued_at)
            self._push_event(
                interval + n - 1, "display", cluster.index, (request, interval)
            )
            admitted.append(position)
            waiting_after[object_id] -= 1
            self._maybe_replicate(object_id, waiting_after[object_id], interval, n)
        for position in reversed(admitted):
            del queue[position]

    def _maybe_replicate(
        self, object_id: int, still_waiting: int, interval: int, duration: int
    ) -> None:
        if still_waiting <= 0:
            return
        if not self.replication.should_replicate(object_id, still_waiting):
            return
        if self.replication_source == "tertiary":
            # The replica queues on the tertiary device like any other
            # materialisation; demand for hot objects serialises there.
            self._queue_materialization(object_id, is_replica=True)
            return
        victim = self.replication.choose_victim(interval, protect_object=object_id)
        if victim is None:
            return
        self.clusters.evict_all(victim.index)
        victim.occupy(interval, duration, "clone", object_id)
        self.replication.replicas_created += 1
        self._push_event(interval + duration, "clone", victim.index, object_id)
