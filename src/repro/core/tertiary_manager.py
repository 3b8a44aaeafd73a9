"""The Tertiary Manager (§4.1).

"The Tertiary Manager maintains a queue of requests waiting to be
serviced by the tertiary storage device."

The manager serialises materialisations on the single tertiary device,
de-duplicates concurrent requests for the same object, and coordinates
the disk-side writer (:class:`~repro.core.materialize.MaterializationJob`)
with the tape-side service time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.materialize import MaterializationJob, job_duration_intervals
from repro.core.virtual_disks import SlotPool
from repro.errors import ConfigurationError
from repro.hardware.tertiary import TertiaryDevice
from repro.media.objects import MediaObject
from repro.media.tape_layout import TapeLayout, materialization_write_degree
from repro.obs.metrics import Tally
from repro.simulation.policy import NEVER


class TertiaryManager:
    """FIFO materialisation queue over one tertiary device.

    Parameters
    ----------
    device:
        The tertiary store (provides bandwidth + reposition model).
    tape_layout:
        How objects are recorded on the medium (fragment-ordered per
        the paper's recommendation, or sequential for the §3.2.4
        mismatch experiment).
    interval_length:
        ``S(C_i)`` in seconds.
    disk_bandwidth:
        Effective per-drive bandwidth, used to derive the write degree.
    """

    def __init__(
        self,
        device: TertiaryDevice,
        tape_layout: TapeLayout,
        interval_length: float,
        disk_bandwidth: float,
        obs=None,
    ) -> None:
        if interval_length <= 0:
            raise ConfigurationError(
                f"interval_length must be > 0, got {interval_length}"
            )
        self.device = device
        self.tape_layout = tape_layout
        self.interval_length = interval_length
        self.write_degree = materialization_write_degree(
            device.bandwidth, disk_bandwidth
        )
        self._queue: Deque[MediaObject] = deque()
        self._queued_ids: set = set()
        self._current: Optional[MaterializationJob] = None
        self._job_seq = 0
        self.completed = 0
        self.busy_intervals = 0
        self.queueing_delay_intervals = Tally(name="tertiary.queueing")
        self._enqueued_at: Dict[int, int] = {}
        # Telemetry (None → zero cost; see repro.obs).
        self.obs = obs
        if obs is not None:
            registry = obs.registry
            self._m_queue_depth = registry.series(
                "tertiary.queue_depth", device="tertiary"
            )
            self._m_busy = registry.counter(
                "tertiary.busy_intervals", device="tertiary"
            )
            self._m_completed = registry.counter(
                "tertiary.completed", device="tertiary"
            )
            self._m_delay = registry.tally(
                "tertiary.queueing_delay_intervals", device="tertiary"
            )
            # busy/completed mirror plain ints already kept on the
            # per-interval path; publish them at snapshot time.
            obs.add_flusher(self._flush_counters)

    def _flush_counters(self) -> None:
        self._m_busy.value = float(self.busy_intervals)
        self._m_completed.value = float(self.completed)

    def __repr__(self) -> str:
        current = self._current.obj.object_id if self._current else None
        return (
            f"<TertiaryManager current={current} queued={len(self._queue)} "
            f"done={self.completed}>"
        )

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Materialisations waiting (excluding the one in service)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a materialisation is in progress."""
        return self._current is not None

    def is_pending(self, object_id: int) -> bool:
        """True when the object is queued or in service."""
        if self._current is not None and self._current.obj.object_id == object_id:
            return True
        return object_id in self._queued_ids

    def request(self, obj: MediaObject, interval: int) -> bool:
        """Queue a materialisation; returns False if already pending."""
        if self.is_pending(obj.object_id):
            return False
        self._queue.append(obj)
        self._queued_ids.add(obj.object_id)
        self._enqueued_at[obj.object_id] = interval
        return True

    # ------------------------------------------------------------------
    # Per-interval drive
    # ------------------------------------------------------------------
    def advance(self, interval: int, pool: SlotPool, start_disk_of) -> List[int]:
        """Advance one interval.

        ``start_disk_of`` is a callable mapping object id → placed
        start drive (the caller places the object *before*
        materialisation begins so the writer knows its targets).
        Returns object ids whose materialisation completed this
        interval.
        """
        obs = self.obs
        finished: List[int] = []
        job = self._current
        if job is not None:
            if not job.fully_laned:
                job.try_claim(pool, interval)
            if job.finish_interval is not None and interval >= job.finish_interval:
                job.release(pool)
                finished.append(job.obj.object_id)
                self.completed += 1
                if obs is not None and obs.tracer is not None:
                    obs.tracer.instant(
                        "tertiary", "materialize_done", float(interval),
                        object=job.obj.object_id, track="tertiary",
                    )
                self._current = None
                job = None
            else:
                self.busy_intervals += 1
        if job is None and self._queue:
            obj = self._queue.popleft()
            self._queued_ids.discard(obj.object_id)
            delay = interval - self._enqueued_at.pop(obj.object_id, interval)
            self.queueing_delay_intervals.record(delay)
            self._current = self._start_job(obj, start_disk_of(obj.object_id), interval)
            self._current.try_claim(pool, interval)
            if obs is not None:
                self._m_delay.record(delay)
                if obs.tracer is not None:
                    obs.tracer.instant(
                        "tertiary", "materialize_begin", float(interval),
                        object=obj.object_id, queued_for=delay,
                        track="tertiary",
                    )
        return finished

    def next_activity(self, interval: int) -> int:
        """First interval after ``interval`` at which :meth:`advance`
        can change state: the running writer's finish, the next
        interval while a job waits to start or a writer still claims
        lanes, ``NEVER`` while the device idles with nothing queued."""
        job = self._current
        if job is None:
            return interval + 1 if self._queue else NEVER
        if job.finish_interval is None:
            return interval + 1  # partially laned: claims as slots pass
        return job.finish_interval

    def skip(self, intervals: int) -> None:
        """Book ``intervals`` quiet intervals (see :meth:`next_activity`):
        a running writer stays busy through them."""
        if self._current is not None:
            self.busy_intervals += intervals

    def observe_sample(self, interval: int) -> None:
        """Record the queue-depth sample (called by the scheduler on
        its sampled intervals; obs enabled only)."""
        self._m_queue_depth.record(
            float(interval),
            len(self._queue) + (1 if self._current is not None else 0),
        )

    def _start_job(
        self, obj: MediaObject, start_disk: int, interval: int
    ) -> MaterializationJob:
        self._job_seq += 1
        service = self.tape_layout.service_time(obj, self.device)
        duration = job_duration_intervals(
            obj,
            self.write_degree,
            self.tape_layout,
            service,
            self.interval_length,
        )
        return MaterializationJob(
            job_id=("materialize", self._job_seq),
            obj=obj,
            start_disk=start_disk,
            write_degree=self.write_degree,
            duration_intervals=duration,
        )

    def utilization(self, elapsed_intervals: int) -> float:
        """Fraction of elapsed intervals the device was in service."""
        if elapsed_intervals <= 0:
            return 0.0
        return min(1.0, self.busy_intervals / elapsed_intervals)
