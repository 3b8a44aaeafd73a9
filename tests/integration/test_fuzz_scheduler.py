"""Property-based fuzzing of the full staggered-striping scheduler.

Random small systems, random request streams, random disciplines —
assert the global invariants: every request completes, every virtual
disk comes home, no display hiccups, and the physical replay never
oversubscribes a drive.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager
from repro.core.scheduler import StaggeredStripingPolicy
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.media.catalog import Catalog
from repro.simulation.policy import Request
from tests.conftest import make_object
from tests.oracles.physical import replay_interval

systems = st.fixed_dictionaries(
    {
        "num_disks": st.integers(min_value=6, max_value=20),
        "stride": st.integers(min_value=1, max_value=4),
        "mode": st.sampled_from(list(AdmissionMode)),
        "discipline": st.sampled_from(["scan", "fcfs", "sjf", "largest_first"]),
        "degrees": st.lists(
            st.integers(min_value=1, max_value=4), min_size=2, max_size=5
        ),
        "num_subobjects": st.integers(min_value=2, max_value=10),
        "requests": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # object index
                st.integers(min_value=0, max_value=12),  # arrival interval
            ),
            min_size=1,
            max_size=12,
        ),
    }
)


@given(systems)
@settings(max_examples=80, deadline=None)
def test_random_workloads_conserve_everything(params):
    num_disks = params["num_disks"]
    degrees = [min(d, num_disks) for d in params["degrees"]]
    objects = [
        make_object(i, num_subobjects=params["num_subobjects"], degree=d)
        for i, d in enumerate(degrees)
    ]
    catalog = Catalog(objects)
    array = DiskArray(model=TABLE3_DISK, num_disks=num_disks)
    disk_manager = DiskManager(array=array, stride=params["stride"])
    object_manager = ObjectManager(catalog, capacity=catalog.total_size * 2)
    policy = StaggeredStripingPolicy(
        catalog=catalog,
        disk_manager=disk_manager,
        object_manager=object_manager,
        tertiary_manager=None,
        admission_mode=params["mode"],
        queue_discipline=params["discipline"],
    )
    policy.preload(catalog.object_ids)

    arrivals = sorted(
        (when, i, objects[obj_index % len(objects)].object_id)
        for i, (obj_index, when) in enumerate(params["requests"])
    )
    submitted = 0
    completions = []
    # CONTIGUOUS claims with gcd(k, D) > 1 can only align with start
    # drives in reachable residues; the horizon must cover the rotation
    # period times the queue depth.
    horizon = 40 + num_disks * (len(arrivals) + 2) * params["num_subobjects"]
    for interval in range(horizon):
        for when, request_id, object_id in arrivals:
            if when == interval:
                policy.submit(
                    Request(
                        request_id=request_id,
                        station_id=request_id,
                        object_id=object_id,
                        issued_at=interval,
                    ),
                    interval,
                )
                submitted += 1
        completions.extend(policy.advance(interval))
        replay_interval(policy.disk_manager, policy._active.values(), interval)
        if submitted == len(arrivals) and policy.pending_count() == 0:
            break

    # Conservation: every submitted request completed exactly once.
    assert submitted == len(arrivals)
    assert len(completions) == submitted
    assert len({c.request.request_id for c in completions}) == submitted
    # Every delivery window has the right length (no hiccups).
    for completion in completions:
        assert (
            completion.finished_at - completion.deliver_start + 1
            == params["num_subobjects"]
        )
        assert completion.startup_latency >= 0
    # All virtual disks are returned after trailing lane releases.
    for extra in range(1, 4):
        policy.advance(interval + extra)
    assert policy.disk_manager.pool.free_count == num_disks
