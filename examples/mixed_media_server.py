#!/usr/bin/env python3
"""A mixed-media video server on staggered striping (§3.2, Figure 5).

Builds the paper's Figure 5 database — Y at 80 mbps (M=4), X at
60 mbps (M=3), Z at 40 mbps (M=2) — on 12 drives with stride 1, places
each object at the paper's start drive, then serves concurrent
displays of all three media types through the scheduler, demonstrating
that one system handles heterogeneous bandwidths with a single
fragment size and interval length.

Run:  python examples/mixed_media_server.py
"""

from __future__ import annotations

from repro.core.admission import AdmissionMode
from repro.core.disk_manager import DiskManager
from repro.core.object_manager import ObjectManager
from repro.core.scheduler import StaggeredStripingPolicy
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.media.catalog import Catalog
from repro.media.objects import FragmentAddress, MediaObject, MediaType
from repro.simulation.policy import Request


def main() -> None:
    media = [
        MediaType("Y-hdtv", 80.0),
        MediaType("X-video", 60.0),
        MediaType("Z-lowres", 40.0),
    ]
    catalog = Catalog([
        MediaObject(
            object_id=object_id,
            media_type=media_type,
            num_subobjects=24,
            degree=media_type.degree_of_declustering(20.0),
            fragment_size=TABLE3_DISK.cylinder_capacity,
        )
        for object_id, media_type in enumerate(media)
    ])
    array = DiskArray(model=TABLE3_DISK, num_disks=12)
    disk_manager = DiskManager(array=array, stride=1, placement_alignment=1)
    object_manager = ObjectManager(catalog, capacity=catalog.total_size)
    policy = StaggeredStripingPolicy(
        catalog=catalog,
        disk_manager=disk_manager,
        object_manager=object_manager,
        tertiary_manager=None,
        admission_mode=AdmissionMode.FRAGMENTED,
    )
    # Place the three objects at the paper's drives: Y@0, X@4, Z@7.
    print("Figure 5 placement (D=12, k=1), subobject 0:")
    for object_id, start in ((0, 0), (1, 4), (2, 7)):
        obj = catalog.get(object_id)
        disk_manager.place_object(obj, start_disk=start)
        object_manager.add_resident(object_id)
        drives = [
            disk_manager.layout.disk_of(FragmentAddress(object_id, 0, j))
            for j in range(obj.degree)
        ]
        print(f"  {obj.media_type.name:9s} M={obj.degree}: drives {drives}")

    names = {obj.object_id: obj.media_type.name for obj in catalog}
    print("\nServing one display of each media type concurrently:")
    for object_id in (0, 1, 2):
        policy.submit(
            Request(request_id=object_id + 1, station_id=object_id,
                    object_id=object_id, issued_at=0),
            interval=0,
        )
    completions = []
    for interval in range(64):
        for done in policy.advance(interval):
            completions.append(done)
            obj = catalog.get(done.request.object_id)
            print(
                f"  {names[obj.object_id]:9s} M={obj.degree}: delivered "
                f"{obj.num_subobjects} subobjects in intervals "
                f"[{done.deliver_start}, {done.finished_at}] — "
                f"startup latency {done.startup_latency} interval(s)"
            )
        if len(completions) == 3:
            break
    used = 4 + 3 + 2
    print(
        f"\nAll three ran simultaneously using {used} of 12 drives per "
        f"interval — no bandwidth wasted on over-wide clusters "
        f"(a naive 4-drive-cluster design would burn "
        f"{(3 * 4 - used) * 20} mbps)."
    )


if __name__ == "__main__":
    main()
