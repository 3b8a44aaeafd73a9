"""Property-based tests (hypothesis) on the core invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionMode, Admitter
from repro.core.display import Display
from repro.core.virtual_disks import SlotPool, first_arrival
from repro.media.layout import StripingLayout
from repro.media.objects import FragmentAddress
from tests.conftest import make_object
from tests.oracles.coalesce import run_coalescing_lane
from tests.oracles.delivery import run_fragmented_delivery

# ----------------------------------------------------------------------
# Layout invariants
# ----------------------------------------------------------------------

layout_params = st.tuples(
    st.integers(min_value=2, max_value=40),  # D
    st.integers(min_value=1, max_value=40),  # k (reduced mod D below)
    st.integers(min_value=1, max_value=30),  # n
    st.integers(min_value=1, max_value=8),  # M
    st.integers(min_value=0, max_value=39),  # start disk
)


@given(layout_params)
@settings(max_examples=150, deadline=None)
def test_stride_relation_and_consecutive_fragments(params):
    d, k_raw, n, m_raw, start = params
    k = (k_raw - 1) % d + 1
    m = min(m_raw, d)
    layout = StripingLayout(num_disks=d, stride=k)
    obj = make_object(num_subobjects=n, degree=m)
    layout.place(obj, start_disk=start)
    for i in range(n):
        first = layout.disk_of(FragmentAddress(0, i, 0))
        # Stride relation between consecutive subobjects.
        if i + 1 < n:
            assert layout.disk_of(FragmentAddress(0, i + 1, 0)) == (first + k) % d
        # Fragments of one subobject on M consecutive drives.
        for j in range(m):
            assert layout.disk_of(FragmentAddress(0, i, j)) == (first + j) % d


@given(layout_params)
@settings(max_examples=150, deadline=None)
def test_every_fragment_maps_to_exactly_one_disk(params):
    d, k_raw, n, m_raw, start = params
    k = (k_raw - 1) % d + 1
    m = min(m_raw, d)
    layout = StripingLayout(num_disks=d, stride=k)
    obj = make_object(num_subobjects=n, degree=m)
    layout.place(obj, start_disk=start)
    counts = layout.fragment_counts(obj.object_id)
    assert sum(counts) == n * m


@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_gcd_rule_balances_load(d, k_raw, m_multiplier):
    """§3.2.2's GCD rule: when the subobject width M is a multiple of
    gcd(D, k) and the subobject count covers whole residue tours, the
    per-drive fragment counts are exactly equal."""
    k = (k_raw - 1) % d + 1
    g = math.gcd(d, k)
    m = min(m_multiplier * g, d)
    if m % g:  # clamping to d may break the rule's precondition
        return
    classes = d // g
    layout = StripingLayout(num_disks=d, stride=k)
    obj = make_object(num_subobjects=2 * classes, degree=m)
    layout.place(obj, start_disk=0)
    counts = layout.fragment_counts(obj.object_id)
    assert max(counts) == min(counts)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_stride_one_never_skews(d, n_tours, m_raw):
    """k = 1 guarantees no data skew for full residue tours."""
    m = min(m_raw, d)
    layout = StripingLayout(num_disks=d, stride=1)
    obj = make_object(num_subobjects=n_tours * d, degree=m)
    layout.place(obj, start_disk=0)
    counts = layout.fragment_counts(obj.object_id)
    assert max(counts) == min(counts)


# ----------------------------------------------------------------------
# Virtual-disk arithmetic
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=199),
    st.integers(min_value=0, max_value=199),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=200, deadline=None)
def test_first_arrival_is_correct_and_minimal(d, k_raw, slot_raw, target_raw, t0):
    k = (k_raw - 1) % d + 1
    slot, target = slot_raw % d, target_raw % d
    arrival = first_arrival(slot, target, k, d, t0)
    if arrival is None:
        # No solution: verify across one full period.
        period = d // math.gcd(k, d)
        assert all((slot + k * t) % d != target for t in range(period))
    else:
        assert arrival >= t0
        assert (slot + k * arrival) % d == target
        # Minimality.
        assert all(
            (slot + k * t) % d != target for t in range(t0, arrival)
        )


@given(st.integers(min_value=1, max_value=30), st.data())
@settings(max_examples=100, deadline=None)
def test_slot_pool_conservation(d, data):
    """Claims and releases conserve half-slots exactly."""
    pool = SlotPool(num_disks=d, stride=1)
    live = {}
    for step in range(20):
        slot = data.draw(st.integers(min_value=0, max_value=d - 1))
        if (slot in live) or not pool.is_free(slot, 1):
            if slot in live:
                pool.release(slot, live.pop(slot))
        else:
            halves = data.draw(st.sampled_from([1, 2]))
            if pool.is_free(slot, halves):
                owner = f"o{step}"
                pool.claim(slot, owner, halves=halves)
                live[slot] = owner
    total_claimed = sum(pool.claimed_halves(z) for z in range(d))
    expected = sum(
        pool.owners_of(z).get(owner, 0) for z, owner in live.items()
    )
    assert total_claimed == expected


# ----------------------------------------------------------------------
# Delivery equivalence: Algorithm 1 trace == closed-form Display
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=4, max_value=16),  # D
    st.integers(min_value=1, max_value=3),  # M
    st.integers(min_value=1, max_value=8),  # n
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_algorithm1_trace_matches_closed_form(d, m, n, data):
    m = min(m, d)
    pool = SlotPool(num_disks=d, stride=1)
    start = data.draw(st.integers(min_value=0, max_value=d - 1))
    # Pick M distinct slots; each reaches its target (stride 1).
    slots = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=d - 1),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    obj = make_object(num_subobjects=n, degree=m)
    trace, offsets = run_fragmented_delivery(obj, start, slots, pool)
    # Closed form.
    display = Display(display_id=1, obj=obj, start_disk=start, requested_at=0)
    for lane, slot in zip(display.lanes, slots):
        lane.slot = slot
        lane.ready = pool.arrival(slot, (start + lane.fragment) % d, 0)
    assert trace.delivered_subobjects() == list(range(n))
    deliveries = trace.outputs_by_interval()
    assert min(deliveries) == display.deliver_start
    assert max(deliveries) == display.finish_interval
    for lane in display.lanes:
        assert offsets[lane.fragment] == display.lane_write_offset(lane.fragment)


# ----------------------------------------------------------------------
# Coalescing never causes a hiccup
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=4, max_value=20),  # n
    st.integers(min_value=0, max_value=5),  # old offset
    st.integers(min_value=0, max_value=5),  # new offset (clamped)
    st.integers(min_value=0, max_value=10),  # grant delay after start
)
@settings(max_examples=100, deadline=None)
def test_coalescing_delivery_is_continuous(n, old_offset, new_raw, grant_delay):
    new_offset = min(new_raw, old_offset)
    deliver_start = old_offset  # lane ready at 0
    obj = make_object(num_subobjects=n, degree=2)
    coalesce_at = deliver_start + grant_delay
    trace = run_coalescing_lane(
        obj,
        lane=0,
        deliver_start=deliver_start,
        ready=0,
        coalesce_at=coalesce_at,
        new_offset=new_offset,
        horizon=deliver_start + n + old_offset + grant_delay + 16,
    )
    outputs = [(e.interval, e.subobject) for e in trace.outputs()]
    assert outputs == [(deliver_start + s, s) for s in range(n)]
    reads = [e.subobject for e in trace.reads()]
    assert reads == list(range(n))  # every fragment read exactly once


# ----------------------------------------------------------------------
# Admission: claimed displays never share slots
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_admitted_displays_hold_disjoint_slots(d, k, data):
    k = min(k, d)
    pool = SlotPool(num_disks=d, stride=k)
    admitter = Admitter(pool, AdmissionMode.FRAGMENTED)
    displays = []
    for display_id in range(4):
        m = data.draw(st.integers(min_value=1, max_value=min(4, d)))
        start = data.draw(st.integers(min_value=0, max_value=d - 1))
        obj = make_object(object_id=display_id, num_subobjects=5, degree=m)
        display = Display(
            display_id=display_id, obj=obj, start_disk=start, requested_at=0
        )
        displays.append(display)
    for interval in range(3 * d):
        for display in displays:
            if not display.fully_laned:
                admitter.try_claim(display, interval)
    owned = {}
    for display in displays:
        for lane in display.lanes:
            if lane.slot is not None:
                key = lane.slot
                assert key not in owned or owned[key] == display.display_id
                owned.setdefault(key, display.display_id)
    # Pool agrees with lane bookkeeping.
    for slot, display_id in owned.items():
        assert display_id in pool.owners_of(slot)
