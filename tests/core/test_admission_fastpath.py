"""The admission fast paths must be invisible: the bucket fast-rejects
and the inlined window probes of :meth:`Admitter.try_claim` must claim
exactly what a plain window probe over the pool's ownership map would,
on every operation sequence."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionMode, Admitter
from repro.core.display import Display
from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from tests.conftest import make_object

scenarios = st.fixed_dictionaries(
    {
        "num_disks": st.integers(min_value=4, max_value=16),
        "stride": st.integers(min_value=1, max_value=4),
        "mode": st.sampled_from(list(AdmissionMode)),
        "degrees": st.lists(
            st.integers(min_value=1, max_value=4), min_size=1, max_size=6
        ),
        # (display index or slot, interval delta, action) events.
        # "block"/"unblock" move background occupancy, so denied
        # windows reopen while their displays still wait.
        "events": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.sampled_from([0, 0, 1, 3]),
                st.sampled_from(["probe", "probe", "abort", "block", "unblock"]),
            ),
            min_size=1,
            max_size=30,
        ),
    }
)


def _build(params, mode):
    pool = SlotPool(num_disks=params["num_disks"], stride=params["stride"])
    admitter = Admitter(pool, mode=mode)
    displays = [
        Display(
            display_id=i,
            obj=make_object(i, degree=min(d, params["num_disks"])),
            start_disk=(3 * i) % params["num_disks"],
            requested_at=0,
        )
        for i, d in enumerate(params["degrees"])
    ]
    return pool, admitter, displays


def _ownership(pool):
    return [pool.owners_of(z) for z in range(pool.num_disks)]


def _oracle_claims(pool, mode, display, interval):
    """The ``(slot, halves)`` claims a probe must make, found window by
    window against a recount of the ownership map:
    ``(claims, complete)``."""
    if display.fully_laned:
        return [], True
    free = [
        HALVES_PER_SLOT - sum(holders.values()) for holders in _ownership(pool)
    ]
    d = pool.num_disks
    window = [
        (lane, pool.slot_at((display.start_disk + lane.fragment) % d, interval), h)
        for lane, h in zip(display.lanes, display.lane_halves())
    ]
    if mode is AdmissionMode.CONTIGUOUS:
        if all(free[slot] >= h for _lane, slot, h in window):
            return [(slot, h) for _lane, slot, h in window], True
        return [], False
    claimed = []
    remaining = 0
    for lane, slot, h in window:
        if lane.slot is not None:
            continue
        if free[slot] >= h:
            free[slot] -= h
            claimed.append((slot, h))
        else:
            remaining += 1
    return claimed, not remaining


def _replay(params, mode):
    """Drive ``params['events']`` through one admitter, checking every
    claim and abort against the ownership oracle."""
    pool, admitter, displays = _build(params, mode)
    lanes_claimed = completed = 0
    interval = 0
    for which, delta, action in params["events"]:
        interval += delta
        if action == "block":
            slot = which % pool.num_disks
            if pool.free_halves(slot):
                pool.claim(slot, "background", halves=1)
            continue
        if action == "unblock":
            pool.release_all("background")
            continue
        i = which % len(displays)
        display = displays[i]
        if action == "abort":
            held = sum(
                1 for holders in _ownership(pool) if display.display_id in holders
            )
            assert admitter.abort(display) == held
            assert all(
                display.display_id not in holders for holders in _ownership(pool)
            )
            # An aborted display is replaced by a fresh request in the
            # real scheduler; model that with a new display object.
            displays[i] = Display(
                display_id=100 + interval * 10 + i,
                obj=display.obj,
                start_disk=display.start_disk,
                requested_at=interval,
            )
            continue
        expected = _ownership(pool)
        claims, complete = _oracle_claims(pool, mode, display, interval)
        for slot, h in claims:
            holders = expected[slot]
            holders[display.display_id] = holders.get(display.display_id, 0) + h
        plan = admitter.try_claim(display, interval)
        assert plan.claimed_now == [slot for slot, _h in claims]
        assert plan.complete == complete
        assert _ownership(pool) == expected
        lanes_claimed += len(claims)
        completed += complete
    assert admitter._n_lanes == lanes_claimed
    assert admitter._n_complete == completed


@given(scenarios)
@settings(max_examples=150, deadline=None)
def test_try_claim_matches_ownership_oracle(params):
    _replay(params, params["mode"])


@given(scenarios)
@example(
    # Denied behind a background claim, then re-probed at the same
    # rotation offset once the claim is gone.
    {
        "num_disks": 4,
        "stride": 1,
        "mode": AdmissionMode.CONTIGUOUS,
        "degrees": [2],
        "events": [(0, 0, "block"), (0, 0, "probe"), (0, 0, "unblock"),
                   (0, 0, "probe")],
    }
)
@settings(max_examples=60, deadline=None)
def test_denial_replay_never_outlives_a_pool_change(params):
    """A denied CONTIGUOUS display re-probed after the pool moved must
    get the verdict of a fresh window probe of the current ownership:
    a denial never outlives the occupancy that caused it."""
    _replay(params, AdmissionMode.CONTIGUOUS)
