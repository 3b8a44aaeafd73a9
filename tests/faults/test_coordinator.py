"""Scenario tests for degraded-mode service and online rebuild.

Each test runs a full scaled simulation with a scripted single-drive
failure (``fail_at=((3, 100),)``, repaired after ~40 intervals) and
asserts over the availability metrics the coordinators thread into
``policy_stats``.  Loads are deliberately partial (2 of the array's
stations): rebuild and reconstruction compete for leftover interval
bandwidth, and a saturated array leaves none.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.virtual_disks import HALVES_PER_SLOT, SlotPool
from repro.experiments.faults import faults_rows, run_faults_grid
from repro.faults.coordinator import FaultCoordinator
from repro.faults.injector import FaultInjector
from repro.faults.redundancy import mirror_partner, survivors_of
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.obs import Observability
from repro.sim.rng import RandomStream
from repro.sim.sanitize import Sanitizer
from repro.simulation.config import ScaledConfig
from repro.simulation.policy import NEVER
from repro.simulation.runner import build_engine, run_experiment


SCENARIO = dict(
    access_mean=0.2,
    num_stations=2,
    fail_at=((3, 100),),
    mttr=40.0,
    rebuild_rate=2,
)


def scenario_config(**overrides):
    return ScaledConfig(scale=50).with_(**{**SCENARIO, **overrides})


def fault_stats(config):
    result = run_experiment(config)
    assert result.completed > 0  # the system keeps serving throughout
    return result, result.policy_stats


class TestStripingDegradedMode:
    def test_scripted_failure_repairs_and_rebuilds_cleanly(self):
        _, stats = fault_stats(scenario_config(technique="staggered"))
        assert stats["fault_failures"] == 1.0
        assert stats["fault_repairs"] == 1.0
        assert stats["fault_rebuilds_completed"] == 1.0
        assert stats["fault_rebuild_intervals"] > 0
        assert stats["fault_mean_rebuild_intervals"] > 40.0  # repair + rebuild
        assert stats["fault_degraded_intervals"] > 0
        assert stats["fault_effective_bandwidth"] < 1.0

    def test_no_redundancy_reads_become_hiccups(self):
        _, stats = fault_stats(scenario_config(technique="staggered"))
        assert stats["fault_reconstructions"] == 0.0
        assert stats["fault_hiccups"] > 0
        assert stats["fault_aborts"] == 0.0
        assert stats["fault_hiccups_per_failure"] == stats["fault_hiccups"]

    def test_mirror_reconstruction_absorbs_some_reads(self):
        plain = fault_stats(scenario_config(technique="staggered"))[1]
        mirrored = fault_stats(
            scenario_config(technique="staggered", redundancy="mirror")
        )[1]
        assert mirrored["fault_reconstructions"] > 0
        # Every reconstructed read is a hiccup the viewer never saw.
        assert mirrored["fault_hiccups"] == (
            plain["fault_hiccups"] - mirrored["fault_reconstructions"]
        )

    def test_abort_policy_requeues_and_keeps_serving(self):
        result, stats = fault_stats(
            scenario_config(technique="staggered", on_fault="abort")
        )
        assert stats["fault_aborts"] > 0
        assert stats["fault_hiccups"] == 0.0
        # The aborted displays' requests re-entered the queue: the
        # closed-loop stations never stall and the run still completes
        # displays afterwards.
        assert result.throughput_per_hour > 0

    def test_parity_with_saturated_survivors_falls_back_to_hiccups(self):
        """Simple striping reads a whole stripe (drives 0-4 here) at
        full bandwidth.  Drive 3's parity group (0-3) lies inside that
        stripe, so its survivors are held by the very display whose
        read failed — redundancy only pays when the survivors have
        spare half-slots."""
        _, stats = fault_stats(
            scenario_config(technique="simple", redundancy="parity")
        )
        assert stats["fault_failures"] == 1.0
        assert stats["fault_reconstructions"] == 0.0
        assert stats["fault_hiccups"] > 0

    def test_identical_configs_identical_fault_stats(self):
        config = scenario_config(technique="staggered", redundancy="mirror")
        first = run_experiment(config).policy_stats
        second = run_experiment(config).policy_stats
        assert first == second


class TestCompetingReads:
    @staticmethod
    def _two_readers_on_failed_drive_0(on_fault):
        """Two half-bandwidth reads share the slot over failed drive 0,
        and its mirror (drive 1, slot 1) has one spare half."""
        pool = SlotPool(num_disks=4, stride=1)
        aborted = []
        policy = SimpleNamespace(
            disk_manager=SimpleNamespace(
                array=DiskArray(model=TABLE3_DISK, num_disks=4), pool=pool,
            ),
            _active={9: SimpleNamespace(display_id=9),
                     10: SimpleNamespace(display_id=10)},
            abort_display=aborted.append,
        )
        injector = FaultInjector(
            num_disks=4, stream=RandomStream(seed=1), fail_at=((0, 0),),
        )
        faults = FaultCoordinator(
            policy, injector, redundancy="mirror", on_fault=on_fault,
        )
        faults.begin_interval(0, policy)
        pool.claim(0, 9, halves=1)
        pool.claim(0, 10, halves=1)
        pool.claim(1, "other", halves=1)
        faults.settle(0, policy)
        return pool, faults, aborted

    def test_owners_of_a_failed_slot_compete_in_repr_order(self):
        """The owner whose ``repr`` sorts first (``"10"`` before
        ``"9"``) reconstructs, the other hiccups, whatever order they
        claimed in."""
        pool, faults, _ = self._two_readers_on_failed_drive_0("hiccup")
        assert (faults.reconstructions, faults.hiccups) == (1, 1)
        # The reconstruction is an owner-less one-interval hold.
        assert pool.owners_of(1) == {"other": 1}
        assert pool.free_halves(1) == 0
        assert pool.claimed_halves(1) - sum(pool.owners_of(1).values()) == 1
        faults.begin_interval(1, None)  # the striping begin pass reads no policy
        assert pool.owners_of(1) == {"other": 1}
        assert pool.free_halves(1) == 1

    def test_the_repr_first_owner_is_the_one_reconstructed(self):
        """Under ``on_fault="abort"`` the loser is named: display 9."""
        _, faults, aborted = self._two_readers_on_failed_drive_0("abort")
        assert (faults.reconstructions, faults.aborts) == (1, 1)
        assert [display.display_id for display in aborted] == [9]


class TestMirrorReadAround:
    """Conservation on the scripted mirror scenario: every display read
    that lands on the failed drive ends as exactly one reconstruction,
    hiccup or abort, and a reconstruction is the read's half-slots held
    on the mirror partner's slot that interval — the surviving partner
    serves its own reads plus its failed partner's (Thomasian's RAID1
    read-around)."""

    @pytest.mark.parametrize("on_fault", ["hiccup", "abort"])
    def test_every_failed_read_resolves_exactly_once(
        self, monkeypatch, on_fault
    ):
        totals = dict(reads=0, reconstructions=0, other=0)
        settle = FaultCoordinator.settle

        def audited_settle(self, interval, policy):
            pool = self.pool
            active = policy._active
            reads = [
                (disk, halves)
                for disk in self.array.failed_disks()
                for owner, halves in pool.owners_of(
                    pool.slot_at(disk, interval)
                ).items()
                if isinstance(owner, int) and owner in active
            ]
            before = (self.reconstructions, self.hiccups, self.aborts)
            held_before = len(pool._held)
            settle(self, interval, policy)
            reconstructed, hiccuped, aborted = (
                after - was for after, was in zip(
                    (self.reconstructions, self.hiccups, self.aborts), before
                )
            )
            assert reconstructed + hiccuped + aborted == len(reads)
            read_arounds = [
                (pool.slot_at(mirror_partner(disk), interval), halves)
                for disk, halves in reads
            ]
            new_holds = pool._held[held_before:]
            assert len(new_holds) == reconstructed
            for hold in new_holds:
                read_arounds.remove(hold)  # ValueError: not a read-around
            for disk, _ in reads:
                slot = pool.slot_at(mirror_partner(disk), interval)
                own = sum(pool.owners_of(slot).values())
                held = sum(h for z, h in pool._held if z == slot)
                assert pool.claimed_halves(slot) == own + held
                assert own + held <= HALVES_PER_SLOT
            totals["reads"] += len(reads)
            totals["reconstructions"] += reconstructed
            totals["other"] += hiccuped + aborted

        monkeypatch.setattr(FaultCoordinator, "settle", audited_settle)
        _, stats = fault_stats(scenario_config(
            technique="staggered", redundancy="mirror", on_fault=on_fault,
        ))
        assert totals["reconstructions"] == stats["fault_reconstructions"]
        assert totals["other"] == (
            stats["fault_hiccups"] + stats["fault_aborts"]
        )
        assert totals["reads"] == (
            totals["reconstructions"] + totals["other"]
        ) > 0
        if on_fault == "hiccup":
            assert totals["reconstructions"] > 0


class TestQuietSpans:
    """A coordinator with no drive down, no rebuild owed and nothing
    held is quiet: it names the injector's next event as its next
    change, and the engine skips to it."""

    def test_quiet_until_the_next_event_then_degraded(self):
        array = DiskArray(model=TABLE3_DISK, num_disks=4)
        array.store_all([0, 0, 3.0, 0])  # drive 2's loss is 6 half-slot writes
        pool = SlotPool(num_disks=4, stride=1)
        policy = SimpleNamespace(
            disk_manager=SimpleNamespace(array=array, pool=pool), _active={},
        )
        injector = FaultInjector(
            num_disks=4, stream=RandomStream(seed=1),
            fail_at=((2, 10),), mttr=5.0,
        )
        faults = FaultCoordinator(
            policy, injector, redundancy="mirror", rebuild_rate=2,
        )
        sanitizer = Sanitizer(mode="check")
        assert faults.next_change(0) == 10
        faults.verify_skip(sanitizer, 1, 10)
        assert sanitizer.total == 0
        faults.verify_skip(sanitizer, 1, 11)  # the failure falls inside
        assert sanitizer.counts == {"skip": 1}
        faults.skip(10)
        assert (faults._intervals, faults._healthy_disk_sum) == (10, 40)
        t = 10
        faults.begin_interval(t, policy)
        assert faults.degraded_intervals == 1
        while not faults.rebuilds_completed:
            # Down, then rebuilding: every interval is stepped.
            assert faults.next_change(t) == t + 1
            before = sanitizer.total
            faults.verify_skip(sanitizer, t + 1, t + 2)
            assert sanitizer.total > before
            t += 1
            faults.begin_interval(t, policy)
        assert faults.rebuild_intervals == 3
        # The last rebuild write holds its slot through this interval.
        assert pool._held and faults.next_change(t) == t + 1
        faults.begin_interval(t + 1, policy)
        assert not pool._held
        assert faults.next_change(t + 1) == NEVER
        before = sanitizer.total
        faults.verify_skip(sanitizer, t + 2, t + 100)
        assert sanitizer.total == before

    @pytest.mark.parametrize("technique, most", [
        ("staggered", 250),  # degraded in 147 of 720 intervals
        ("vdr", 719),        # degraded in 620
    ])
    def test_scripted_scenario_skips_its_healthy_spans(self, technique, most):
        config = scenario_config(technique=technique, redundancy="mirror")
        engine = build_engine(config)
        stepped = []
        step = engine.step

        def spy():
            stepped.append(engine.interval)
            return step()

        engine.step = spy
        result = engine.run(config.warmup_intervals, config.measure_intervals)
        total = config.warmup_intervals + config.measure_intervals
        assert total == 720
        assert result.policy_stats["fault_degraded_intervals"] < len(stepped)
        assert len(stepped) <= most


class TestSimpleStripingSurvivors:
    """Simple striping (``k = M``) moves a display's ``M`` slots from
    stripe to stripe together: at any interval the drives of one
    stripe (``M`` consecutive drives from a multiple of ``M``) sit
    under one display's slots.  A survivor inside the failed drive's
    own stripe is therefore held at full bandwidth by the display
    whose read failed, and that read can never be reconstructed.  At
    D = 20, M = 5 the mirror pairs (4, 5) and (14, 15) and the parity
    groups 4-7, 8-11 and 12-15 are the only ones that cross stripes."""

    @pytest.mark.parametrize("disk, redundancy, reconstructs", [
        (2, "mirror", False),  # partner 3: same stripe 0-4
        (3, "parity", False),  # group 0-3: same stripe
        (7, "parity", False),  # group 4-7: survivors 5, 6 in stripe 5-9
        (4, "mirror", True),   # partner 5: next stripe
        (5, "mirror", True),   # partner 4: previous stripe
        (4, "parity", True),   # survivors 5-7: all in stripe 5-9
    ])
    def test_only_survivors_outside_the_stripe_reconstruct(
        self, disk, redundancy, reconstructs
    ):
        _, stats = fault_stats(scenario_config(
            technique="simple", redundancy=redundancy, fail_at=((disk, 100),),
        ))
        assert stats["fault_failures"] == 1.0
        assert (stats["fault_reconstructions"] > 0) is reconstructs
        assert stats["fault_hiccups"] > 0

    def test_saturated_grid_reconstructs_nothing(self, monkeypatch):
        """In the ``repro faults --scale 50`` grid (16 stations on four
        stripes) every stripe is read every interval: each survivor of
        a display's failed read is full, most of them held by that same
        display, so redundancy changes no simple-striping row."""
        held_by_reader = held_by_other = spare = 0
        settle = FaultCoordinator.settle

        def probing_settle(self, interval, policy):
            nonlocal held_by_reader, held_by_other, spare
            pool = self.pool
            for disk in self.array.failed_disks():
                for owner in pool.owners_of(pool.slot_at(disk, interval)):
                    survivors = survivors_of(
                        disk, self.redundancy, self.num_disks,
                        self.parity_group, self.array.is_failed,
                    )
                    if owner not in policy._active or not survivors:
                        continue
                    for survivor in survivors:
                        slot = pool.slot_at(survivor, interval)
                        if pool.free_halves(slot):
                            spare += 1
                        elif owner in pool.owners_of(slot):
                            held_by_reader += 1
                        else:
                            held_by_other += 1
            settle(self, interval, policy)

        monkeypatch.setattr(FaultCoordinator, "settle", probing_settle)
        points = run_faults_grid(
            scale=50, mttf_values=[300.0], techniques=("simple",)
        )
        assert spare == 0
        assert held_by_reader > held_by_other > 0
        rows = faults_rows(points)
        assert [row["redundancy"] for row in rows] == [
            "none", "mirror", "parity"
        ]
        assert rows[0]["failures"] > 0
        for row in rows:
            row.pop("redundancy")
        assert rows[0] == rows[1] == rows[2]


class TestVdrDegradedMode:
    def test_no_redundancy_cluster_limps_hiccuping(self):
        _, stats = fault_stats(scenario_config(technique="vdr"))
        assert stats["fault_failures"] == 1.0
        assert stats["fault_repairs"] == 1.0
        assert stats["fault_hiccups"] > 0
        assert stats["fault_reconstructions"] == 0.0

    def test_mirror_cluster_keeps_serving_without_hiccups(self):
        _, stats = fault_stats(
            scenario_config(technique="vdr", redundancy="mirror")
        )
        assert stats["fault_reconstructions"] > 0
        assert stats["fault_hiccups"] == 0.0
        # Redundancy held, so the repaired drive's fragments rebuild
        # (yielding to displays; under load it may still be going).
        assert stats["fault_rebuild_intervals"] > 0

    def test_abort_policy_cancels_the_active_display(self):
        _, stats = fault_stats(
            scenario_config(technique="vdr", on_fault="abort")
        )
        assert stats["fault_aborts"] >= 1.0
        assert stats["fault_hiccups"] == 0.0


class TestGating:
    def test_fault_free_run_reports_no_fault_stats(self):
        config = ScaledConfig(scale=50).with_(access_mean=0.2, num_stations=2)
        assert not config.faults_enabled
        result = run_experiment(config)
        assert not any(k.startswith("fault_") for k in result.policy_stats)

    def test_fault_run_reports_every_metric(self):
        _, stats = fault_stats(scenario_config(technique="staggered"))
        expected = {
            "fault_failures", "fault_repairs", "fault_hiccups",
            "fault_aborts", "fault_reconstructions",
            "fault_background_disruptions", "fault_degraded_intervals",
            "fault_rebuild_intervals", "fault_rebuilds_completed",
            "fault_mean_rebuild_intervals", "fault_hiccups_per_failure",
            "fault_effective_bandwidth",
        }
        assert expected <= set(stats)

    @pytest.mark.parametrize("technique", ["simple", "staggered", "vdr"])
    def test_observability_carries_fault_counters(self, technique):
        obs = Observability(level="metrics")
        result = run_experiment(scenario_config(technique=technique), obs=obs)
        metrics = result.observation["metrics"]
        assert metrics["faults.failures"]["value"] == 1.0
        assert "faults.degraded_intervals" in metrics
        assert "faults.rebuilds_completed" in metrics
