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

from repro.core.virtual_disks import SlotPool
from repro.experiments.faults import faults_rows, run_faults_grid
from repro.faults.coordinator import FaultCoordinator
from repro.faults.injector import FaultInjector
from repro.faults.redundancy import survivors_of
from repro.hardware.disk import TABLE3_DISK
from repro.hardware.disk_array import DiskArray
from repro.obs import Observability
from repro.sim.rng import RandomStream
from repro.simulation.config import ScaledConfig
from repro.simulation.runner import run_experiment


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
    def test_owners_of_a_failed_slot_compete_in_repr_order(self):
        """Two half-bandwidth reads share the slot over failed drive 0
        and its mirror has one spare half: the owner whose ``repr``
        sorts first (``"10"`` before ``"9"``) reconstructs, the other
        hiccups, whatever order they claimed in."""
        pool = SlotPool(num_disks=4, stride=1)
        policy = SimpleNamespace(
            disk_manager=SimpleNamespace(
                array=DiskArray(model=TABLE3_DISK, num_disks=4), pool=pool,
            ),
            _active={9: SimpleNamespace(display_id=9),
                     10: SimpleNamespace(display_id=10)},
        )
        injector = FaultInjector(
            num_disks=4, stream=RandomStream(seed=1), fail_at=((0, 0),),
        )
        faults = FaultCoordinator(policy, injector, redundancy="mirror")
        faults.begin_interval(0)
        pool.claim(0, 9, halves=1)
        pool.claim(0, 10, halves=1)
        pool.claim(1, "other", halves=1)
        faults.settle(0)
        assert (faults.reconstructions, faults.hiccups) == (1, 1)
        assert pool.owners_of(1) == {"other": 1, ("reconstruct", 10): 1}


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

        def probing_settle(self, interval):
            nonlocal held_by_reader, held_by_other, spare
            pool = self.pool
            for disk in self.array.failed_disks():
                for owner in pool.owners_of(pool.slot_at(disk, interval)):
                    survivors = survivors_of(
                        disk, self.redundancy, self.num_disks,
                        self.parity_group, self.array.is_failed,
                    )
                    if owner not in self.policy._active or not survivors:
                        continue
                    for survivor in survivors:
                        slot = pool.slot_at(survivor, interval)
                        if pool.free_halves(slot):
                            spare += 1
                        elif owner in pool.owners_of(slot):
                            held_by_reader += 1
                        else:
                            held_by_other += 1
            settle(self, interval)

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
