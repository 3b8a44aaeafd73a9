"""End-to-end crash consistency: real subprocesses, real crashes.

These drive the same harness machinery as ``repro chaos`` over a few
representative scenarios — a hard kill at the cache boundary, a torn
journal tail, and an on-disk corruption round trip — and additionally
prove the harness *detects* divergence (a checker that cannot fail
proves nothing).
"""

import pytest

from repro import failpoints
from repro.failpoints.harness import (
    Baseline,
    ChaosError,
    Scenario,
    _capture_baseline,
    _run_corruption,
    _run_local,
    chaos_plan,
)


def _by_name(name):
    (scenario,) = [s for s in chaos_plan() if s.name == name]
    return scenario


class TestPlan:
    def test_every_registered_site_is_exercised(self):
        sites = set(failpoints.discover_sites())
        covered = {
            scenario.spec.split("=", 1)[0]
            for scenario in chaos_plan()
            if scenario.spec
        }
        assert covered == sites

    def test_quick_subset_covers_the_core_stores(self):
        quick = chaos_plan(quick=True)
        assert all(scenario.quick for scenario in quick)
        covered = {s.spec.split("=", 1)[0] for s in quick if s.spec}
        assert {
            "cache.write.pre_rename",
            "journal.append.pre_write",
            "journal.append.post_write",
            "cluster.client.post_send",
        } <= covered

    def test_names_and_specs_are_unique(self):
        plan = chaos_plan()
        names = [scenario.name for scenario in plan]
        assert len(names) == len(set(names))


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chaos-e2e")
    return workdir, _capture_baseline(workdir)


class TestConvergence:
    def test_crash_at_cache_write_recovers_byte_identically(self, baseline):
        workdir, base = baseline
        _run_local(_by_name("cache-write-crash"), base, workdir)

    def test_torn_journal_tail_recovers_byte_identically(self, baseline):
        workdir, base = baseline
        _run_local(_by_name("journal-append-torn"), base, workdir)

    def test_corruption_is_quarantined_and_reexecuted(self, baseline):
        workdir, base = baseline
        _run_corruption(_by_name("corrupt-cache-object"), base, workdir)


class TestDetection:
    def test_row_divergence_is_flagged(self, baseline):
        workdir, _ = baseline
        wrong = Baseline(rows=b"not the real rows", settled="0" * 64)
        scenario = Scenario(
            "detect-divergence", "", "fault-free run vs poisoned baseline",
            expect=(0,),
        )
        with pytest.raises(ChaosError, match="differ"):
            _run_local(scenario, wrong, workdir)

    def test_unexpected_exit_code_is_flagged(self, baseline):
        workdir, base = baseline
        # A scenario that demands a crash from a run with no failpoint
        # armed: the sweep exits 0 and the harness must call that out.
        scenario = Scenario(
            "detect-no-crash", "", "exit-code expectation check",
            expect=(failpoints.CRASH_EXIT_CODE,),
        )
        with pytest.raises(ChaosError, match="exited 0"):
            _run_local(scenario, base, workdir)
