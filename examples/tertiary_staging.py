#!/usr/bin/env python3
"""Materialising objects from tertiary store (§3.2.4).

Runs a cold-start server (nothing preloaded) whose objects are
recorded on tape in the paper's *fragment-ordered* layout, and reports
how the tertiary device stages the hot set onto the disks.  (The
sequential-vs-fragment-ordered comparison is asserted by
``tests/integration/test_experiments.py::TestTertiaryExperiments``.)

Run:  python examples/tertiary_staging.py
"""

from __future__ import annotations

from repro import ScaledConfig, run_experiment
from repro.media.tape_layout import TapeOrder


def main() -> None:
    print("Cold start at 1/50 scale (no preload, fragment-ordered):")
    config = ScaledConfig(
        scale=50,
        technique="staggered",
        num_stations=4,
        access_mean=1.0 / 5,
        preload=False,
        tape_order=TapeOrder.FRAGMENT_ORDERED,
        warmup_intervals=0,
        measure_intervals=4000,
    )
    result = run_experiment(config)
    stats = result.policy_stats
    print(
        f"  displays/hour: {result.throughput_per_hour:.1f}   "
        f"materialisations: {stats['tertiary_completed']:.0f}   "
        f"tertiary utilisation: {stats['tertiary_utilization']:.0%}   "
        f"hit rate after warm-up: {stats['hit_rate']:.0%}"
    )
    print(
        "  the first displays were staged from tape; once the hot set "
        "is resident, the fragment-ordered layout keeps the occasional "
        "miss streaming instead of seeking."
    )


if __name__ == "__main__":
    main()
