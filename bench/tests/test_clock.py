"""Normalised CPU seconds: the speed at each sample weights the CPU time
the main thread spent until the next one."""

from __future__ import annotations

import pytest

from workloads import REFERENCE_S, NormalisedClock


def _clock(loop_times):
    """A clock whose i-th sample sits at host time and main CPU ``i``."""
    clock = NormalisedClock()
    clock.samples = [(float(i), float(i), loop) for i, loop in enumerate(loop_times)]
    return clock


def test_cpu_time_is_scaled_by_the_speed_at_each_sample():
    # Reference speed for main CPU 0..5, half of it from 5 on.
    clock = _clock([REFERENCE_S] * 5 + [2 * REFERENCE_S] * 5)
    assert clock.seconds(0.0, 10.0) == pytest.approx(5 * 1.0 + 5 * 0.5)
    assert clock.seconds(1.5, 3.0) == pytest.approx(1.5)
    # The first factor also holds before the first sample, the last after.
    assert clock.seconds(-1.0, 0.0) == pytest.approx(1.0)
    assert clock.seconds(9.0, 11.0) == pytest.approx(1.0)


def test_one_slow_sample_is_smoothed_away():
    loops = [REFERENCE_S] * 9
    loops[4] = 10 * REFERENCE_S
    assert _clock(loops).seconds(0.0, 9.0) == pytest.approx(9.0)


def test_without_samples_cpu_time_is_returned_unscaled():
    assert NormalisedClock().seconds(2.0, 3.5) == pytest.approx(1.5)


def test_child_cpu_is_scaled_by_the_samples_taken_meanwhile():
    clock = _clock([REFERENCE_S] * 5 + [4 * REFERENCE_S] * 5)
    assert clock.child_seconds(2.0, 0.0, 2.0) == pytest.approx(2.0)
    assert clock.child_seconds(2.0, 7.0, 9.0) == pytest.approx(0.5)
    # None taken meanwhile: the latest sample's speed.
    assert clock.child_seconds(2.0, 20.0, 21.0) == pytest.approx(0.5)


def test_the_sampler_runs_and_stops():
    with NormalisedClock() as clock:
        start = clock.now()
        while clock.now() - start < 0.1:
            pass
        end = clock.now()
    assert clock.samples
    assert clock.seconds(start, end) > 0.0
