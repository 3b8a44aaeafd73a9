"""Property-based tests (hypothesis) for the arrival statistics.

The open engine is only as good as its variates.  Across randomly
drawn parameters:

* Poisson interarrival gaps have the right mean and unit coefficient
  of variation (the exponential signature);
* Zipf access frequencies are monotone in rank and match the
  configured exponent;
* MMPP phase occupancy converges to the closed-form stationary
  distribution of the modulating chain;
* every statistic is reproducible from the seed alone.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.rng import RandomStream  # noqa: E402
from repro.workload.access import ZipfAccess, zipf_pmf  # noqa: E402
from repro.workload.arrivals import MMPPSource, PoissonSource  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**31 - 1)
rates = st.floats(
    min_value=0.1, max_value=20.0, allow_nan=False, allow_infinity=False
)
exponents = st.floats(
    min_value=0.3, max_value=2.5, allow_nan=False, allow_infinity=False
)


def interarrivals(source, count):
    times = [source.next_time() for _ in range(count)]
    return [b - a for a, b in zip([0.0] + times, times)]


class TestPoissonInterarrivals:
    @given(rate=rates, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_mean_matches_rate(self, rate, seed):
        gaps = interarrivals(
            PoissonSource(rate, RandomStream(seed)), 3000
        )
        mean = sum(gaps) / len(gaps)
        # Std error of the mean of n exponentials is mean/sqrt(n);
        # accept four standard errors.
        assert mean == pytest.approx(
            1.0 / rate, rel=4.0 / math.sqrt(len(gaps))
        )

    @given(rate=rates, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_unit_coefficient_of_variation(self, rate, seed):
        """CV = 1 is the memorylessness signature separating Poisson
        from clumped (CV > 1) or regular (CV < 1) traffic."""
        gaps = interarrivals(
            PoissonSource(rate, RandomStream(seed)), 3000
        )
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        assert math.sqrt(variance) / mean == pytest.approx(1.0, abs=0.12)

    @given(rate=rates, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_reproducible_from_seed(self, rate, seed):
        first = interarrivals(PoissonSource(rate, RandomStream(seed)), 50)
        second = interarrivals(PoissonSource(rate, RandomStream(seed)), 50)
        assert first == second


class TestZipfSkew:
    @given(exponent=exponents, limit=st.integers(2, 200))
    @settings(max_examples=50, deadline=None)
    def test_pmf_strictly_monotone_in_rank(self, exponent, limit):
        pmf = zipf_pmf(exponent, limit)
        assert all(a > b for a, b in zip(pmf, pmf[1:]))
        assert sum(pmf) == pytest.approx(1.0)

    @given(exponent=exponents, limit=st.integers(2, 200))
    @settings(max_examples=50, deadline=None)
    def test_rank_ratios_match_exponent(self, exponent, limit):
        """P(rank i) / P(rank j) == ((j+1)/(i+1))^s — the defining
        power law, so the pmf encodes exactly the configured
        exponent."""
        pmf = zipf_pmf(exponent, limit)
        j = limit - 1
        expected = ((j + 1) / 1.0) ** exponent
        assert pmf[0] / pmf[j] == pytest.approx(expected, rel=1e-9)

    @given(exponent=exponents, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_sampled_frequencies_monotone(self, exponent, seed):
        """Observed head/mid/tail frequencies order by rank."""
        access = ZipfAccess(list(range(30)), exponent, RandomStream(seed))
        counts = [0] * 30
        for _ in range(6000):
            counts[access.sample()] += 1
        head = sum(counts[:3])
        mid = sum(counts[10:13])
        tail = sum(counts[27:30])
        assert head > mid > tail

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_steeper_exponent_concentrates_head(self, seed):
        flat = zipf_pmf(0.5, 100)
        steep = zipf_pmf(1.5, 100)
        assert steep[0] > flat[0]
        assert sum(steep[:10]) > sum(flat[:10])
        shallow = ZipfAccess(list(range(50)), 0.4, RandomStream(seed))
        sharp = ZipfAccess(list(range(50)), 2.0, RandomStream(seed + 1))
        top_shallow = sum(
            1 for _ in range(4000) if shallow.sample() < 5
        )
        top_sharp = sum(1 for _ in range(4000) if sharp.sample() < 5)
        assert top_sharp > top_shallow


class TestMMPPOccupancy:
    @given(
        seed=seeds,
        rate_pair=st.tuples(
            st.floats(0.5, 5.0, allow_nan=False),
            st.floats(0.5, 5.0, allow_nan=False),
        ),
        sojourn_pair=st.tuples(
            st.floats(2.0, 10.0, allow_nan=False),
            st.floats(2.0, 10.0, allow_nan=False),
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_phase_occupancy_matches_stationary(
        self, seed, rate_pair, sojourn_pair
    ):
        """Long-run time-in-phase fractions converge to
        ``sojourn_i / sum(sojourns)`` — the stationary distribution of
        the cyclic modulating chain."""
        source = MMPPSource(
            list(rate_pair),
            list(sojourn_pair),
            RandomStream(seed).substream("workload.arrivals"),
            RandomStream(seed).substream("workload.mmpp"),
        )
        horizon = 400.0 * max(sojourn_pair)
        while source.next_time() < horizon:
            pass
        total = sum(source.time_in_phase)
        occupancy = [t / total for t in source.time_in_phase]
        # For an alternating renewal process with exponential sojourns
        # (cv = 1), the occupancy estimator's standard deviation over
        # n cycles is about p(1-p)·sqrt(2/n).  Hypothesis actively
        # hunts for statistical tails across examples, so accept five
        # standard deviations (with a small floor).
        cycles = total / sum(sojourn_pair)
        stationary = [s / sum(sojourn_pair) for s in sojourn_pair]
        for observed, expected in zip(occupancy, stationary):
            sigma = expected * (1 - expected) * math.sqrt(2.0 / cycles)
            assert observed == pytest.approx(
                expected, abs=max(5.0 * sigma, 0.02)
            )

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_reproducible_from_seed(self, seed):
        def build():
            return MMPPSource(
                [1.0, 4.0],
                [5.0, 15.0],
                RandomStream(seed).substream("workload.arrivals"),
                RandomStream(seed).substream("workload.mmpp"),
            )

        first_source, second_source = build(), build()
        first = [first_source.next_time() for _ in range(200)]
        second = [second_source.next_time() for _ in range(200)]
        assert first == second
        assert first_source.time_in_phase == second_source.time_in_phase

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_bursty_mmpp_has_supra_poisson_variation(self, seed):
        """A strongly modulated MMPP is burstier than Poisson: the
        interarrival CV must exceed 1."""
        source = MMPPSource(
            [0.2, 10.0],
            [50.0, 50.0],
            RandomStream(seed).substream("workload.arrivals"),
            RandomStream(seed).substream("workload.mmpp"),
        )
        gaps = interarrivals(source, 4000)
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        assert math.sqrt(variance) / mean > 1.15
