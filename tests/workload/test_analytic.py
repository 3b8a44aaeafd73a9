"""Analytic validation: the open engine against closed-form theory.

These tests drive the *real* machinery end to end — `OpenArrivals`
feeding `IntervalEngine`, deadline expiry, `try_cancel` blocking —
with the minimal server-bank policies of
:mod:`tests.oracles.analytic`, and check the simulated statistics
against classical teletraffic closed forms:

* blocking probability of a pure loss system vs **Erlang-B** at three
  offered loads (below, at, and above capacity);
* mean queueing delay of an ``M/M/c`` queue vs the **Erlang-C** wait
  formula.

Each comparison replicates the run over independent seeds and accepts
the closed form when it lies within three standard errors of the
replication mean, plus a small absolute floor for the one-interval
quantisation of the clock (arrival times are exact but admission and
service boundaries land on interval edges).  See docs/workloads.md.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream
from repro.simulation.engine import IntervalEngine
from repro.workload.access import UniformAccess
from repro.workload.arrivals import OpenArrivals, PoissonSource
from tests.oracles.analytic import (
    LossServerPolicy,
    QueueServerPolicy,
    erlang_b,
    erlang_c,
    mmc_mean_wait,
)

SEEDS = (11, 23, 37, 51, 73)


def mean_and_stderr(values):
    """Replication mean and its standard error."""
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance / n)


def open_arrivals(rate: float, seed: int, deadline: int) -> OpenArrivals:
    stream = RandomStream(seed)
    return OpenArrivals(
        source=PoissonSource(rate, stream.substream("workload.arrivals")),
        access=UniformAccess([0], stream.substream("workload.access")),
        interval_length=1.0,
        deadline_intervals=deadline,
        kind="poisson",
    )


class TestErlangBClosedForm:
    def test_matches_direct_sum(self):
        """The stable recurrence equals the textbook ratio
        ``(a^c / c!) / sum_k a^k / k!``."""
        for servers, offered in [(1, 0.5), (4, 3.2), (8, 8.0), (12, 15.0)]:
            terms = [
                offered**k / math.factorial(k) for k in range(servers + 1)
            ]
            direct = terms[-1] / sum(terms)
            assert erlang_b(servers, offered) == pytest.approx(
                direct, rel=1e-12
            )

    def test_boundaries(self):
        assert erlang_b(1, 1.0) == pytest.approx(0.5)
        assert erlang_b(5, 0.0) == 0.0
        assert erlang_b(5, 2.0) > erlang_b(10, 2.0)  # more servers help

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            erlang_b(0, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_b(4, -0.1)


class TestErlangCClosedForm:
    def test_requires_stability(self):
        with pytest.raises(ConfigurationError):
            erlang_c(4, 4.0)

    def test_waiting_probability_exceeds_blocking(self):
        """C(c, a) >= B(c, a): queueing makes waiting more likely than
        a loss system makes blocking."""
        for servers, offered in [(2, 1.0), (4, 3.2), (8, 6.0)]:
            assert erlang_c(servers, offered) >= erlang_b(servers, offered)

    def test_mean_wait_shrinks_with_servers(self):
        waits = [mmc_mean_wait(c, 0.08, 40.0) for c in (4, 6, 8)]
        assert waits[0] > waits[1] > waits[2] > 0


class TestBlockingMatchesErlangB:
    """An M/D/c/c loss system through the full open-engine path.

    `LossServerPolicy` holds each admitted display for a fixed
    ``service`` intervals; ``deadline_intervals=0`` turns any arrival
    that cannot be admitted in its own interval into a blocked
    customer.  By Erlang insensitivity the blocking probability
    depends on the service distribution only through its mean, so the
    deterministic holding time is exactly the Erlang-B regime.
    """

    SERVERS = 8
    SERVICE = 100  # intervals; interval_length = 1 s

    def simulate_blocking(self, offered_erlangs: float, seed: int) -> float:
        rate = offered_erlangs / self.SERVICE
        engine = IntervalEngine(
            policy=LossServerPolicy(self.SERVERS, self.SERVICE),
            stations=open_arrivals(rate, seed, deadline=0),
            interval_length=1.0,
        )
        result = engine.run(warmup_intervals=500, measure_intervals=15000)
        assert result.offered > 0
        return result.blocking_probability

    @pytest.mark.parametrize("utilisation", [0.6, 1.0, 1.4])
    def test_blocking_within_ci(self, utilisation):
        offered = utilisation * self.SERVERS
        expected = erlang_b(self.SERVERS, offered)
        samples = [
            self.simulate_blocking(offered, seed) for seed in SEEDS
        ]
        mean, stderr = mean_and_stderr(samples)
        # Three standard errors, floored at one percentage point for
        # the interval quantisation of admissions.
        tolerance = max(3.0 * stderr, 0.01)
        assert abs(mean - expected) <= tolerance, (
            f"a={offered}: simulated {mean:.4f} +/- {stderr:.4f} vs "
            f"Erlang-B {expected:.4f}"
        )

    def test_blocking_increases_with_load(self):
        samples = [
            self.simulate_blocking(u * self.SERVERS, SEEDS[0])
            for u in (0.6, 1.0, 1.4)
        ]
        assert samples[0] < samples[1] < samples[2]


class TestMeanWaitMatchesMMc:
    """An M/M/c queue through the full open-engine path.

    `QueueServerPolicy` draws exponential holding times and queues
    without bound (no deadline), so the admission wait the engine
    reports as startup latency is the M/M/c queueing delay ``W_q``.
    """

    SERVERS = 4
    MEAN_SERVICE = 40.0  # intervals; interval_length = 1 s

    def simulate_mean_wait(self, rho: float, seed: int) -> float:
        rate = rho * self.SERVERS / self.MEAN_SERVICE
        stream = RandomStream(seed)
        engine = IntervalEngine(
            policy=QueueServerPolicy(
                self.SERVERS,
                self.MEAN_SERVICE,
                stream.substream("workload.service"),
            ),
            stations=OpenArrivals(
                source=PoissonSource(
                    rate, stream.substream("workload.arrivals")
                ),
                access=UniformAccess(
                    [0], stream.substream("workload.access")
                ),
                interval_length=1.0,
                kind="poisson",
            ),
            interval_length=1.0,
        )
        result = engine.run(warmup_intervals=2000, measure_intervals=20000)
        assert result.completed > 0
        return result.mean_startup_latency_seconds

    @pytest.mark.parametrize("rho", [0.5, 0.7])
    def test_mean_wait_within_ci(self, rho):
        rate = rho * self.SERVERS / self.MEAN_SERVICE
        expected = mmc_mean_wait(self.SERVERS, rate, self.MEAN_SERVICE)
        samples = [self.simulate_mean_wait(rho, seed) for seed in SEEDS]
        mean, stderr = mean_and_stderr(samples)
        # Three standard errors, floored at one interval for the
        # quantisation of service boundaries to the clock.
        tolerance = max(3.0 * stderr, 1.0)
        assert abs(mean - expected) <= tolerance, (
            f"rho={rho}: simulated {mean:.2f}s +/- {stderr:.2f} vs "
            f"M/M/c {expected:.2f}s"
        )

    def test_wait_grows_with_load(self):
        assert self.simulate_mean_wait(0.7, SEEDS[0]) > (
            self.simulate_mean_wait(0.5, SEEDS[0])
        )
