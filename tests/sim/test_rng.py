"""Tests for random variates, including the paper's truncated geometric."""

from __future__ import annotations

import pytest

from repro.sim.rng import (
    DiscreteSampler,
    RandomStream,
    geometric_success_probability,
    substream_salt,
    truncated_geometric_pmf,
)
from tests.oracles.access import effective_working_set, truncated_geometric


def test_same_seed_same_sequence():
    a = RandomStream(seed=7)
    b = RandomStream(seed=7)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_fork_is_deterministic_and_distinct():
    base = RandomStream(seed=7)
    fork1 = base.fork(1)
    fork1_again = RandomStream(seed=7).fork(1)
    fork2 = base.fork(2)
    assert fork1.uniform() == fork1_again.uniform()
    assert fork1.seed != fork2.seed


def test_substream_salt_is_stable_and_name_sensitive():
    assert substream_salt("faults") == substream_salt("faults")
    assert substream_salt("faults") != substream_salt("workload")
    assert 0 <= substream_salt("faults") < 2**63


def test_substream_same_name_same_draws():
    a = RandomStream(seed=7).substream("faults")
    b = RandomStream(seed=7).substream("faults")
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_substream_distinct_names_distinct_draws():
    base = RandomStream(seed=7)
    assert base.substream("faults").uniform() != base.substream("x").uniform()


def test_substream_independent_of_parent_and_sibling_use():
    """Drawing from the parent or one substream never perturbs
    another substream: each is a pure function of (seed, name)."""
    fresh = RandomStream(seed=7).substream("faults")
    expected = [fresh.uniform() for _ in range(5)]

    parent = RandomStream(seed=7)
    parent.uniform()  # parent consumption
    sibling = parent.substream("other")
    for _ in range(100):  # sibling consumption
        sibling.uniform()
    late = parent.substream("faults")
    assert [late.uniform() for _ in range(5)] == expected


def test_substream_disjoint_from_small_forks():
    """Named substreams cannot collide with the indexed forks the
    workload and executor already hand out."""
    base = RandomStream(seed=7)
    fork_seeds = {base.fork(i).seed for i in range(1000)}
    for name in ("faults", "disk-0", "disk-1", "disk-99"):
        assert base.substream(name).seed not in fork_seeds


def test_exponential_mean(stream):
    samples = [stream.exponential(10.0) for _ in range(20000)]
    assert sum(samples) / len(samples) == pytest.approx(10.0, rel=0.05)


def test_exponential_validates_mean(stream):
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_geometric_success_probability():
    assert geometric_success_probability(10.0) == pytest.approx(1.0 / 11.0)
    with pytest.raises(ValueError):
        geometric_success_probability(0.0)


def test_truncated_geometric_pmf_sums_to_one():
    pmf = truncated_geometric_pmf(10.0, 2000)
    assert sum(pmf) == pytest.approx(1.0)
    # Monotone decreasing: object 0 is the hottest.
    assert all(pmf[i] >= pmf[i + 1] for i in range(len(pmf) - 1))


def test_truncated_geometric_pmf_ratio_is_constant():
    pmf = truncated_geometric_pmf(10.0, 100)
    ratio = pmf[1] / pmf[0]
    for i in range(1, 20):
        assert pmf[i + 1] / pmf[i] == pytest.approx(ratio)
    assert ratio == pytest.approx(10.0 / 11.0)


def test_truncated_geometric_samples_within_limit(stream):
    for _ in range(2000):
        value = truncated_geometric(stream, 10.0, 50)
        assert 0 <= value < 50


def test_truncated_geometric_matches_pmf(stream):
    limit = 30
    counts = [0] * limit
    n = 50000
    for _ in range(n):
        counts[truncated_geometric(stream, 5.0, limit)] += 1
    pmf = truncated_geometric_pmf(5.0, limit)
    for i in (0, 1, 2, 5):
        assert counts[i] / n == pytest.approx(pmf[i], rel=0.1)


def test_effective_working_set_tracks_paper_scale():
    """Means 10/20/43.5 concentrate increasing working sets."""
    ws10 = effective_working_set(10.0, 2000)
    ws20 = effective_working_set(20.0, 2000)
    ws43 = effective_working_set(43.5, 2000)
    assert ws10 < ws20 < ws43
    # Roughly the 100/200/400 ladder (within a factor of ~2 for the
    # 99% mass convention).
    assert 30 <= ws10 <= 120
    assert 60 <= ws20 <= 240
    assert 120 <= ws43 <= 480


def test_effective_working_set_validates_mass():
    with pytest.raises(ValueError):
        effective_working_set(10.0, 100, mass=1.5)


def test_discrete_sampler_respects_pmf(stream):
    sampler = DiscreteSampler([0.7, 0.2, 0.1], stream)
    counts = [0, 0, 0]
    n = 30000
    for _ in range(n):
        counts[sampler.sample()] += 1
    assert counts[0] / n == pytest.approx(0.7, abs=0.02)
    assert counts[1] / n == pytest.approx(0.2, abs=0.02)


def test_discrete_sampler_normalises(stream):
    sampler = DiscreteSampler([2.0, 2.0], stream)
    assert sampler.pmf == pytest.approx([0.5, 0.5])


def test_discrete_sampler_rejects_bad_pmf(stream):
    with pytest.raises(ValueError):
        DiscreteSampler([], stream)
    with pytest.raises(ValueError):
        DiscreteSampler([0.5, -0.5, 1.0], stream)
