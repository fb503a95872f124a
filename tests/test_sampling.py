import numpy as np
import pytest

from dsmsim.errors import ParameterError, PhysicsError
from dsmsim.sampling import OutcomeDistribution, sample_counts


def coin():
    return OutcomeDistribution(("h", "t"), np.array([0.5, 0.5]))


def test_distribution_validation():
    with pytest.raises(PhysicsError):
        OutcomeDistribution(("a", "b"), np.array([0.7, 0.2]))
    with pytest.raises(PhysicsError):
        OutcomeDistribution(("a", "b"), np.array([1.1, -0.1]))
    with pytest.raises(ParameterError):
        OutcomeDistribution(("a",), np.array([0.5, 0.5]))
    with pytest.raises(PhysicsError):
        OutcomeDistribution(("a", "b"), np.array([np.nan, 1.0]))
    # rounding-scale negatives are clamped
    dist = OutcomeDistribution(("a", "b"), np.array([1.0 + 5e-13, -5e-13]))
    assert dist.probs[1] == 0.0


def test_zero_copies_gives_zero_counts(rng):
    assert np.array_equal(sample_counts(coin(), 0, rng), np.zeros(2, dtype=np.int64))


def test_deterministic_outcome(rng):
    dist = OutcomeDistribution(("only",), np.array([1.0]))
    assert sample_counts(dist, 7, rng).tolist() == [7]


def test_counts_sum_and_reproducibility():
    a = sample_counts(coin(), 1000, np.random.default_rng(5))
    b = sample_counts(coin(), 1000, np.random.default_rng(5))
    assert a.sum() == 1000
    assert np.array_equal(a, b)


def test_fair_coin_binomial_bound():
    counts = sample_counts(coin(), 10**6, np.random.default_rng(12))
    sigma = np.sqrt(10**6 * 0.25)
    assert abs(counts[0] - 5 * 10**5) < 5 * sigma


def test_tiny_probability_outcome_never_overflows_table(rng):
    dist = OutcomeDistribution(("a", "b", "c"), np.array([0.5, 0.5 - 1e-15, 1e-15]))
    counts = sample_counts(dist, 10**5, rng)
    assert counts.sum() == 10**5


def test_negative_count_rejected(rng):
    with pytest.raises(ParameterError):
        sample_counts(coin(), -1, rng)
