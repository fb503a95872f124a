import numpy as np
import pytest

from oracles import _reference_counts

from dsmsim import sampling
from dsmsim.errors import ParameterError, PhysicsError
from dsmsim.sampling import (
    BATCH_COPIES,
    CHUNK,
    check_outcome_table,
    sample_count_tables,
)

COIN = [0.5, 0.5]


def one_row_counts(probs, copies, rng):
    """Counts of a single setting: a one-row table drawn from one stream."""
    return sample_count_tables(check_outcome_table(probs)[None], [copies], [rng])[0, 0]


def test_distribution_validation():
    with pytest.raises(PhysicsError):
        check_outcome_table([0.7, 0.2])
    with pytest.raises(PhysicsError):
        check_outcome_table([1.1, -0.1])
    with pytest.raises(PhysicsError):
        check_outcome_table([np.nan, 1.0])
    # rounding-scale negatives are clamped
    assert check_outcome_table([1.0 + 5e-13, -5e-13])[0, 1] == 0.0


def test_zero_copies_gives_zero_counts(rng):
    assert np.array_equal(one_row_counts(COIN, 0, rng), np.zeros(2, dtype=np.int64))


def test_deterministic_outcome(rng):
    assert one_row_counts([1.0], 7, rng).tolist() == [7]


def test_counts_sum_and_reproducibility():
    a = one_row_counts(COIN, 1000, np.random.default_rng(5))
    b = one_row_counts(COIN, 1000, np.random.default_rng(5))
    assert a.sum() == 1000
    assert np.array_equal(a, b)


def test_fair_coin_binomial_bound():
    counts = one_row_counts(COIN, 10**6, np.random.default_rng(12))
    sigma = np.sqrt(10**6 * 0.25)
    assert abs(counts[0] - 5 * 10**5) < 5 * sigma


def test_tiny_probability_outcome_never_overflows_table(rng):
    counts = one_row_counts([0.5, 0.5 - 1e-15, 1e-15], 10**5, rng)
    assert counts.sum() == 10**5


def test_negative_count_rejected(rng):
    with pytest.raises(ParameterError):
        one_row_counts(COIN, -1, rng)


class FixedStream:
    """A stand-in random stream that yields a fixed cycle of variates."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.drawn = 0

    def random(self, size=None, out=None):
        count = out.shape[0] if out is not None else size
        variates = np.take(self.values, np.arange(self.drawn, self.drawn + count), mode="wrap")
        self.drawn += count
        if out is None:
            return variates
        out[...] = variates
        return out


def _stacked_tables(tables, outcomes, seed):
    """Random tables [table, 5 settings, outcomes] with zero-probability outcomes."""
    gen = np.random.default_rng(seed)
    probs = gen.random((tables, 5, outcomes))
    # repeated edges: two settings of every table have empty outcomes
    probs[:, 1, : outcomes // 2] = 0.0
    probs[:, 3, -1] = 0.0
    return probs / probs.sum(axis=-1, keepdims=True)


def _width_copies(width):
    """Copies of the 5 settings: a zero-copy row and rows one short of the width."""
    return np.array([width, max(width - 1, 0), 0, width, max(width - 1, 0)])


def _reference_tables(probs, copies, streams):
    return np.array([[_reference_counts(row, count, stream)
                      for row, count in zip(table, copies)]
                     for table, stream in zip(probs, streams)])


# SLOT_RATIO 0 counts every small budget by copy slots, an infinite one in
# padded blocks.
RATIOS = {"slots": 0, "padded": np.inf}
WIDTHS = [1, 42, BATCH_COPIES, BATCH_COPIES + 1]
# A CHUNK of 997 cuts small budgets into groups of a few tables and splits
# the draws above BATCH_COPIES; at BATCH_COPIES itself the default one
# already cuts groups, and 997 would count one table per group.
STACKED = [(edges, width, tables, layout, chunk)
           for edges in (1, 2, 16) for width in WIDTHS for tables in (1, 7, 80, 200)
           for layout in RATIOS for chunk in (CHUNK, 997)
           if not (width == BATCH_COPIES and chunk < CHUNK)]


@pytest.mark.parametrize("edges, width, tables, layout, chunk", STACKED)
def test_stacked_counts_match_reference(monkeypatch, edges, width, tables, layout, chunk):
    monkeypatch.setattr(sampling, "SLOT_RATIO", RATIOS[layout])
    monkeypatch.setattr(sampling, "CHUNK", chunk)
    probs = _stacked_tables(tables, edges + 1, seed=1000 * edges + width + tables)
    copies = _width_copies(width)
    seeds = [(width, tables, edges, table) for table in range(tables)]
    counts = sample_count_tables(probs, copies, [np.random.default_rng(s) for s in seeds])
    expected = _reference_tables(probs, copies, [np.random.default_rng(s) for s in seeds])
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("layout", sorted(RATIOS))
@pytest.mark.parametrize("width", WIDTHS)
def test_variate_on_an_edge_counts_above_it(monkeypatch, layout, width):
    monkeypatch.setattr(sampling, "SLOT_RATIO", RATIOS[layout])
    # dyadic probabilities: every edge is exact, and the stream hits each one
    probs = np.array([[0.125, 0.0, 0.375, 0.25, 0.25],
                      [0.5, 0.25, 0.0, 0.0, 0.25],
                      [0.0, 0.0, 0.5, 0.5, 0.0]])
    probs = np.repeat(probs[None], 6, axis=0)
    copies = np.array([width, max(width - 1, 0), width])
    values = [0.0, 0.125, 0.5, 0.75, 1.0 - 2.0**-53, 0.3, 0.5, 0.125, 0.9]

    def streams():
        return [FixedStream(np.roll(values, table)) for table in range(6)]

    counts = sample_count_tables(probs, copies, streams())
    assert np.array_equal(counts, _reference_tables(probs, copies, streams()))
