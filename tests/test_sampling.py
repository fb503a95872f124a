import itertools

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
    # a stack of no rows is valid; a row of no outcomes sums to 0, not 1
    assert check_outcome_table(np.zeros((0, 3))).shape == (0, 3)
    with pytest.raises(PhysicsError):
        check_outcome_table([])


def test_zero_copies_gives_zero_counts(rng):
    assert np.array_equal(one_row_counts(COIN, 0, rng), np.zeros(2, dtype=np.int64))
    # a one-outcome table has no edges, and here no copies either
    assert one_row_counts([1.0], 0, rng).tolist() == [0]


def test_deterministic_outcome(rng):
    assert one_row_counts([1.0], 7, rng).tolist() == [7]
    assert one_row_counts([1.0], BATCH_COPIES + 1, rng).tolist() == [BATCH_COPIES + 1]


def test_empty_stacks_give_empty_counts():
    # zero tables, with copies per row or per setting
    for copies in (np.zeros((0, 3), dtype=np.int64), np.array([5, 0, BATCH_COPIES + 1])):
        counts = sample_count_tables(np.zeros((0, 3, 2)), copies, [])
        assert counts.shape == (0, 3, 2) and counts.dtype == np.int64
    # tables of zero settings draw nothing from their streams
    streams = [np.random.default_rng(seed) for seed in range(2)]
    counts = sample_count_tables(np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=np.int64), streams)
    assert counts.shape == (2, 0, 3)
    assert [stream.random() for stream in streams] == [
        np.random.default_rng(seed).random() for seed in range(2)]


@pytest.mark.parametrize("width", [7, BATCH_COPIES + 1])
def test_one_outcome_tables_draw_their_copies(width):
    # a table without edges still consumes the variates of its copies
    copies = np.array([width, 0, width - 1])
    streams = [np.random.default_rng(seed) for seed in range(3)]
    counts = sample_count_tables(np.ones((3, 3, 1)), copies, streams)
    assert np.array_equal(counts, np.broadcast_to(copies[:, None], (3, 3, 1)))
    for seed, stream in enumerate(streams):
        drawn = np.random.default_rng(seed)
        drawn.random(int(copies.sum()))
        assert stream.random() == drawn.random()


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


# Copy slots per pass of the slot blocks: one (the slot pass of earlier
# versions), a few, or the whole width (the padded blocks of earlier
# versions). Widths above BATCH_COPIES are counted in chunks, whatever the
# pass width.
PASSES = {"slots": lambda width: 1, "blocks": lambda width: min(3, width),
          "padded": lambda width: width}
WIDTHS = [1, 42, BATCH_COPIES, BATCH_COPIES + 1]
# A CHUNK of 997 cuts small budgets into groups of a few tables and splits
# the draws above BATCH_COPIES; at BATCH_COPIES itself the default one
# already cuts groups, and 997 would count one table per group.
STACKED = [(edges, width, tables, layout, chunk)
           for edges in (1, 2, 16) for width in WIDTHS for tables in (1, 7, 80, 200)
           for layout in PASSES for chunk in (CHUNK, 997)
           if not (width == BATCH_COPIES and chunk < CHUNK)
           and not (width > BATCH_COPIES and layout == "blocks")]


def _force_passes(monkeypatch, layout):
    """Count the slot blocks in passes of the layout's width."""
    shape = sampling._block_shape

    def forced(tables, settings, width, count):
        return shape(tables, settings, width, count)[0], PASSES[layout](width)

    monkeypatch.setattr(sampling, "_block_shape", forced)


def test_block_shape_within_chunk():
    for tables, settings, width, count in itertools.product(
            (1, 7, 80, 200), (1, 3, 24), (1, 42, BATCH_COPIES), (0, 1, 16)):
        size, step = sampling._block_shape(tables, settings, width, count)
        assert 1 <= size <= tables and 1 <= step <= width
        # a group's draws and edges, and a pass's variates and comparisons,
        # stay within CHUNK unless a single table or slot already exceeds it
        group, compared = settings * (width + count), settings * (count + 8)
        assert size == 1 or size * group <= CHUNK
        assert step == 1 or step * size * compared <= CHUNK
        # and fill at least half of it where the group or pass could be larger
        assert size == tables or 2 * size * group > CHUNK
        assert step == width or 2 * step * size * compared > CHUNK


@pytest.mark.parametrize("edges, width, tables, layout, chunk", STACKED)
def test_stacked_counts_match_reference(monkeypatch, edges, width, tables, layout, chunk):
    _force_passes(monkeypatch, layout)
    monkeypatch.setattr(sampling, "CHUNK", chunk)
    probs = _stacked_tables(tables, edges + 1, seed=1000 * edges + width + tables)
    copies = _width_copies(width)
    seeds = [(width, tables, edges, table) for table in range(tables)]
    counts = sample_count_tables(probs, copies, [np.random.default_rng(s) for s in seeds])
    expected = _reference_tables(probs, copies, [np.random.default_rng(s) for s in seeds])
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)


def test_tables_with_their_own_copies_match_lone_tables():
    """Tables that split their copies differently, counted in one call, get
    the counts of a call of their own and leave their streams where it does:
    runs of equal splits in both layouts, a split that returns after
    another, and a table without copies."""
    widths = [42, 42, BATCH_COPIES + 1, 42, 0, 1, 1, BATCH_COPIES, BATCH_COPIES + 1]
    copies = np.array([_width_copies(width) for width in widths])
    probs = _stacked_tables(len(widths), 4, seed=3)
    together = [np.random.default_rng(table) for table in range(len(widths))]
    alone = [np.random.default_rng(table) for table in range(len(widths))]
    counts = sample_count_tables(probs, copies, together)
    for table, (row, stream) in enumerate(zip(copies, alone)):
        lone = sample_count_tables(probs[table:table + 1], row, [stream])
        assert np.array_equal(counts[table], lone[0])
    assert [stream.random() for stream in together] == [stream.random() for stream in alone]
    with pytest.raises(ParameterError):
        sample_count_tables(probs, copies[:-1], together)
    with pytest.raises(ParameterError, match="^need one random stream per table$"):
        sample_count_tables(probs, copies, together[:-1])
    # copy counts that are not integers: a cast would count 2.5 as 2 and
    # True as 1, and NaN would raise a bare ValueError
    for bad in (copies + 0.5, copies > 0, np.full(copies.shape, np.nan),
                (copies[0] + 0.5).tolist()):
        with pytest.raises(ParameterError):
            sample_count_tables(probs, bad, together)


@pytest.mark.parametrize("layout", sorted(PASSES))
@pytest.mark.parametrize("width", WIDTHS)
def test_variate_on_an_edge_counts_above_it(monkeypatch, layout, width):
    _force_passes(monkeypatch, layout)
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


@pytest.mark.parametrize("width", [BATCH_COPIES, BATCH_COPIES + 1])
def test_edges_are_sequential_cumulative_sums(monkeypatch, width):
    """The edges the counting passes compare with, taken as running sums
    across many rows, equal np.cumsum along each row bit for bit: in the
    slot blocks (up to BATCH_COPIES copies per setting), group by group,
    and in the chunks, table by table."""
    seen = []
    sums = sampling._running_sums
    monkeypatch.setattr(sampling, "_running_sums",
                        lambda columns: seen.append(sums(columns)) or seen[-1])
    for outcomes in range(2, 34):
        # 20 tables of 5 settings at 1024 copies form two groups
        probs = _stacked_tables(20, outcomes, seed=outcomes)
        seen.clear()
        counts = sample_count_tables(probs, _width_copies(width),
                                     [np.random.default_rng(t) for t in range(20)])
        assert len(seen) == (2 if width <= BATCH_COPIES else 20)
        # [edge, table, setting]: groups of tables, or one table each
        edges = (np.concatenate(seen, axis=1) if width <= BATCH_COPIES
                 else np.stack(seen, axis=1))
        expected = np.cumsum(probs[..., :-1], axis=-1)
        assert np.array_equal(edges, np.moveaxis(expected, -1, 0))
        assert np.array_equal(counts, _reference_tables(
            probs, _width_copies(width), [np.random.default_rng(t) for t in range(20)]))
