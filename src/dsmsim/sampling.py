"""Finite-copy outcome sampling.

Every copy is one uniform variate looked up in its setting's cumulative
distribution: the copy lands on the first outcome whose cumulative edge lies
above the variate. Counts are taken per edge rather than per copy, so the
number of copies below each edge is one vectorized comparison, and the
difference of neighbouring edges gives the outcome counts. The variates are
drawn in setting order, so a table of settings consumes the same stream as
drawing each setting's copies in turn. Tables may be stacked, one random
stream each, and counted together.

The edges, and the failure column of an outcome table, are running sums
over many rows at once, one add per outcome: np.cumsum's sequential adds
along a row, so they round as it does, in the [edge, row] order the
counting passes compare them in.

Two layouts count the same copies, chosen by the copy count alone. Tables
may split their copies differently; consecutive tables that split them
alike are counted as one run. Either layout counts a run of tables into
that run's rows of the edge columns of the [table, setting, outcome] array
the call returns, and one in-place difference of neighbouring columns then
turns those edge tallies into outcome counts. Settings with many copies
are counted one at a time in fixed-size chunks. Settings with few copies
are counted for all tables of a run together, in passes over blocks of
consecutive copy slots: each pass compares those slots' variates of every
row of a group of tables with all its edges at once. The block width
follows from the shape alone: a few slots when the group has many rows and
edges (the fig4 sweep), up to every slot when it has few.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, PhysicsError

PROB_SUM_ATOL = 1e-12
PROB_NEG_ATOL = -1e-12
# Settings with at most this many copies are counted together in slot blocks.
# Counting setting by setting costs one NumPy call per edge and setting, which
# dominates at few copies; the blocks pay for padding every setting to the
# largest. The two cost the same between 1,024 and 2,048 copies per setting
# (3 and 17 outcomes, 3 and 24 settings, 50 tables, NumPy 2.4, x86-64).
BATCH_COPIES = 1024
# Variates per draw. The slot blocks size their groups and passes from it
# too (_block_shape), so scratch memory is bounded by a small multiple of
# it, whatever the copy budget.
CHUNK = 1 << 16


def _checked(probs: np.ndarray) -> np.ndarray:
    """The checks of check_outcome_table, clamping ``probs`` in place."""
    if not np.all(np.isfinite(probs)):
        raise PhysicsError("outcome probabilities must be finite")
    low = float(probs.min(initial=0.0))
    if low < PROB_NEG_ATOL:
        raise PhysicsError(f"negative outcome probability: {low!r}")
    np.clip(probs, 0.0, None, out=probs)
    totals = probs.sum(axis=-1).ravel()
    gaps = np.abs(totals - 1.0)
    if gaps.max(initial=0.0) > PROB_SUM_ATOL:
        raise PhysicsError(f"outcome probabilities sum to {float(totals[gaps.argmax()])!r}, not 1")
    return probs


def check_outcome_table(probs) -> np.ndarray:
    """Validate rows of outcome probabilities; returns a copy clamped at zero.

    Every entry must be finite and no lower than -1e-12 (rounding-scale
    negatives are clamped to zero), and every row must sum to one. Tables
    may be stacked along leading axes.
    """
    return _checked(np.array(probs, dtype=np.float64, ndmin=2))


def _running_sums(columns) -> np.ndarray:
    """np.cumsum(columns, axis=-1) with that axis moved to the front."""
    sums = np.moveaxis(columns, -1, 0).copy()
    for j in range(1, len(sums)):
        sums[j] += sums[j - 1]
    return sums


def outcome_table(table) -> np.ndarray:
    """Outcome tables whose last column, the failure outcome, is set in
    place to 1 minus the sequential sum of the row's other columns, then
    validated and clamped in place as check_outcome_table does."""
    table[..., -1] = 1.0 - _running_sums(table[..., :-1])[-1]
    return _checked(table)


def _block_shape(tables, settings, width, count) -> tuple:
    """Tables per group and copy slots per pass of the slot blocks.

    A group holds its draws and its edges in about CHUNK numbers, and a
    pass its gathered variates (8 bytes each) and their comparisons with
    the edges (1 byte each) in about CHUNK bytes.
    """
    size = min(tables, max(1, CHUNK // (settings * (width + count))))
    return size, min(width, max(1, CHUNK // (size * settings * (count + 8))))


def _below_blocks(probs, copies, rngs, below) -> None:
    """Copies below each edge of a run of tables, written into ``below``,
    for settings with few copies each.

    Groups of tables are counted together. Each table draws all its copies
    from its stream in one call; a pass then gathers a block of consecutive
    copy slots of every row of the group (+inf for rows with fewer copies,
    which lies below no edge) and compares them with every edge of the
    group at once, taken as the group's running sums [edge, row].
    """
    tables, settings, count = below.shape
    width, total = int(copies.max(initial=0)), int(copies.sum())
    if width == 0:
        below[...] = 0
        return
    size, step = _block_shape(tables, settings, width, count)
    # slot j of setting s reads draw starts[s] + j of its table, or the +inf
    # past the table's draws; the group's table t starts offsets[t] into the
    # flattened draws
    slots = np.arange(width)[:, None]
    starts = np.cumsum(copies) - copies
    columns = np.where(slots < copies, starts + slots, total)
    offsets = (total + 1) * np.arange(size)[:, None]
    draws = np.empty((size, total + 1))
    draws[:, total] = np.inf
    # no count exceeds the width, so the narrowest type that holds it will do
    tally = np.min_scalar_type(width)
    for start in range(0, tables, size):
        stop = min(start + size, tables)
        rows = (stop - start) * settings
        for row, rng in zip(draws, rngs[start:stop]):
            rng.random(out=row[:total])
        # edges [edge, row] against blocks [slot, 1, row]
        group = _running_sums(probs[start:stop, :, :-1]).reshape(count, rows)
        counted = np.zeros(group.shape, dtype=tally)
        for lo in range(0, width, step):
            cells = columns[lo:lo + step, None] + offsets[:stop - start]
            block = draws.take(cells).reshape(-1, 1, rows)
            counted += np.less(block, group).view(np.uint8).sum(axis=0, dtype=tally)
        below[start:stop] = counted.T.reshape(stop - start, settings, count)


def _below_chunked(probs, copies, rngs, below) -> None:
    """Copies below each edge of a run of tables, written into ``below``,
    one table and setting at a time in fixed-size chunks."""
    below[...] = 0
    size = min(CHUNK, int(copies.max()))
    variates = np.empty(size)
    mask = np.empty(size, dtype=bool)
    copies = copies.tolist()
    for table, rng, counted in zip(probs, rngs, below):
        edges = _running_sums(table[:, :-1])
        for row, count in enumerate(copies):
            while count > 0:
                step = min(count, size)
                chunk, hits = variates[:step], mask[:step]
                rng.random(out=chunk)
                for col, edge in enumerate(edges[:, row].tolist()):
                    np.less(chunk, edge, out=hits)
                    counted[row, col] += np.count_nonzero(hits)
                count -= step


def sample_count_tables(probs, copies, rngs) -> np.ndarray:
    """Outcome counts for every row of stacked, validated probability tables.

    ``probs`` holds tables [table, setting, outcome] as returned by
    check_outcome_table, ``copies`` the copies of each row [table, setting],
    or of each setting [setting] alike in every table, and ``rngs`` one
    random stream per table. Row i of a table draws copies[i] variates from
    the table's stream after those of the rows before it, and its counts
    equal the per-copy inverse-CDF lookup of those variates, so any split of
    the rows or tables into calls gives the same counts from the same
    streams. Consecutive tables that split their copies alike are counted
    together, into their rows of the returned array's edge columns: with
    few copies per row in blocks of copy slots across the tables, with many
    row by row in fixed-size chunks. A stack of zero tables gives zero rows.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if np.asarray(copies).dtype.kind not in "iu":   # a cast would count 2.5 copies as 2
        raise ParameterError("copy counts must be integers")
    copies = np.asarray(copies, dtype=np.int64)
    if probs.ndim != 3 or copies.shape not in (probs.shape[1:2], probs.shape[:2]):
        raise ParameterError("need one copy count per table row")
    if len(rngs) != probs.shape[0]:
        raise ParameterError("need one random stream per table")
    if np.any(copies < 0):
        raise ParameterError("copy count must be nonnegative")
    copies = np.broadcast_to(copies, probs.shape[:2])
    # the last edge, +inf, is left out: every copy lies below it. Each run
    # counts into its own rows of the edge columns; a run starts wherever a
    # table splits its copies unlike the one before (copies are nonnegative,
    # so the first table always starts one)
    counts = np.empty(probs.shape, dtype=np.int64)
    counts[..., -1] = copies
    starts = np.flatnonzero(np.diff(copies, axis=0, prepend=-1).any(axis=1)).tolist()
    for start, stop in zip(starts, [*starts[1:], len(copies)]):
        layout = _below_chunked if copies[start].max(initial=0) > BATCH_COPIES else _below_blocks
        layout(probs[start:stop], copies[start], rngs[start:stop], counts[start:stop, :, :-1])
    # outcome j holds the copies below edge j and not below edge j - 1; the
    # overlapping operands make NumPy subtract a copy of the edge columns
    counts[..., 1:] -= counts[..., :-1]
    return counts
