"""Finite-copy outcome sampling.

Every copy is one uniform variate looked up in its setting's cumulative
distribution: the copy lands on the first outcome whose cumulative edge lies
above the variate. Counts are taken per edge rather than per copy, so the
number of copies below each edge is one vectorized comparison, and the
difference of neighbouring edges gives the outcome counts. The variates are
drawn in setting order, so a table of settings consumes the same stream as
drawing each setting's copies in turn. Tables may be stacked, one random
stream each, and counted together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PhysicsError

PROB_SUM_ATOL = 1e-12
PROB_NEG_ATOL = -1e-12
# Settings with at most this many copies are counted together from one draw.
# Counting setting by setting costs one NumPy call per edge and setting, which
# dominates at few copies; counting all settings at once pays for padding
# every setting to the largest. The two cost the same at about 2,000 copies
# per setting (17 and 3 outcomes, NumPy 2.4, x86-64).
BATCH_COPIES = 1024
# Variates per draw (and copy-edge comparisons per batch). Scratch memory is
# bounded by this, whatever the copy budget.
CHUNK = 1 << 16


def check_outcome_table(probs) -> np.ndarray:
    """Validate rows of outcome probabilities; returns them clamped at zero.

    Every entry must be finite and no lower than -1e-12 (rounding-scale
    negatives are clamped to zero), and every row must sum to one. Tables
    may be stacked along leading axes.
    """
    probs = np.array(probs, dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(probs)):
        raise PhysicsError("outcome probabilities must be finite")
    low = float(probs.min())
    if low < PROB_NEG_ATOL:
        raise PhysicsError(f"negative outcome probability: {low!r}")
    np.clip(probs, 0.0, None, out=probs)
    totals = probs.sum(axis=-1).ravel()
    worst = int(np.argmax(np.abs(totals - 1.0)))
    if abs(totals[worst] - 1.0) > PROB_SUM_ATOL:
        raise PhysicsError(f"outcome probabilities sum to {float(totals[worst])!r}, not 1")
    return probs


def outcome_table(success) -> np.ndarray:
    """Append the failure outcome to rows of postselected probabilities.

    The failure column is 1 minus the row's sequential sum; the table is
    validated by check_outcome_table.
    """
    success = np.asarray(success, dtype=np.float64)
    fail = 1.0 - np.cumsum(success, axis=-1)[..., -1:]
    return check_outcome_table(np.concatenate((success, fail), axis=-1))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome labels and probabilities for one measurement setting."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if len(self.labels) != probs.shape[0]:
            raise ParameterError("labels and probabilities must align")
        if probs.shape[0] == 0:
            raise ParameterError("distribution needs at least one outcome")
        probs = check_outcome_table(probs)[0]
        probs.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "probs", probs)

    def cdf(self) -> np.ndarray:
        # An infinite last edge keeps every variate inside the table even
        # when rounding leaves the cumulative sum marginally below 1.
        edges = np.cumsum(self.probs)
        edges[-1] = np.inf
        return edges


def _below_batched(edges, copies, rngs) -> np.ndarray:
    """Copies below each edge of stacked tables, for settings with few copies each.

    The rows of all tables, one after another, are counted in groups: each
    setting's variates fill one row of a block padded with +inf, which lies
    below no edge, and each table's rows of a group take one draw from that
    table's stream.
    """
    tables, settings = edges.shape[:2]
    edges = edges.reshape(tables * settings, -1)
    copies = np.tile(copies, tables)
    rows, width = copies.shape[0], int(copies.max())
    per_group = max(1, CHUNK // (width * max(edges.shape[1], 1)))
    below = np.empty(edges.shape, dtype=np.int64)
    for start in range(0, rows, per_group):
        stop = min(start + per_group, rows)
        group = copies[start:stop]
        # the group's rows split where one table ends and the next begins
        cuts = [start, *range(start - start % settings + settings, stop, settings), stop]
        variates = [rngs[lo // settings].random(int(copies[lo:hi].sum()))
                    for lo, hi in zip(cuts, cuts[1:])]
        block = np.full((stop - start, 1, width), np.inf)
        block[np.arange(width) < group[:, None, None]] = np.concatenate(variates)
        below[start:stop] = np.count_nonzero(block < edges[start:stop, :, None], axis=2)
    return below.reshape(tables, settings, -1)


def _below_chunked(edges, copies, rng) -> np.ndarray:
    """Copies below each edge, one setting at a time in fixed-size chunks."""
    below = np.zeros(edges.shape, dtype=np.int64)
    size = min(CHUNK, int(copies.max()))
    variates = np.empty(size)
    mask = np.empty(size, dtype=bool)
    for row, count in enumerate(copies.tolist()):
        while count > 0:
            step = min(count, size)
            chunk, hits = variates[:step], mask[:step]
            rng.random(out=chunk)
            for col, edge in enumerate(edges[row].tolist()):
                np.less(chunk, edge, out=hits)
                below[row, col] += np.count_nonzero(hits)
            count -= step
    return below


def sample_count_tables(probs, copies, rngs) -> np.ndarray:
    """Outcome counts for every row of stacked, validated probability tables.

    ``probs`` holds tables [table, setting, outcome] as returned by
    check_outcome_table, ``copies`` the copies of each setting, the same in
    every table, and ``rngs`` one random stream per table. Row i of a table
    draws copies[i] variates from the table's stream after those of the rows
    before it, and its counts equal the per-copy inverse-CDF lookup of those
    variates, so any split of the rows or tables into calls gives the same
    counts from the same streams. Few copies per row are counted from shared
    draws for all tables; many copies row by row in fixed-size chunks.
    """
    probs = np.asarray(probs, dtype=np.float64)
    copies = np.asarray(copies, dtype=np.int64)
    if probs.ndim != 3 or copies.shape != probs.shape[1:2]:
        raise ParameterError("need one copy count per table row")
    if len(rngs) != probs.shape[0]:
        raise ParameterError("need one random stream per table")
    if np.any(copies < 0):
        raise ParameterError("copy count must be nonnegative")
    below = _copies_below(probs, copies, rngs)
    # outcome j holds the copies below edge j and not below edge j - 1
    counts = np.empty(probs.shape, dtype=np.int64)
    counts[..., :-1] = below
    counts[..., -1] = copies
    counts[..., 1:] -= below
    return counts


def _copies_below(probs, copies, rngs) -> np.ndarray:
    """Copies below each cumulative edge but the last, [table, setting, edge]."""
    # the last edge is +inf: every remaining copy lands on the last outcome
    edges = np.cumsum(probs[..., :-1], axis=-1)
    if not copies.any():
        return np.zeros(edges.shape, dtype=np.int64)
    if copies.max() <= BATCH_COPIES:
        return _below_batched(edges, copies, rngs)
    return np.array([_below_chunked(table, copies, rng)
                     for table, rng in zip(edges, rngs)])


def sample_count_table(probs, copies, rng) -> np.ndarray:
    """sample_count_tables for one table [setting, outcome] and its stream."""
    return sample_count_tables(np.asarray(probs)[None], copies, [rng])[0]


def sample_counts(dist: OutcomeDistribution, count: int, rng) -> np.ndarray:
    """Multinomial outcome counts for ``count`` copies, one variate per copy."""
    return sample_count_table(dist.probs[None, :], [count], rng)[0]
