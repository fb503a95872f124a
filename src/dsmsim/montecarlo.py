"""Finite-copy Monte Carlo simulation of the measurement protocols.

One repetition draws fresh SPAM noise, splits the copy budget equally over
the measurement settings, samples outcome counts per setting, turns
frequencies into probability estimates, and reconstructs the state. Copies
whose postselection fails still consume budget: every prepared copy counts.

Settings follow the scan-free structure of each protocol:

    pure C1   - d x 3   (interaction index n, probe basis); only the
                conjugate postselection is kept, failures are an outcome
    pure C2   - 3       (probe basis; all postselected |n> kept)
    mixed C1  - d x 3   (interaction n, basis; all conjugate k kept)
    mixed C2  - d x 3   (interaction k, basis; all postselected |n> kept)

Every repetition owns a random stream derived from (seed entropy,
repetition index), so results are independent of worker count and
reductions happen in repetition order.

Repetitions run in batches. Consecutive grid points that share mode,
configuration, dimension and copy budget pool their repetitions, in order,
and the pool is cut into batches of a bounded size, so a sweep of many
points with few repetitions each runs as a few large batches; worker
processes take whole batches. Each repetition draws its noise and its
uniforms from its own stream, in the order of a lone repetition, and takes
its noise levels and states from its own point; every other stage runs
once per batch on arrays with a leading repetition axis, in forms that
round each repetition exactly as a lone one does, so no distance depends
on how repetitions are batched. A batch that raises is replayed one
repetition at a time, so the error is the one a lone repetition loop meets
first, and the points before it keep their results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat

import numpy as np

from .errors import ParameterError
from .metrics import trace_distance_pure, trace_distances
from .mixed_protocol import (
    conditional_tables,
    lambda_tables,
    pauli_from_conditionals,
    physicalize_tables,
    raw_reconstruction,
)
from .noise import perturb_pure_state, sample_kappas, white_noise_channel
from .pure_protocol import _check_config, pauli_table, reconstruct_pure
from .sampling import outcome_table, sample_count_tables
from .states import (
    DensityMatrix,
    PureState,
    check_density_matrices,
    conjugate_coefficients,
    make_conjugate_state,
)

STATE_KINDS = ("pure", "mixed")
# A batch of repetitions holds at most this many outcome probabilities (and
# as many entries of each per-cell table), whatever the dimension: 80
# repetitions at d = 8. A batch keeps about four such tables alive at once,
# 1 MB at this size; twice the size ran the fig4 sweep no faster and took
# 5% more peak memory than batches of one grid point.
BATCH_CELLS = 1 << 15
# Distinct targets and prepared states kept per process; a sweep needs one
# per state and epsilon value.
INVARIANTS = 64


def _split_copies(total: int, parts: int) -> np.ndarray:
    """Equal split, remainder to the lowest-indexed parts."""
    if total < 1:
        raise ParameterError("copy budget must be positive")
    if parts < 1:
        raise ParameterError("no settings to allocate to")
    base, extra = divmod(total, parts)
    copies = np.full(parts, base, dtype=np.int64)
    copies[:extra] += 1
    return copies


# One repetition works on two layouts of the same numbers. A Pauli table
# holds (p0, p1, p+, p-, pL, pR) for every cell (n, k) along its last axis;
# pure states have a single k. An outcome table has one row per setting,
# ordered by the index the setting fixes (n in C1, k in C2) and then by
# probe basis Z, X, Y, and one column per outcome of that setting:
# (branch, probe eigenvalue) pairs, branches running over the index the
# setting does not fix, then the failed postselection last. Both may stack
# repetitions along leading axes.


def _transpose_cells(cells: np.ndarray, axes: tuple) -> np.ndarray:
    """Permute the last four axes of ``cells``; leading axes stay in front."""
    lead = cells.ndim - 4
    return cells.transpose(tuple(range(lead)) + tuple(lead + axis for axis in axes))


def _setting_rows(pauli: np.ndarray, config: str) -> np.ndarray:
    """Pauli table [n, k, 6] -> rows (fixed index, basis), columns (branch, pair)."""
    *lead, d, branches, _ = pauli.shape
    cells = pauli.reshape(*lead, d, branches, 3, 2)
    rows = _transpose_cells(cells, (0, 2, 1, 3) if config == "C1" else (1, 2, 0, 3))
    return rows.reshape(*lead, rows.shape[-4] * 3, -1)


def _pauli_cells(rows: np.ndarray, config: str, d: int) -> np.ndarray:
    """Inverse of _setting_rows for the postselected columns."""
    *lead, settings, columns = rows.shape
    cells = rows.reshape(*lead, settings // 3, 3, columns // 2, 2)
    cells = _transpose_cells(cells, (0, 2, 1, 3) if config == "C1" else (2, 0, 1, 3))
    return cells.reshape(*lead, d, -1, 6)


def _frequencies(counts: np.ndarray, copies: np.ndarray, config: str, d: int) -> np.ndarray:
    """Pauli table of estimates count / copies; settings without copies read 0."""
    freq = np.zeros(counts[..., :-1].shape)
    copies = np.asarray(copies)[:, None]
    np.divide(counts[..., :-1], copies, out=freq, where=copies > 0)
    return _pauli_cells(freq, config, d)


@dataclass(frozen=True)
class ExperimentPoint:
    """One grid point of a sweep: fixed state, noise, budget, and seed."""

    mode: str
    config: str
    state: PureState
    num_copies: int
    repetitions: int
    seed_entropy: tuple
    sigma_prep: float = 0.0
    sigma_post: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.mode not in STATE_KINDS:
            raise ParameterError(f"mode must be one of {STATE_KINDS}")
        _check_config(self.config)
        if self.repetitions < 1:
            raise ParameterError("need at least one repetition")
        if self.num_copies < 1:
            raise ParameterError("copy budget must be positive")
        if not (self.sigma_prep >= 0.0 and self.sigma_post >= 0.0):
            raise ParameterError("sigma must be nonnegative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParameterError("epsilon must lie in [0, 1]")
        # each mode has one preparation noise; the other one would be ignored
        if self.mode == "mixed" and self.sigma_prep != 0.0:
            raise ParameterError("mixed-mode preparation noise is epsilon; "
                                 "sigma_prep applies to pure mode only")
        if self.mode == "pure" and self.epsilon != 0.0:
            raise ParameterError("epsilon applies to mixed mode only")

    # Mixed-state invariants of the grid point. They depend only on the
    # state and epsilon, so they are built and validated once per process
    # for each distinct value (_target, _prepared), not once per point.
    @property
    def projector(self) -> DensityMatrix:
        """Target state |psi><psi|."""
        return _target(self.state.amps.tobytes())

    @property
    def prepared(self) -> DensityMatrix:
        """Prepared mixed state: the target through the white-noise channel."""
        return _prepared(self.state.amps.tobytes(), float(self.epsilon).hex())


# Keyed on values, not on objects: points unpickled in a worker carry fresh
# states, and an id may be reused once its object is gone. Epsilon is keyed
# by its bits, as 0.0 and -0.0 compare equal.
@lru_cache(maxsize=INVARIANTS)
def _target(amps: bytes) -> DensityMatrix:
    return PureState(np.frombuffer(amps, dtype=np.complex128)).projector()


@lru_cache(maxsize=INVARIANTS)
def _prepared(amps: bytes, epsilon: str) -> DensityMatrix:
    return white_noise_channel(_target(amps), float.fromhex(epsilon))


@dataclass(frozen=True)
class RunResult:
    distances: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.distances))

    @property
    def std_error(self) -> float:
        if self.distances.shape[0] < 2:
            return 0.0
        return float(np.std(self.distances, ddof=1) / np.sqrt(self.distances.shape[0]))


def _repetition_rng(point: ExperimentPoint, rep: int):
    seq = np.random.SeedSequence(tuple(point.seed_entropy) + (rep,))
    return np.random.default_rng(seq)


def _batch_key(point: ExperimentPoint) -> tuple:
    """Points with equal keys can share a batch: their outcome tables align."""
    return point.mode, point.config, point.state.dim, point.num_copies


def _owners(batch) -> list:
    """The point of each repetition of a batch, in order."""
    return [point for point, start, stop in batch for _ in range(start, stop)]


def _per_repetition(batch, values) -> np.ndarray:
    """Stack one value per slice of a batch into one entry per repetition."""
    return np.repeat(np.array(values), [stop - start for _, start, stop in batch], axis=0)


def _noisy_pauli(batch, rngs) -> np.ndarray:
    """Pauli tables [rep, n, k, 6] of a batch, one per repetition.

    Each repetition draws its noise from its own stream in ``rngs`` at the
    noise levels of its own point.
    """
    mode, config, d, _ = _batch_key(batch[0][0])
    if mode == "pure":
        tables = []
        for point, rng in zip(_owners(batch), rngs):
            psi_prime, _ = perturb_pure_state(point.state, point.sigma_prep, rng)
            conj = make_conjugate_state(d, 0, sample_kappas(d, point.sigma_post, rng))
            tables.append(pauli_table(psi_prime, conj, config)[:, None, :])
        return np.array(tables)
    kappas = [sample_kappas(d, point.sigma_post, rng)
              for point, rng in zip(_owners(batch), rngs)]
    coeffs = conjugate_coefficients(d, np.array(kappas))
    prepared = _per_repetition(batch, [point.prepared.elems for point, _, _ in batch])
    return pauli_from_conditionals(*conditional_tables(prepared, coeffs, config))


def _batch(batch):
    """The repetitions of a batch together: (distances, reconstructions).

    ``batch`` lists (point, start, stop) slices, repetitions start..stop-1
    of each point, all points sharing one _batch_key. Every repetition is
    one outcome table: every setting's probabilities, counts drawn for all
    settings, and estimates read back from the counts. The tables of the
    batch are stacked and go through each stage together; each repetition
    takes its noise levels, prepared state and target from its own point.
    The pure path builds its tables and reconstructions one repetition at a
    time: its scalar probe arithmetic and its norms and inner products have
    no array form that rounds the same. Reconstructions come back as
    amplitude vectors (pure) or density matrices (mixed), all validated.
    """
    mode, config, d, num_copies = _batch_key(batch[0][0])
    rngs = [_repetition_rng(point, rep)
            for point, start, stop in batch for rep in range(start, stop)]
    # Each stage's stacked tables are dropped once the next stage has read
    # them, which bounds the memory a batch holds at once.
    probs = outcome_table(_setting_rows(_noisy_pauli(batch, rngs), config))
    copies = _split_copies(num_copies, probs.shape[1])
    counts = sample_count_tables(probs, copies, rngs)
    del probs
    estimates = _frequencies(counts, copies, config, d)
    del counts
    if mode == "pure":
        recons = [reconstruct_pure(table[:, 0, :], config=config) for table in estimates]
        distances = [trace_distance_pure(point.state, recon)
                     for point, recon in zip(_owners(batch), recons)]
        return np.array(distances), np.array([recon.amps for recon in recons])
    recons = physicalize_tables(raw_reconstruction(*lambda_tables(estimates, config), config))
    check_density_matrices(recons)
    targets = _per_repetition(batch, [point.projector.elems for point, _, _ in batch])
    return trace_distances(targets, recons), recons


def run_single_repetition(point: ExperimentPoint, rep: int):
    """One noise draw, one sampled data set, one reconstruction.

    Returns (trace distance to the true state, reconstructed state): a batch
    of one repetition.
    """
    distances, recons = _batch([(point, rep, rep + 1)])
    state = PureState if point.mode == "pure" else DensityMatrix
    return float(distances[0]), state(recons[0])


def _distances(batch) -> tuple:
    """Distances of a batch's repetitions; the task sent to a worker.

    Returns (distances, None), or, when a repetition raises, the distances
    of the repetitions before it and its exception: returning the error
    keeps the results of the points that precede it in the batch.
    """
    try:
        return _batch(batch)[0].tolist(), None
    except Exception:
        # Any failure, whatever its type: replaying the batch one repetition
        # at a time finds the error a lone repetition loop meets first.
        distances = []
        for point, start, stop in batch:
            for rep in range(start, stop):
                try:
                    distances += _batch([(point, rep, rep + 1)])[0].tolist()
                except Exception as exc:
                    return distances, exc
        return distances, None


def _fill(slices, sizes):
    """Regroup (point, start, stop) slices, in order, into batches.

    Batch i holds the next ``sizes[i]`` repetitions; ``sizes`` is an
    iterator that covers every repetition. Each batch is yielded as soon as
    it is full, so the slices are read no further ahead than that.
    """
    batch, room = [], next(sizes)
    for point, start, stop in slices:
        while start < stop:
            end = min(stop, start + room)
            batch.append((point, start, end))
            room -= end - start
            start = end
            if room == 0:
                yield batch
                batch, room = [], next(sizes, 0)
    if batch:
        yield batch


def _batches(points):
    """Batches of the points' repetitions, reading the points lazily.

    Consecutive points with one _batch_key form one run of repetitions, in
    order, cut into batches of at most BATCH_CELLS outcome probabilities;
    a point may span batches. The points are read at most one batch ahead.
    """
    for (_, _, d, _), run in groupby(points, key=_batch_key):
        # the largest outcome table: 3d settings of 2d + 1 outcomes (mixed)
        size = max(1, BATCH_CELLS // (3 * d * (2 * d + 1)))
        yield from _fill(((point, 0, point.repetitions) for point in run), repeat(size))


def _cut(batch, parts: int) -> list:
    """Split a batch into ``parts`` contiguous, near-equal batches."""
    total = sum(stop - start for _, start, stop in batch)
    return list(_fill(batch, iter(_split_copies(total, min(parts, total)).tolist())))


def run_points(points, threads: int = 1, executor=None):
    """Yield the RunResult of every grid point, in order.

    Consecutive points with the same mode, configuration, dimension and
    copy budget share batches (_batches), so a sweep of points with few
    repetitions each runs as few large array passes. Without an executor
    the batches run one after another in this process, reading the points
    one batch ahead. With one, all batches are submitted at once, cut
    further when there are fewer batches than ``threads``, so workers never
    wait at a grid-point boundary. Each point is yielded once its own
    repetitions are back, and a failing repetition raises when its point is
    reached. Distances are reassembled in repetition order, so neither the
    worker count nor the batching changes a result.
    """
    if threads < 1:
        raise ParameterError("threads must be positive")
    if executor is None:
        done = ((batch, _distances(batch)) for batch in _batches(points))
    else:
        batches = list(_batches(points))
        if 0 < len(batches) < threads:
            parts = -(-threads // len(batches))
            batches = [run for batch in batches for run in _cut(batch, parts)]
        futures = [executor.submit(_distances, batch) for batch in batches]
        done = ((batch, future.result()) for batch, future in zip(batches, futures))
    distances = []                          # of the point being assembled
    for batch, (values, error) in done:
        position = 0
        for point, start, stop in batch:
            taken = values[position:position + stop - start]
            position += stop - start
            distances += taken
            if len(taken) < stop - start:
                raise error
            if stop == point.repetitions:
                yield RunResult(distances=np.array(distances))
                distances = []


def run_repetitions(point: ExperimentPoint, threads: int = 1) -> RunResult:
    """All repetitions of one grid point, reduced in repetition order.

    Workers are separate processes (the repetition loop is Python-bound, so
    threads would serialize on the interpreter lock), each taking
    contiguous batches of the repetitions; every repetition owns its
    seed-derived stream, so the worker count never changes the result.
    """
    if threads > 1 and point.repetitions > 1:
        with ProcessPoolExecutor(max_workers=min(threads, point.repetitions)) as pool:
            return next(run_points([point], threads, executor=pool))
    return next(run_points([point], threads))
