"""Finite-copy Monte Carlo simulation of the measurement protocols.

One repetition draws fresh SPAM noise, splits the copy budget equally over
the measurement settings, samples outcome counts per setting, turns
frequencies into probability estimates, and reconstructs the state. Copies
whose postselection fails still consume budget: every copy counts.

Settings follow the scan-free structure of each protocol:

    pure C1   - d x 3   (interaction index n, probe basis); only the
                conjugate postselection is kept, failures are an outcome
    pure C2   - 3       (probe basis; all postselected |n> kept)
    mixed C1  - d x 3   (interaction n, basis; all conjugate k kept)
    mixed C2  - d x 3   (interaction k, basis; all postselected |n> kept)

Every repetition owns a random stream: repetition ``rep`` of a point draws
from PCG64 seeded by ``SeedSequence(seed_entropy + (rep,))``, so
``np.random.default_rng(np.random.SeedSequence(seed_entropy + (rep,)))``
reproduces it outside dsmsim. The seeds of a batch's repetitions are
derived together, in one pass over arrays (_seed_state). Results are
independent of worker count, and reductions happen in repetition order.

Repetitions run in batches. Consecutive grid points that share mode,
configuration and dimension pool their repetitions, in order, and the pool
is cut into batches of a bounded size and of at most each worker's share
of the sweep's repetitions, so a sweep of many points with few repetitions
each runs as a few large batches; workers take whole batches.
Each repetition draws its noise and its uniforms from its own stream, in
the order of a lone repetition, and takes its noise levels, states and
copy budget from its own point; every other stage runs once per batch on
arrays with a leading repetition axis, in forms that round each
repetition exactly as a lone one does, so no distance depends on how
repetitions are batched. A batch that raises is replayed one repetition at
a time, so the error is the one a lone repetition loop meets first, and
the points before it keep their results.

On one worker the batches run in this process, and multiprocessing is
never imported. On more, this process is one of the workers: it and
workers - 1 helper processes each claim the next batch from one shared
counter, and the helpers send their distances back over pipes (_shared).
Every worker, this process included, runs OpenBLAS on one thread while it
runs batches: the workers already share out the CPUs, and at d >= 48
two-threaded BLAS in each of two workers made the sweep several times
slower than one worker.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError
from .metrics import trace_distances, trace_distances_pure
from .mixed_protocol import (
    conditional_tables,
    pauli_from_conditionals,
    physicalize_tables,
    raw_reconstruction,
)
from .noise import perturb_amplitudes, sample_kappas, white_noise_matrices
from .pure_protocol import _check_config, lambda_tables, pauli_table, reconstruct_amplitudes
from .sampling import outcome_table, sample_count_tables
from .states import PureState, check_density_matrices, port_weights

MODES = ("pure", "mixed")
# A batch of repetitions holds at most this many outcome probabilities (and
# as many entries of each per-cell table), whatever the dimension: 80
# repetitions at d = 8. A batch keeps about four such tables alive at once,
# 1 MB at this size; twice the size ran the fig4 sweep no faster and took
# 5% more peak memory than batches of one grid point.
BATCH_CELLS = 1 << 15


def _split_copies(total, parts: int) -> np.ndarray:
    """Equal split of ``total`` over ``parts``, remainder to the
    lowest-indexed parts; an array of totals splits along a new last axis."""
    total = np.asarray(total, dtype=np.int64)
    if np.any(total < 1):
        raise ParameterError("copy budget must be positive")
    if parts < 1:
        raise ParameterError("no settings to allocate to")
    base, extra = np.divmod(total[..., None], parts)
    return base + (np.arange(parts) < extra)


# Every stage of a batch works on one layout, the outcome table [rep,
# setting, outcome]: settings by the index they fix (n in C1, k in C2), then
# probe basis Z, X, Y; outcomes (branch, probe eigenvalue) over the other
# index, then the failed postselection. The probabilities are written and
# the estimates read through a view of it as Pauli cells (_cells).


def _cells(table: np.ndarray, config: str) -> np.ndarray:
    """The Pauli cells [rep, n, k, basis, eigenvalue] of outcome tables, a view."""
    reps, settings, outcomes = table.shape
    cells = table[..., :-1].reshape(reps, settings // 3, 3, outcomes // 2, 2)
    return cells.transpose((0, 1, 3, 2, 4) if config == "C1" else (0, 3, 1, 2, 4))


def _outcome_tables(tables, config: str) -> np.ndarray:
    """Validated outcome tables [rep, setting, outcome] of Pauli cells [rep,
    n, 3, 2] (pure, k = 0) or of conditional tables (m00, m01, m11) [rep, n, k]."""
    pure = isinstance(tables, np.ndarray)
    reps, d, k = (*tables.shape[:2], 1) if pure else tables[0].shape
    fixed, branches = (d, k) if config == "C1" else (k, d)
    table = np.empty((reps, 3 * fixed, 2 * branches + 1))
    if pure:
        _cells(table, config)[:, :, 0] = tables
    else:
        pauli_from_conditionals(*tables, out=_cells(table, config))
    return outcome_table(table)


def _frequencies(counts: np.ndarray, copies: np.ndarray, config: str) -> np.ndarray:
    """Pauli cells of count / copies, copies [rep, setting] or [setting]; a
    setting without copies counts 0, so reads 0."""
    return _cells(counts / np.maximum(copies, 1)[..., None], config)


def _is_count(value) -> bool:
    # a bool would pass as 1 repetition and a float copy budget fails only
    # when copies are split
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentPoint:
    """One grid point of a sweep: fixed state, noise, budget, and seed.

    Mixed mode derives its matrices per batch from ``state`` and
    ``epsilon``: the target |psi><psi| and the state it measures,
    rho' = (1 - epsilon) |psi><psi| + epsilon I / d.
    """

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
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}")
        _check_config(self.config)
        if not isinstance(self.state, PureState):
            raise ParameterError("state must be a PureState")
        if not (_is_count(self.repetitions) and self.repetitions >= 1):
            raise ParameterError("repetitions must be a positive integer")
        # the sampler counts copies in int64
        if not (_is_count(self.num_copies) and 1 <= self.num_copies <= np.iinfo(np.int64).max):
            raise ParameterError("copy budget must be a positive integer below 2**63")
        # what SeedSequence accepts as integer entropy, bools included; a
        # negative value or a float would break the split into 32-bit words
        if not (isinstance(self.seed_entropy, tuple) and all(
                isinstance(value, (int, np.integer)) and value >= 0
                for value in self.seed_entropy)):
            raise ParameterError("seed_entropy must be a tuple of nonnegative integers")
        if not all(_is_count(level) or isinstance(level, (float, np.floating))
                   for level in (self.sigma_prep, self.sigma_post, self.epsilon)):
            raise ParameterError("noise levels must be real numbers")
        if not (0.0 <= self.sigma_prep < np.inf and 0.0 <= self.sigma_post < np.inf):
            raise ParameterError("sigma must be finite and nonnegative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ParameterError("epsilon must lie in [0, 1]")
        # each mode has one preparation noise; the other one would be ignored
        if self.mode == "mixed" and self.sigma_prep != 0.0:
            raise ParameterError("mixed-mode preparation noise is epsilon; "
                                 "sigma_prep applies to pure mode only")
        if self.mode == "pure" and self.epsilon != 0.0:
            raise ParameterError("epsilon applies to mixed mode only")


@dataclass(frozen=True)
class RunResult:
    """Distances of a grid point's repetitions, in repetition order.

    mean and std_error run the arithmetic of np.mean and np.std(ddof=1)
    with bare ufuncs, which skips their wrappers and rounds the same.
    """

    distances: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.add.reduce(self.distances) / self.distances.shape[0])

    @property
    def std_error(self) -> float:
        n = self.distances.shape[0]
        if n < 2:
            return 0.0
        dev = self.distances - self.mean
        return float(np.sqrt(np.add.reduce(dev * dev) / (n - 1)) / np.sqrt(n))


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# NEP 19 freezes. Its arithmetic wraps at 32 bits; it runs here on uint32
# arrays only, as scalar uint32 arithmetic warns on overflow.
_POOL = 4                                   # SeedSequence's default pool size
_MASK = 0xFFFFFFFF
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k for k < count, wrapped to 32 bits: the hash's multipliers."""
    values = [init]
    while len(values) < count:
        values.append(values[-1] * mult & _MASK)
    return np.array(values, dtype=np.uint32)


# generate_state(4, uint64) hashes 8 words: 9 multipliers
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _hashmix(values: np.ndarray, constants: np.ndarray, call: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix, calls call..call+count-1 of a run as rows."""
    ends = constants[call:call + count + 1, None]
    value = (values ^ ends[:-1]) * ends[1:]
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words with hashed words."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> _SHIFT


def _words(value) -> list:
    """A nonnegative integer as SeedSequence splits it: 32-bit words, low first."""
    value = int(value)
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


class _SeedWords(ISeedSequence):
    """Hands PCG64 the state words already derived for its repetition.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) once.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_state(slices) -> np.ndarray:
    """SeedSequence(entropy + (rep,)).generate_state(4, uint64) of every rep
    in start..stop-1 (below 2**64) of every (entropy, start, stop) slice.

    Entropy is split into words once per slice, indices by array arithmetic;
    SeedSequence's hash runs on rows of words, one column per repetition.
    """
    sizes = [stop - start for _, start, stop in slices]
    prefixes = [[w for value in entropy for w in _words(value)] for entropy, *_ in slices]
    reps = np.concatenate([np.arange(*bounds, dtype=np.uint64) for _, *bounds in slices])
    heads = np.repeat([len(prefix) for prefix in prefixes], sizes)
    lengths = heads + 1 + (reps > _MASK)
    width = max(_POOL, int(lengths.max()))
    # a spare last row takes the zero high words of indices below 2**32
    table = np.repeat(np.array([words + [0] * (width + 1 - len(words)) for words in prefixes],
                               dtype=np.uint32).T, sizes, axis=1)
    columns = np.arange(len(reps))
    table[heads, columns] = reps & np.uint64(_MASK)
    table[heads + 1, columns] = reps >> np.uint64(32)
    # mix_entropy: one hashmix per pool word, 12 to mix the pool (three per
    # source word, all of the same word), then 4 per word beyond the pool
    constants = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * width + 1)
    pool = _hashmix(table[:_POOL], constants, 0, _POOL)
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants, _POOL + 3 * src, 3))
    for src in range(_POOL, width):
        mixed = _mix(pool, _hashmix(table[src], constants, _POOL * src, _POOL))
        pool = np.where(lengths > src, mixed, pool)
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_CONSTANTS, 0, 2 * _POOL)
    # word pairs read as little-endian uint64, as generate_state does
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def _streams(batch) -> list:
    """The random stream of every repetition of a batch, in order: PCG64
    seeded by SeedSequence(seed_entropy + (rep,)), all derived at once."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _seed_state([(point.seed_entropy, start, stop)
                                      for point, start, stop in batch])]


def _batch_key(point: ExperimentPoint) -> tuple:
    """Points with equal keys can share a batch: their outcome tables align,
    whatever copy budget each one splits over its settings."""
    return point.mode, point.config, point.state.dim


def _prepared_and_weights(owners, rngs, targets):
    """The noisy inputs of a batch's table builder: (prepared, weights).

    ``owners`` holds each repetition's point, ``targets`` its amplitudes
    (pure) or |psi><psi| (mixed). Each draws from its own stream in ``rngs``,
    at its point's noise levels, the perturbation of its target (pure), then
    its detector bias. ``prepared`` stacks the perturbed amplitudes [rep, d]
    or rho' [rep, d, d] at each point's epsilon, ``weights`` the port weights.
    """
    mode, _, d = _batch_key(owners[0])
    perturbed, kappas = [], []
    for point, rng, target in zip(owners, rngs, targets):
        if mode == "pure":
            perturbed.append(perturb_amplitudes(target, point.sigma_prep, rng)[0])
        kappas.append(sample_kappas(d, point.sigma_post, rng))
    weights = port_weights(d, np.array(kappas))
    if mode == "pure":
        return np.array(perturbed), weights
    return white_noise_matrices(targets, np.array([point.epsilon for point in owners])), weights


def _batch(batch):
    """The repetitions of a batch together: (distances, reconstructions).

    ``batch`` lists (point, start, stop) slices, repetitions start..stop-1
    of each point, all points sharing one _batch_key. Each stage runs once
    on the batch's stacked tables, each repetition with the state, noise
    levels and copy budget of its own point. The targets are derived per
    batch: the stacked amplitudes (pure) or their outer products (mixed),
    which a validated state keeps Hermitian, rank one and of unit trace.
    Reconstructions come back as amplitude vectors (pure) or validated
    density matrices (mixed).
    """
    owners = [point for point, start, stop in batch for _ in range(start, stop)]
    mode, config, _ = _batch_key(owners[0])
    rngs = _streams(batch)
    amps = np.array([point.state.amps for point in owners])
    targets = amps if mode == "pure" else amps[:, :, None] * amps.conj()[:, None, :]
    # Each stage's stacked tables are dropped once the next stage has read
    # them, which bounds the memory a batch holds at once.
    build = pauli_table if mode == "pure" else conditional_tables
    probs = _outcome_tables(build(*_prepared_and_weights(owners, rngs, targets), config), config)
    copies = _split_copies(np.array([point.num_copies for point in owners]), probs.shape[1])
    counts = sample_count_tables(probs, copies, rngs)
    del probs
    estimates = _frequencies(counts, copies, config)
    del counts
    # the probe entries [rep, n, k] of the frequency cells, read in place
    off_diag, diag11 = lambda_tables(estimates, config)
    if mode == "pure":
        recons = reconstruct_amplitudes(off_diag[..., 0], diag11[..., 0])
        return trace_distances_pure(targets, recons), recons
    recons = physicalize_tables(raw_reconstruction(off_diag, diag11, config))
    check_density_matrices(recons)
    return trace_distances(targets, recons), recons


def _distances(batch) -> tuple:
    """Distances of a batch's repetitions; what a worker runs per batch.

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


def _batches(points, share: int) -> list:
    """Batches of the points' repetitions, in order.

    Consecutive points with one _batch_key (the same mode, configuration
    and dimension, whatever their copy budgets) form one run of
    repetitions, packed in order into batches of at most ``share``
    repetitions and at most BATCH_CELLS outcome probabilities; a point may
    span batches.
    """
    batches = []
    for (_, _, d), run in groupby(points, key=_batch_key):
        # the largest outcome table: 3d settings of 2d + 1 outcomes (mixed)
        size = min(share, max(1, BATCH_CELLS // (3 * d * (2 * d + 1))))
        batch, room = [], size
        for point in run:
            start = 0
            while start < point.repetitions:
                end = min(point.repetitions, start + room)
                batch.append((point, start, end))
                room -= end - start
                start = end
                if room == 0:
                    batches.append(batch)
                    batch, room = [], size
        if batch:
            batches.append(batch)
    return batches


def run_points(points, threads: int = 1):
    """Yield the RunResult of every grid point, in order.

    Consecutive points with the same mode, configuration and dimension
    share batches (_batches), so a sweep of points with few repetitions
    each runs as few large array passes. No batch holds more than each
    worker's share of the sweep's repetitions, ceil(total / workers), so a
    sweep of few batches still spreads over the workers. On one worker the
    batches run in this process, one after another; on more, this process
    and helper processes claim them from one shared counter (_shared).
    Each point is yielded once its own repetitions are back, and a failing
    repetition raises when its point is reached. Distances are reassembled
    in repetition order, so neither the worker count nor the batching
    changes a result.
    """
    if not (_is_count(threads) and threads >= 1):
        raise ParameterError("threads must be a positive integer")
    points = list(points)
    total = sum(point.repetitions for point in points)
    # no more workers than repetitions nor usable CPUs: more workers than
    # CPUs only compete for them
    workers = min(threads, total, _usable_cpus())
    batches = _batches(points, -(-total // max(workers, 1)))
    # shares round up, so a sweep may cut into fewer batches than workers
    workers = min(workers, len(batches))
    done = _shared(batches, workers) if workers > 1 else map(_distances, batches)
    try:
        distances = []                      # of the point being assembled
        for batch, (values, error) in zip(batches, done):
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
    finally:
        if workers > 1:
            done.close()


def _shared(batches, workers: int):
    """Yield _distances of every batch, in batch order, run by this process
    and ``workers - 1`` helper processes.

    Each process claims the next batch from one shared counter, so whoever
    is free takes it, and a helper sends (index, distances) over its own
    pipe. A failed batch, or a helper that exits with an error, moves the
    counter past the last batch, so nothing more is claimed; a batch that a
    helper took with it raises when it is reached, naming the helper's exit
    code. Every process runs BLAS on one thread while it runs batches: the
    workers already share out the CPUs, and at d >= 48 two-threaded BLAS in
    each of two workers made the sweep several times slower than one.
    Helpers are forked where an OpenBLAS counter is found, whatever the
    default start method, as only a forked helper shares its address;
    elsewhere the default context starts them. multiprocessing is imported
    here, so a sweep on one worker never loads it. When the generator ends,
    raises or is closed, helpers still alive are terminated and every
    helper is joined.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    count = _blas_thread_count()
    context = multiprocessing.get_context(None if count is None else "fork")
    claims = context.Value("q", 0)          # the next batch to claim
    total = len(batches)
    helpers = {}                            # result pipe -> helper process
    results = {}                            # batch index -> _distances
    failed = 0                              # exit code of a helper that failed
    try:
        _start_helpers(helpers, workers - 1, context, (batches, claims, count))
        for index in range(total):
            while index not in results:
                own = _claim(claims, total)
                if own is None and not helpers:
                    # every helper has exited, one of them with this batch
                    raise RuntimeError(f"a worker process exited with code {failed} "
                                       f"before returning its batch")
                arrived = []
                if own is not None:
                    with _one_blas_thread(count):
                        arrived.append((own, _distances(batches[own])))
                for pipe in wait(list(helpers), timeout=None if own is None else 0):
                    try:
                        arrived.append(pipe.recv())
                    except EOFError:        # the helper has exited
                        helper = helpers.pop(pipe)
                        pipe.close()
                        helper.join()
                        if helper.exitcode:
                            failed = helper.exitcode
                            _claim(claims, total, last=True)
                for got, result in arrived:
                    results[got] = result
                    if result[1] is not None:
                        _claim(claims, total, last=True)
            yield results.pop(index)
    finally:
        for helper in helpers.values():
            if helper.is_alive():
                helper.terminate()
        for pipe, helper in helpers.items():
            helper.join()
            pipe.close()


def _start_helpers(helpers: dict, number: int, context, args: tuple) -> None:
    """Start ``number`` helper processes running _helper(*args, pipe), each
    with the write end of its own one-way pipe, and enter each in
    ``helpers`` under the read end once it runs. This process closes its
    copy of the write end at once: a helper that exits then ends its
    pipe, and no later fork inherits it."""
    for _ in range(number):
        reader, writer = context.Pipe(duplex=False)
        helper = context.Process(target=_helper, args=(*args, writer), daemon=True)
        helper.start()
        helpers[reader] = helper
        writer.close()


def _helper(batches, claims, count, pipe) -> None:
    """A helper process: on one BLAS thread, claim batches from the shared
    counter and send each one's (index, _distances) until none is left."""
    with _one_blas_thread(count):
        while (index := _claim(claims, len(batches))) is not None:
            pipe.send((index, _distances(batches[index])))


def _claim(claims, total: int, last: bool = False):
    """The next batch index from the shared counter, or None once all
    ``total`` are claimed; ``last`` claims all that are left, so none is
    run after a failure."""
    with claims.get_lock():
        index = claims.value
        claims.value = total if last else min(index + 1, total)
    return index if index < total else None


def _blas_thread_count():
    """OpenBLAS's thread count of this process as a ctypes int, or None.

    The counter is found in the OpenBLAS library this process has loaded,
    read from /proc/self/maps; None where there is no /proc, no OpenBLAS
    or no such counter (other BLAS builds).
    """
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split(maxsplit=5)[5].strip() for line in maps
                        if "openblas" in line.rpartition("/")[2].lower())
        return ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")
    except (OSError, ValueError, StopIteration):
        return None


@contextlib.contextmanager
def _one_blas_thread(count):
    """OpenBLAS runs on one thread inside the block, and on its old count after.

    ``count`` is resolved in the calling process, and _shared forks its
    helpers wherever it is found: a forked helper shares its address, so
    the write reaches the helper's BLAS and the caller keeps its own count.
    Calling OpenBLAS's set_num_threads instead would restart its thread
    pool after the fork, whose new thread spins for about 0.1 s.
    """
    if count is None:
        yield
        return
    old, count.value = count.value, 1
    try:
        yield
    finally:
        count.value = old


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_repetitions(point: ExperimentPoint, threads: int = 1) -> RunResult:
    """All repetitions of one grid point, reduced in repetition order.

    A one-point run_points on up to ``threads`` workers: this process and
    helper processes (the repetition loop is Python-bound, so threads would
    serialize on the interpreter lock), each claiming contiguous batches of
    the repetitions and running BLAS on one thread; every repetition owns
    its seed-derived stream, so the worker count never changes the result.
    """
    return next(run_points([point], threads))
