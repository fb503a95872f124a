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
is cut into batches of a bounded size and of at most each worker's share of
the sweep's repetitions, so a sweep of many points with few repetitions each
runs as a few large batches; workers take whole batches. A batch is one pass
over its stages (_batch), and the stages where the modes differ come from
one table, _PROTOCOLS, one entry per mode. Each repetition draws its noise
and its uniforms from its own stream, in the order of a lone repetition, and
takes its state, copy budget and noise levels from its own point, read once
by _batch; every other stage runs once per batch on arrays with a leading
repetition axis, in forms that round each repetition exactly as a lone one
does, so no distance depends on how repetitions are batched. A batch that
raises is replayed one repetition at a time, so the error is the one a lone
repetition loop meets first, and the points before it keep theirs.

On one worker the batches run in this process, and multiprocessing is
never imported. On more, this process is one of the workers: it and
workers - 1 helper processes each claim the next batch from one shared
counter, and the helpers send their distances back over pipes (_shared).
run_points sets every OpenBLAS this process has loaded, SciPy's as well as
NumPy's, to one thread for the whole sweep, before any helper is forked,
so every worker runs BLAS on one thread, on one worker too: the workers
already share out the CPUs, at d >= 48 two-threaded BLAS in each of two
workers made the sweep several times slower than one worker, and a
multi-threaded BLAS rounds large products differently. Every worker also
keeps the heap memory a batch frees for the next one (_keep_freed_memory).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError
from .metrics import trace_distances, trace_distances_pure
from .mixed_protocol import conditional_tables, physicalize_tables, raw_reconstruction
from .noise import perturb_amplitudes, sample_kappas, white_noise_matrices
from .pure_protocol import (
    _check_config,
    lambda_tables,
    pauli_from_conditionals,
    pauli_table,
    reconstruct_amplitudes,
)
from .sampling import outcome_table, sample_count_tables
from .states import PureState, port_weights

# The stages where the modes differ, in the order _batch runs them, each
# once per batch on arrays with a leading repetition axis:
#   targets   stacked amplitudes [rep, d] -> each repetition's target
#   prepare   (targets, levels [rep] of the noise named by prep_noise, rngs)
#             -> the prepared states, each drawn from its repetition's stream
#   branches  d -> k, the conjugate indices of the Pauli cells
#   cells     (prepared, port weights, config, out) writes the Pauli cells
#             [rep, n, k, basis, eigenvalue] into out, a view (_cells)
#   estimate  (lambda_tables' probe entries [rep, n, k], config) -> states
#   distance  (targets, estimates) -> trace distances
_Protocol = namedtuple("_Protocol", "targets prepare prep_noise branches cells estimate distance")
_PROTOCOLS = {
    # amplitude vectors; pauli_table is the k = 0 column of the mixed cells
    "pure": _Protocol(
        targets=lambda amps: amps,
        prepare=lambda targets, levels, rngs: np.array(
            [perturb_amplitudes(*args)[0] for args in zip(targets, levels, rngs)]),
        prep_noise="sigma_prep", branches=lambda d: 1,
        cells=lambda prepared, weights, config, out: np.copyto(
            out[:, :, 0], pauli_table(prepared, weights, config)),
        estimate=lambda off_diag, diag11, config: reconstruct_amplitudes(
            off_diag[..., 0], diag11[..., 0]),
        distance=trace_distances_pure),
    # density matrices: |psi><psi|, and rho' at each repetition's epsilon,
    # with the arithmetic of white_noise_channel
    "mixed": _Protocol(
        targets=lambda amps: amps[:, :, None] * amps.conj()[:, None, :],
        prepare=lambda targets, levels, rngs: white_noise_matrices(targets, levels),
        prep_noise="epsilon", branches=lambda d: d,
        cells=lambda prepared, weights, config, out: pauli_from_conditionals(
            *conditional_tables(prepared, weights, config), out=out),
        estimate=lambda off_diag, diag11, config: physicalize_tables(
            raw_reconstruction(off_diag, diag11, config)),
        distance=trace_distances),
}
MODES = tuple(_PROTOCOLS)
# A batch of repetitions holds at most this many outcome probabilities (and
# as many entries of each per-cell table), whatever the dimension: 80
# repetitions at d = 8. A batch keeps about four such tables alive, 1 MB.
# On fig4 at 4 repetitions (2-vCPU host, freed heap pages kept, 12 alternated
# pairs) this size took 117 ms (quartiles 108-121); twice it 112 ms, faster
# in 9 of 12 pairs but inside that spread, at 0.6 MB more peak; half 124 ms.
# A batch of two or more repetitions holds at most 5,120 entries per stacked
# [rep, d, d] mixed-table product; NumPy 2.4.6 rounds such stacks as lone
# products up to 12,800 entries, not from 16,384 on: 2^16 keeps below, 2^17 not.
BATCH_CELLS = 1 << 15
# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


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
# the estimates read through a view of it as Pauli cells (_cells). Entry:
# the axes of n and k in [rep, setting index, basis, outcome index, eigenvalue].
_CELL_AXES = {"C1": (1, 3), "C2": (3, 1)}


def _cells(table: np.ndarray, config: str) -> np.ndarray:
    """The Pauli cells [rep, n, k, basis, eigenvalue] of outcome tables, a view."""
    reps, settings, outcomes = table.shape
    cells = table[..., :-1].reshape(reps, settings // 3, 3, outcomes // 2, 2)
    return cells.transpose(0, *_CELL_AXES[config], 2, 4)


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
        # a batch reads only the mode's noise_keys and would ignore another level
        for key in ("sigma_prep", "sigma_post", "epsilon"):
            if key not in noise_keys(self.mode) and getattr(self, key) != 0.0:
                raise ParameterError(f"{key} does not apply to {self.mode} mode")


def noise_keys(mode: str) -> tuple:
    """The noise levels a mode's batches read: its protocol's preparation
    noise, and sigma_post, at which every batch draws its detector biases."""
    return _PROTOCOLS[mode].prep_noise, "sigma_post"


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


def _batch(batch):
    """The repetitions of a batch together: (distances, reconstructions).

    ``batch`` lists (point, start, stop) slices, repetitions start..stop-1
    of each point, all points sharing one _batch_key. One pass runs every
    stage once on the batch's stacked arrays, those of its mode from
    _PROTOCOLS, each repetition with the state, noise levels (the mode's
    noise_keys) and copy budget of its own point: targets, prepared states,
    detector biases (drawn after the preparation noise), outcome table,
    counts, probe entries of the frequencies, reconstructions (amplitude
    vectors, or validated density matrices) and distances.
    """
    owners = [point for point, start, stop in batch for _ in range(start, stop)]
    mode, config, d = _batch_key(owners[0])
    protocol = _PROTOCOLS[mode]
    rngs = _streams(batch)
    prep, post = ([getattr(point, key) for point in owners] for key in noise_keys(mode))
    targets = protocol.targets(np.array([point.state.amps for point in owners]))
    prepared = protocol.prepare(targets, prep, rngs)
    weights = port_weights(d, np.array([sample_kappas(d, level, rng)
                                        for level, rng in zip(post, rngs)]))
    size = dict(zip(_CELL_AXES[config], (d, protocol.branches(d))))    # by table axis
    probs = np.empty((len(owners), 3 * size[1], 2 * size[3] + 1))
    protocol.cells(prepared, weights, config, _cells(probs, config))
    # Each stage's stacked arrays are dropped once the next stage has read
    # them, which bounds the memory a batch holds at once.
    del prepared
    copies = _split_copies(np.array([point.num_copies for point in owners]), probs.shape[1])
    counts = sample_count_tables(outcome_table(probs), copies, rngs)
    del probs
    estimates = _frequencies(counts, copies, config)
    del counts
    recons = protocol.estimate(*lambda_tables(estimates, config), config)
    return protocol.distance(targets, recons), recons


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
    Either way the process keeps freed heap memory for the next batch
    (_keep_freed_memory), and every OpenBLAS it has loaded runs on one
    thread from before any helper starts until the sweep ends, raises or
    is closed (_one_blas_thread); forked helpers inherit that setting.
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
    _keep_freed_memory()
    counts = _blas_thread_counts()
    done = (_shared(batches, workers, fork=bool(counts)) if workers > 1
            else (_distances(batch) for batch in batches))
    with _one_blas_thread(counts), contextlib.closing(done):
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


def _shared(batches, workers: int, fork: bool):
    """Yield _distances of every batch, in batch order, run by this process
    and ``workers - 1`` helper processes, forked if ``fork``.

    Each process claims the next batch from one shared counter, so whoever
    is free takes it, and a helper sends (index, distances) over its own
    pipe. A failed batch, or a helper that exits with an error, moves the
    counter past the last batch, so nothing more is claimed; a batch that a
    helper took with it raises when it is reached, naming the helper's exit
    code. run_points has them forked wherever it has set an OpenBLAS thread
    counter, whatever the default start method, as only a forked helper
    inherits the one-thread setting; elsewhere the default context starts
    them. multiprocessing is imported here, so a sweep on one worker never
    loads it. When the generator ends, raises or is closed, helpers still
    alive are terminated and every helper is joined.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork" if fork else None)
    claims = context.Value("q", 0)          # the next batch to claim
    total = len(batches)
    helpers = {}                            # result pipe -> helper process
    results = {}                            # batch index -> _distances
    failed = 0                              # exit code of a helper that failed
    try:
        _start_helpers(helpers, workers - 1, context,
                       (batches, claims, context.get_start_method() != "fork"))
        for index in range(total):
            while index not in results:
                own = _claim(claims, total)
                if own is None and not helpers:
                    # every helper has exited, one of them with this batch
                    raise RuntimeError(f"a worker process exited with code {failed} "
                                       f"before returning its batch")
                arrived = []
                if own is not None:
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


def _helper(batches, claims, fresh, pipe) -> None:
    """A helper process: claim batches from the shared counter and send
    each one's (index, _distances) until none is left.

    A helper started by spawn or forkserver (``fresh``) keeps freed heap
    memory as the caller does. A forked one inherits the setting, and
    setting it again there rearranged the heap it shares with the caller:
    0.2 MB more peak memory on the fig4 sweep. A forked helper inherits
    the caller's one-thread BLAS counters too.
    """
    if fresh:
        _keep_freed_memory()
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


def _blas_thread_counts() -> list:
    """The thread count of each OpenBLAS library this process has loaded,
    as ctypes ints: NumPy's, and SciPy's own once SciPy is imported.

    The libraries are read from /proc/self/maps; [] where there is no
    /proc, and a library that cannot be loaded or has no such counter
    (other BLAS builds) is left out.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[5].strip() for line in maps
                                  if "openblas" in line.rpartition("/")[2].lower())
    except OSError:
        return []
    counts = []
    for path in paths:
        with contextlib.suppress(OSError, ValueError):
            counts.append(ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number"))
    return counts


@contextlib.contextmanager
def _one_blas_thread(counts):
    """Every OpenBLAS counter in ``counts`` reads 1 inside the block, and
    its old value after.

    A process forked inside the block inherits the 1s. NumPy's and SciPy's
    wheels both name the counter blas_cpu_number, whereas they export
    set_num_threads under different prefixes.
    """
    olds = [count.value for count in counts]
    for count in counts:
        count.value = 1
    try:
        yield
    finally:
        for count, old in zip(counts, olds):
            count.value = old


def _keep_freed_memory() -> None:
    """Make glibc keep freed heap memory for reuse, for the life of the process.

    By default glibc raises its mmap threshold as large blocks are freed
    and trims the heap's free top once it exceeds twice that threshold, so
    each batch of a sweep would fault in again the pages the previous batch
    freed (about 300 faults per fig4 batch). Setting either threshold turns
    the dynamic one off, and the trim threshold alone would leave blocks
    over 128 KiB to mmap, so both are fixed: blocks below 4 MiB come from
    the heap, and up to 64 MiB of free heap is kept. Where libc is not
    glibc (no libc.so.6, or no mallopt in it) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_repetitions(point: ExperimentPoint, threads: int = 1) -> RunResult:
    """All repetitions of one grid point, reduced in repetition order: a
    one-point run_points on up to ``threads`` workers, this process and
    helper processes (the repetition loop is Python-bound, so threads would
    serialize on the interpreter lock); the worker count never changes the
    result, as every repetition owns its seed-derived stream."""
    return next(run_points([point], threads))
