import ctypes
import importlib.util
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    _reference_counts,
    reference_frequencies,
    reference_lambda_tables,
    reference_outcome_table,
    reference_pauli_from_conditionals,
    reference_repetition,
    reference_setting_rows,
)

from dsmsim import montecarlo
from dsmsim.errors import DegenerateDataError, DegenerateNoiseError, ParameterError
from dsmsim.experiments import _points, parse_config
from dsmsim.metrics import trace_distance_mixed, trace_distance_pure
from dsmsim.mixed_protocol import conditional_tables
from dsmsim.noise import perturb_amplitudes, sample_kappas, white_noise_channel
from dsmsim.montecarlo import (
    MODES,
    ExperimentPoint,
    _batch,
    _batches,
    _distances,
    _split_copies,
    run_points,
    run_repetitions,
)
from dsmsim.pure_protocol import (
    lambda_tables,
    pauli_from_conditionals,
    pauli_table,
    reconstruct_pure,
)
from dsmsim.sampling import outcome_table, sample_count_tables
from dsmsim.states import (
    DensityMatrix,
    PureState,
    port_weights,
    random_density_matrix,
    standard_state,
)

GHZ = standard_state("ghz", 3)


def pure_outcomes(psi, weights, config):
    """Outcome table of a pure repetition: one row per setting."""
    pauli = pauli_table(psi.amps, weights, config).reshape(-1, 1, 6)
    return reference_outcome_table(reference_setting_rows(pauli, config))


def mixed_outcomes(rho, weights, config):
    """Outcome table of a mixed repetition: one row per setting."""
    pauli = pauli_from_conditionals(*conditional_tables(rho.elems, weights, config))
    rows = reference_setting_rows(pauli.reshape(*pauli.shape[:2], 6), config)
    return reference_outcome_table(rows)


def lone_repetition(point, rep):
    """(distance, reconstruction) of repetition ``rep`` run as a batch of one.

    The reconstruction is an amplitude vector (pure) or a density matrix's
    entries (mixed).
    """
    distances, recons = _batch([(point, rep, rep + 1)])
    return float(distances[0]), recons[0]


def test_setting_enumeration_counts():
    psi = standard_state("haar", 3, seed=1)
    weights = port_weights(8)
    assert pure_outcomes(psi, weights, "C2").shape == (3, 2 * 8 + 1)
    assert pure_outcomes(psi, weights, "C1").shape == (24, 3)
    rho = random_density_matrix(4, np.random.default_rng(2))
    for config in ("C1", "C2"):
        assert mixed_outcomes(rho, port_weights(4), config).shape == (12, 9)
    with pytest.raises(ParameterError):
        pure_outcomes(psi, weights, "C3")


def test_copy_allocation_rules():
    assert _split_copies(24, 24).tolist() == [1] * 24
    copies = _split_copies(25, 24)
    assert copies[0] == 2 and copies.sum() == 25
    assert _split_copies(10**5, 3).tolist() == [33334, 33333, 33333]
    with pytest.raises(ParameterError):
        _split_copies(0, 3)
    with pytest.raises(ParameterError, match="^no settings to allocate to$"):
        _split_copies(5, 0)


def test_pure_c1_hand_distribution():
    psi = PureState(np.array([1.0, 0.0]))
    probs = pure_outcomes(psi, port_weights(2), "C1")
    # setting (n = 0, Z): outcomes 0, 1, failed postselection
    assert_allclose(probs[0], [0.0, 0.25, 0.75], atol=1e-14)


def test_pure_c2_uniform_state_distribution_is_postselection_uniform():
    d = 8
    psi = PureState(np.full(d, 1 / np.sqrt(d)))
    probs = pure_outcomes(psi, port_weights(d), "C2")
    # setting X: (n, +), (n, -) pairs over n, failed postselection last
    joint = probs[1, :-1].reshape(d, 2)
    assert_allclose(joint.sum(axis=1), np.full(d, 1 / (2 * d)), atol=1e-14)


@pytest.mark.parametrize("mode,config", [("pure", "C1"), ("pure", "C2"),
                                         ("mixed", "C1"), ("mixed", "C2")])
def test_distributions_sum_to_one(mode, config, rng):
    d = 4
    kappas = 0.1 * rng.standard_normal(d)
    if mode == "pure":
        psi = standard_state("haar", 2, seed=8)
        probs = pure_outcomes(psi, port_weights(d, kappas), config)
    else:
        probs = mixed_outcomes(random_density_matrix(d, rng),
                               port_weights(d, kappas), config)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    if mode == "mixed" or config == "C2":
        # scan-free: every postselection branch appears in each setting
        assert probs.shape[1] == 2 * d + 1
        assert np.all(probs[:, :-1].reshape(-1, d, 2).sum(axis=2) > 0.0)


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_pure_estimator_consistency_with_expected_counts(config):
    """Feeding exact expected frequencies reproduces the analytic pipeline."""
    d = 4
    psi = standard_state("haar", 2, seed=21)
    weights = port_weights(d)
    probs = pure_outcomes(psi, weights, config)
    copies = _split_copies(1200, probs.shape[0])
    table = reference_frequencies(probs * copies[:, None], copies, config, d)[:, 0, :]
    recon = reconstruct_pure(table.reshape(d, 3, 2), config=config)
    analytic = reconstruct_pure(pauli_table(psi.amps, weights, config), config=config)
    assert trace_distance_pure(recon, analytic) < 1e-10


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_mixed_estimator_consistency_with_expected_counts(config, rng):
    d = 4
    rho = random_density_matrix(d, rng)
    weights = port_weights(d)
    probs = mixed_outcomes(rho, weights, config)
    copies = _split_copies(2400, probs.shape[0])
    estimates = reference_frequencies(probs * copies[:, None], copies, config, d)
    off, diag = lambda_tables(estimates.reshape(d, d, 3, 2), config)
    m00, m01, m11 = conditional_tables(rho.elems, weights, config)
    assert np.max(np.abs(off - (m01.conj() if config == "C1" else m01))) < 1e-12
    assert np.max(np.abs(diag - m11)) < 1e-12


def test_zero_success_counts_propagate_degenerate_error():
    d = 2
    copies = _split_copies(6, 3 * d)
    counts = np.zeros((3 * d, 3), dtype=np.int64)
    counts[:, -1] = copies                  # every copy failed postselection
    table = reference_frequencies(counts, copies, "C1", d)[:, 0, :].reshape(d, 3, 2)
    with pytest.raises(DegenerateDataError):
        reconstruct_pure(table, config="C1")


def _synthetic_sources(mode, d, reps, gen):
    """Conditional tables (m00, m01, m11) of ``reps`` repetitions: [rep, d, d]
    (mixed) or a k = 0 column [rep, d, 1] (pure), whose Pauli cells stand in
    for a pure batch's probe tables.

    The cells of a repetition sum to one, so every setting row of either
    configuration sums to at most one; one entry is a rounding-scale
    negative, which validation clamps to zero.
    """
    k = d if mode == "mixed" else 1
    trace = gen.random((reps, d, k))
    trace /= trace.sum(axis=(1, 2), keepdims=True)
    share = gen.random((reps, d, k))
    m00, m11 = share * trace, (1.0 - share) * trace
    m01 = np.sqrt(m00 * m11) * gen.random((reps, d, k)) * np.exp(
        2j * np.pi * gen.random((reps, d, k)))
    m00[-1, 0, 0], m01[-1, 0, 0] = -4e-13, 0.0
    return m00, m01, m11


@pytest.mark.parametrize("reps", [1, 80])
@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("mode,config", [("pure", "C1"), ("pure", "C2"),
                                         ("mixed", "C1"), ("mixed", "C2")])
def test_one_layout_matches_two_layout_reference(mode, config, d, reps):
    """The outcome tables written in place, their counts and the estimates
    read back through strided views equal, bit for bit, those of the
    composition that stacked Pauli tables, copied them into setting rows and
    copied the frequencies back into Pauli cells."""
    source = _synthetic_sources(mode, d, reps, np.random.default_rng([d, reps]))
    pauli = reference_pauli_from_conditionals(*source)
    expected = reference_outcome_table(reference_setting_rows(pauli, config))
    # the mode's cell stage, fed the synthetic tables in place of its closed
    # form: Pauli cells [rep, n, 3, 2] (pure), conditionals (mixed)
    probs = np.empty(expected.shape)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "pauli_table",
                      lambda *args: pauli[:, :, 0].reshape(reps, d, 3, 2))
        patch.setattr(montecarlo, "conditional_tables", lambda *args: source)
        montecarlo._PROTOCOLS[mode].cells(None, None, config, montecarlo._cells(probs, config))
    probs = outcome_table(probs)
    assert np.array_equal(probs, expected)
    assert probs[-1].min() == 0.0
    settings = probs.shape[1]
    # fewer copies than settings leave the last settings without any
    for budget in (settings - 1, 700):
        copies = _split_copies(budget, settings)
        counts = sample_count_tables(
            probs, copies, [np.random.default_rng([budget, rep]) for rep in range(reps)])
        assert np.array_equal(counts, [
            [_reference_counts(row, count, stream) for row, count in zip(table, copies)]
            for table, stream in zip(expected, [np.random.default_rng([budget, rep])
                                                for rep in range(reps)])])
        estimates = montecarlo._frequencies(counts, copies, config)
        reference = reference_frequencies(counts, copies, config, d)
        assert np.array_equal(estimates.reshape(reference.shape), reference)
        assert not np.any(reference_setting_rows(reference, config)[:, copies == 0])
        if mode == "pure":
            assert np.array_equal(estimates.reshape(-1, d, 6), reference[:, :, 0, :])
        # both modes read their probe entries from these cells
        for read, ref in zip(lambda_tables(estimates, config),
                             reference_lambda_tables(reference, config)):
            assert np.array_equal(read, ref)


def lone_draws(point, rep, d):
    """(prepared, port weights) of one repetition drawn alone from its stream:
    perturbed amplitudes (pure) or the white-noise channel's matrix (mixed)."""
    rng = np.random.default_rng(np.random.SeedSequence(point.seed_entropy + (rep,)))
    if point.mode == "pure":
        prepared = perturb_amplitudes(point.state.amps, point.sigma_prep, rng)[0]
    else:
        prepared = white_noise_channel(point.state.projector(), point.epsilon).elems
    return prepared, port_weights(d, sample_kappas(d, point.sigma_post, rng))


class CellsSeen(Exception):
    """Ends a batch once its cell stage has seen its inputs."""


def batch_stages(batch, mode, whole=True):
    """(_batch of ``batch``, what its mode's stages received): the targets,
    and the prepared states and port weights its cell stage takes. Unless
    ``whole``, the batch ends after the cell stage's inputs are seen, so no
    copy is sampled, and the result is None."""
    seen = {}
    protocol = montecarlo._PROTOCOLS[mode]

    def cells(prepared, weights, config, out):
        seen.update(prepared=prepared, weights=weights)
        if not whole:
            raise CellsSeen
        protocol.cells(prepared, weights, config, out)

    def distance(targets, recons):
        seen["targets"] = targets
        return protocol.distance(targets, recons)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(montecarlo._PROTOCOLS, mode,
                      protocol._replace(cells=cells, distance=distance))
        try:
            return _batch(batch), seen
        except CellsSeen:
            return None, seen


@pytest.mark.parametrize("config", ["C1", "C2"])
@pytest.mark.parametrize("num_qubits", [3, 10])
def test_pure_tables_are_lone_pauli_tables(config, num_qubits):
    """A pure batch's perturbed amplitudes and port weights are, bit for bit,
    each repetition's drawn in order from its own stream, and its probe
    tables the lone pauli_table of each pair."""
    d = 2**num_qubits
    points = [ExperimentPoint(mode="pure", config=config, state=state, num_copies=100,
                              repetitions=3, seed_entropy=(41, index),
                              sigma_prep=0.05 * index, sigma_post=0.05)
              for index, state in enumerate([standard_state("ghz", num_qubits),
                                             standard_state("haar", num_qubits, seed=5)])]
    batch = [(points[0], 0, 3), (points[1], 1, 3)]
    seen = batch_stages(batch, "pure", whole=False)[1]
    prepared, weights = seen["prepared"], seen["weights"]
    assert prepared.shape == weights.shape == (5, d)
    lone_amps, lone_weights = zip(*(lone_draws(point, rep, d) for point, start, stop in batch
                                    for rep in range(start, stop)))
    assert prepared.tobytes() == np.array(lone_amps).tobytes()
    assert weights.tobytes() == np.array(lone_weights).tobytes()
    assert np.array_equal(pauli_table(prepared, weights, config),
                          [pauli_table(*pair, config) for pair in zip(lone_amps, lone_weights)])


def test_mixed_inputs_are_lone_draws():
    """A mixed batch's prepared states and port weights are, bit for bit,
    each repetition's white-noise channel at its own epsilon and its detector
    draw from its own stream."""
    points = [ExperimentPoint(mode="mixed", config="C2", state=state, num_copies=100,
                              repetitions=3, seed_entropy=(43, index),
                              epsilon=0.3 * index, sigma_post=0.05 * (index + 1))
              for index, state in enumerate([standard_state("ghz", 3),
                                             standard_state("haar", 3, seed=5)])]
    batch = [(points[0], 0, 3), (points[1], 1, 3)]
    seen = batch_stages(batch, "mixed", whole=False)[1]
    prepared, weights = seen["prepared"], seen["weights"]
    assert prepared.shape == (5, 8, 8) and weights.shape == (5, 8)
    lone_rhos, lone_weights = zip(*(lone_draws(point, rep, 8) for point, start, stop in batch
                                    for rep in range(start, stop)))
    assert prepared.tobytes() == np.array(lone_rhos).tobytes()
    assert weights.tobytes() == np.array(lone_weights).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_prepare_receives_each_repetitions_level(mode):
    """A batch spanning two points hands its entry's prepare the targets,
    every repetition's level of the noise the entry's prep_noise names, in
    repetition order, and the repetitions' streams."""
    protocol = montecarlo._PROTOCOLS[mode]
    points = [ExperimentPoint(mode=mode, config="C1", state=GHZ, num_copies=100,
                              repetitions=3, seed_entropy=(47, index), sigma_post=0.02,
                              **{protocol.prep_noise: 0.1 * (index + 1)})
              for index in range(2)]
    batch = [(points[0], 1, 3), (points[1], 0, 3)]
    seen = []

    def prepare(targets, levels, rngs):
        seen.append((list(levels), len(targets), len(rngs)))
        return protocol.prepare(targets, levels, rngs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(montecarlo._PROTOCOLS, mode, protocol._replace(prepare=prepare))
        spied = _batch(batch)[0]
    levels = [getattr(point, protocol.prep_noise)
              for point, start, stop in batch for _ in range(start, stop)]
    assert levels == [0.1, 0.1, 0.2, 0.2, 0.2]
    assert seen == [(levels, 5, 5)]
    assert spied.tolist() == _batch(batch)[0].tolist()


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_pure_batch_memory_grows_with_d(config):
    """A pure d = 1024 batch builds no d x d array: one complex one alone
    would take 16 MiB."""
    point = ExperimentPoint(mode="pure", config=config, state=standard_state("ghz", 10),
                            num_copies=3000, repetitions=1, seed_entropy=(3,),
                            sigma_prep=0.01, sigma_post=0.01)
    assert len(_batches([point], 1)) == 1
    tracemalloc.start()
    try:
        _batch([(point, 0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_mixed_batch_memory_grows_with_d_squared(config):
    """A mixed d = 256 batch builds no d x d x d array: one complex one
    alone would take 256 MiB. Its d x d tables take 1 MiB each."""
    point = ExperimentPoint(mode="mixed", config=config, state=standard_state("ghz", 8),
                            num_copies=3000, repetitions=1, seed_entropy=(3,),
                            epsilon=0.3, sigma_post=0.01)
    assert len(_batches([point], 1)) == 1
    tracemalloc.start()
    try:
        _batch([(point, 0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_repetition_listing_and_single_repetition():
    point = ExperimentPoint(mode="pure", config="C2", state=GHZ, num_copies=3000,
                            repetitions=1, seed_entropy=(5,))
    result = run_repetitions(point)
    assert result.distances.shape == (1,)
    assert result.std_error == 0.0
    distance, recon = lone_repetition(point, 0)
    assert distance == result.distances[0]
    assert recon.shape == (8,)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 50, 127, 128, 129, 1000])
def test_run_result_statistics_equal_numpy_bit_for_bit(n):
    rng = np.random.default_rng(9170 + n)
    for scale in (1e-9, 1e-3, 0.37, 1.0, 2e5):
        values = rng.random(n) * scale
        result = montecarlo.RunResult(distances=values)
        assert result.mean == float(np.mean(values))
        if n == 1:
            assert result.std_error == 0.0
        else:
            assert result.std_error == float(np.std(values, ddof=1) / np.sqrt(n))


def test_determinism_across_runs_and_threads():
    point = ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=4000,
                            repetitions=12, seed_entropy=(17, 3),
                            sigma_prep=0.05, sigma_post=0.05)
    serial = run_repetitions(point, threads=1)
    threaded = run_repetitions(point, threads=4)
    again = run_repetitions(point, threads=2)
    assert np.array_equal(serial.distances, threaded.distances)
    assert np.array_equal(serial.distances, again.distances)
    mixed = ExperimentPoint(mode="mixed", config="C2", state=GHZ, num_copies=2000,
                            repetitions=6, seed_entropy=(17, 4),
                            epsilon=0.4, sigma_post=0.05)
    assert np.array_equal(run_repetitions(mixed, threads=1).distances,
                          run_repetitions(mixed, threads=3).distances)


def test_uneven_slices_keep_repetition_order():
    # 10 repetitions on 3 workers: slices of 4, 3 and 3 repetitions
    point = ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=600,
                            repetitions=10, seed_entropy=(31, 2),
                            epsilon=0.2, sigma_post=0.03)
    serial = [lone_repetition(point, rep)[0] for rep in range(10)]
    assert run_repetitions(point, threads=3).distances.tolist() == serial
    assert run_repetitions(point, threads=1).distances.tolist() == serial


def test_mixed_batch_derives_each_repetitions_matrices():
    """A mixed batch builds every repetition's target and prepared state from
    its own point, bit for bit as the point's projector and the white-noise
    channel build them one at a time; epsilon -0.0 keeps its bytes too."""
    cases = [(standard_state("ghz", 3), 0.0), (standard_state("w", 3), 0.4),
             (standard_state("haar", 3, seed=4), 1.0), (standard_state("ghz", 3), -0.0)]
    for config in ("C1", "C2"):
        points = [ExperimentPoint(mode="mixed", config=config, state=state, num_copies=400,
                                  repetitions=2, seed_entropy=(9, index), epsilon=epsilon)
                  for index, (state, epsilon) in enumerate(cases)]
        assert len(_batches(points, sum(p.repetitions for p in points))) == 1
        (distances, recons), seen = batch_stages([(point, 0, 2) for point in points], "mixed")
        owners = [point for point in points for _ in range(2)]
        assert len(seen["targets"]) == len(seen["prepared"]) == len(owners)
        for rep, point in enumerate(owners):
            target = point.state.projector()
            assert seen["targets"][rep].tobytes() == target.elems.tobytes()
            assert seen["prepared"][rep].tobytes() == (
                white_noise_channel(target, point.epsilon).elems.tobytes())
            assert distances[rep] == trace_distance_mixed(target, DensityMatrix(recons[rep]))
        assert distances.tolist() == [lone_repetition(point, rep)[0]
                                      for point in points for rep in range(2)]


def test_distinct_seeds_give_distinct_samples():
    base = dict(mode="pure", config="C2", state=GHZ, num_copies=2000, repetitions=4)
    a = run_repetitions(ExperimentPoint(**base, seed_entropy=(1,)))
    b = run_repetitions(ExperimentPoint(**base, seed_entropy=(2,)))
    assert not np.array_equal(a.distances, b.distances)


def test_large_budget_statistical_regression():
    # frozen run: sigma = 0, C2, five repetitions of 1e6 copies
    point = ExperimentPoint(mode="pure", config="C2", state=GHZ, num_copies=10**6,
                            repetitions=5, seed_entropy=(777,))
    result = run_repetitions(point, threads=4)
    assert result.mean < 1e-2
    assert_allclose(result.mean, 0.007965562337481202, atol=1e-9)


def test_mixed_repetition_distance_reflects_channel():
    clean = ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=5000,
                            repetitions=8, seed_entropy=(23,), epsilon=0.0)
    noisy = ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=5000,
                            repetitions=8, seed_entropy=(23,), epsilon=1.0)
    assert run_repetitions(noisy).mean > run_repetitions(clean).mean
    target = GHZ.projector()
    _, recon = lone_repetition(noisy, 0)
    assert trace_distance_mixed(target, DensityMatrix(recon)) > 0.8


def test_experiment_point_validation():
    with pytest.raises(ParameterError):
        ExperimentPoint(mode="pure", config="C9", state=GHZ, num_copies=10,
                        repetitions=1, seed_entropy=(1,))
    with pytest.raises(ParameterError):
        ExperimentPoint(mode="warm", config="C1", state=GHZ, num_copies=10,
                        repetitions=1, seed_entropy=(1,))
    with pytest.raises(ParameterError):
        ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=10,
                        repetitions=0, seed_entropy=(1,))
    # the other mode's preparation noise, which the engine would ignore,
    # negative or infinite noise, epsilon outside [0, 1], an empty copy
    # budget, one the sampler's int64 counts cannot hold, counts that are
    # not integers and a state that is not a PureState
    invalid = [("mixed", dict(sigma_prep=0.3)), ("pure", dict(epsilon=0.9)),
                 ("pure", dict(sigma_prep=-0.1)), ("mixed", dict(sigma_post=-0.1)),
                 ("pure", dict(sigma_prep=np.inf)), ("pure", dict(sigma_post=np.inf)),
                 ("mixed", dict(epsilon=1.5)), ("mixed", dict(epsilon=-0.1)),
                 ("pure", dict(num_copies=0)), ("pure", dict(num_copies=100.5)),
                 ("pure", dict(repetitions=True)), ("pure", dict(num_copies=2**63)),
                 ("pure", dict(num_copies=10**20)), ("pure", dict(state=GHZ.amps)),
                 ("mixed", dict(state=GHZ.amps))]
    # noise levels that are bools (run as 1) or not real numbers
    invalid += [("pure", dict(sigma_prep=True)), ("pure", dict(sigma_post=np.True_)),
                ("mixed", dict(epsilon=True)), ("pure", dict(sigma_post="0.1")),
                ("mixed", dict(epsilon=None)), ("pure", dict(sigma_prep=0.1j))]
    # seed entropy that is not a tuple, or holds a negative value, a float,
    # a string or None
    invalid += [("pure", dict(seed_entropy=entropy))
                for entropy in ([1], 1, None, (-1,), (3, np.int64(-2)), (1.0,),
                                (np.float64(2),), (1, "2"), (None,))]
    for mode, fields in invalid:
        kwargs = dict(mode=mode, config="C1", state=GHZ, num_copies=10,
                      repetitions=1, seed_entropy=(1,))
        with pytest.raises(ParameterError):
            ExperimentPoint(**{**kwargs, **fields})
    # the noise that belongs to the mode is accepted, as ints and NumPy reals too
    ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=10, repetitions=1,
                    seed_entropy=(1,), sigma_post=0.1, epsilon=1.0)
    ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=10, repetitions=1,
                    seed_entropy=(1,), sigma_post=np.float64(0.1), epsilon=1)
    ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=10, repetitions=1,
                    seed_entropy=(1,), sigma_prep=np.int64(0), sigma_post=np.float32(0.1))
    ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=10, repetitions=1,
                    seed_entropy=(1,), sigma_prep=0.1, sigma_post=0.1)
    # so is the largest budget int64 holds
    ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=2**63 - 1,
                    repetitions=1, seed_entropy=(1,))
    # as is every integer SeedSequence takes, bools and NumPy integers included
    for entropy in ((), (0,), (True, False), (np.int64(7), np.uint64(2**64 - 1)),
                    (2**100,)):
        ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=10,
                        repetitions=1, seed_entropy=entropy)


def _reference_outcome(point, rep):
    distance, state = reference_repetition(point, rep)
    return distance, state.amps if point.mode == "pure" else state.elems


def _outcome(run, point, rep):
    try:
        return run(point, rep)
    except DegenerateDataError as exc:
        return type(exc), None


def _run_slice(point, start, stop):
    """Repetitions start..stop-1 of one point as one batch; raises its error."""
    distances, error = _distances([(point, start, stop)])
    if error is not None:
        raise error
    return distances


def _slice_outcome(point, start, stop):
    try:
        return _run_slice(point, start, stop)
    except DegenerateDataError as exc:
        return type(exc)


@pytest.mark.parametrize("num_copies", [5, 1000, 200_000])
@pytest.mark.parametrize("mode,config", [("pure", "C1"), ("pure", "C2"),
                                         ("mixed", "C1"), ("mixed", "C2")])
def test_repetition_matches_per_setting_reference(mode, config, num_copies):
    """The table engine reproduces the per-setting loop bit for bit.

    5 copies leave most settings empty, 1000 are counted from one draw per
    repetition, and 200000 in chunks per setting. A slice of repetitions is
    one batch, and splitting it changes no distance.
    """
    noise = (dict(sigma_prep=0.05, sigma_post=0.05) if mode == "pure"
             else dict(sigma_post=0.05, epsilon=0.3))
    point = ExperimentPoint(mode=mode, config=config, state=GHZ,
                            num_copies=num_copies, repetitions=1,
                            seed_entropy=(31, num_copies), **noise)
    references = []
    for rep in range(3):
        distance, state = _outcome(lone_repetition, point, rep)
        ref_distance, ref_state = _outcome(_reference_outcome, point, rep)
        assert distance == ref_distance
        assert np.array_equal(state, ref_state)
        references.append(ref_distance)

    def serial(start, stop):
        # a repetition loop stops at the first repetition that raises
        failed = [value for value in references[start:stop]
                  if value is DegenerateDataError]
        return failed[0] if failed else references[start:stop]

    for start, stop in ((0, 3), (0, 1), (1, 3)):
        assert _slice_outcome(point, start, stop) == serial(start, stop)
    whole = _slice_outcome(point, 0, 3)
    if whole is not DegenerateDataError:
        assert whole == _run_slice(point, 0, 1) + _run_slice(point, 1, 3)


@pytest.mark.parametrize("mode", ["pure", "mixed"])
def test_batch_takes_state_and_noise_from_each_point(mode):
    """Points of one batch key share a batch but keep their own target state,
    noise levels and seeds."""
    states = [standard_state("ghz", 3), standard_state("w", 3),
              standard_state("haar", 3, seed=4)]
    points = []
    for index, state in enumerate(states):
        noise = (dict(sigma_prep=0.03 * index) if mode == "pure"
                 else dict(epsilon=0.2 * index))
        points.append(ExperimentPoint(mode=mode, config="C2", state=state, num_copies=400,
                                      repetitions=2, seed_entropy=(9, index),
                                      sigma_post=0.02 * index, **noise))
    assert len(_batches(points, sum(p.repetitions for p in points))) == 1
    results = [result.distances.tolist() for result in run_points(points)]
    assert results == [[lone_repetition(point, rep)[0] for rep in range(2)]
                       for point in points]


def test_batches_span_copy_budgets_not_configurations():
    """Consecutive points that differ in copy budget alone form one run of
    repetitions; a change of mode, configuration or dimension starts the
    next."""
    def point(copies, config="C1", state=GHZ, mode="pure"):
        return ExperimentPoint(mode=mode, config=config, state=state, num_copies=copies,
                               repetitions=2, seed_entropy=(0,))

    points = [point(100), point(5000), point(100), point(5000, config="C2"),
              point(100, config="C2"), point(100, config="C2", state=standard_state("ghz", 2)),
              point(600, config="C2", state=standard_state("ghz", 2)),
              point(100, config="C2", mode="mixed")]
    runs = [[id(point) for point, _, _ in batch] for batch in _batches(points, 16)]
    assert runs == [[id(point) for point in run]
                    for run in (points[:3], points[3:5], points[5:7], points[7:])]


# seed entropies of 0 to 6 words, so that seed_entropy + (rep,) spans 1 to
# 7 words: values at and past the 32-bit word boundaries, bools and NumPy
# integers
SEED_ENTROPIES = [(), (3,), (0, 2**32 - 1), (2**32, 7), (2**64 + 1,), (True, False, 2**32),
                  (2**100,), (np.int64(7), 1, 2, 3, 4), (np.uint64(2**64 - 1), 2**100)]


def test_streams_match_seed_sequence():
    """A batch derives every repetition's PCG64 seed exactly as SeedSequence
    does, whatever the entropy width of its points; a point's repetitions
    may cross the 32-bit word boundary of the repetition index."""
    points = [ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=10,
                              repetitions=2**32 + 2, seed_entropy=entropy)
              for entropy in SEED_ENTROPIES]
    batch = ([(point, 0, 3) for point in points]
             + [(points[1], 2**32 - 2, 2**32 + 1), (points[0], 5, 6)])
    entropies = [point.seed_entropy + (rep,)
                 for point, start, stop in batch for rep in range(start, stop)]
    # SeedSequence splits each value into max(1, ceil(bits / 32)) words
    widths = {sum(max(1, -(-int(value).bit_length() // 32)) for value in entropy)
              for entropy in entropies}
    assert sorted(widths) == [1, 2, 3, 4, 5, 6, 7]
    words = montecarlo._seed_state([(point.seed_entropy, start, stop)
                                    for point, start, stop in batch])
    streams = montecarlo._streams(batch)
    assert words.dtype == np.uint64 and words.shape == (len(entropies), 4)
    assert len(streams) == len(entropies)
    for entropy, row, stream in zip(entropies, words, streams):
        sequence = np.random.SeedSequence(entropy)
        assert np.array_equal(row, sequence.generate_state(4, np.uint64))
        reference = np.random.Generator(np.random.PCG64(sequence))
        assert stream.bit_generator.state == reference.bit_generator.state
        assert stream.random() == reference.random()
        assert stream.standard_normal() == reference.standard_normal()


@pytest.mark.parametrize("mode", ["pure", "mixed"])
def test_batch_of_mixed_seed_widths_matches_lone_repetitions(mode):
    """Points whose seed entropies split into different numbers of words
    share a batch, and each repetition keeps the stream of a lone one; the
    lone ones match the per-setting reference, which seeds with NumPy's own
    SeedSequence."""
    noise = (dict(sigma_prep=0.05, sigma_post=0.05) if mode == "pure"
             else dict(sigma_post=0.05, epsilon=0.3))
    points = [ExperimentPoint(mode=mode, config="C1", state=GHZ, num_copies=1000,
                              repetitions=3, seed_entropy=entropy, **noise)
              for entropy in [(5,), (2**40, 3), (2**64 + 1, True, np.int64(2), 2**100)]]
    assert len(_batches(points, sum(p.repetitions for p in points))) == 1
    distances, recons = _batch([(point, 0, 3) for point in points])
    lone = [lone_repetition(point, rep) for point in points for rep in range(3)]
    assert distances.tolist() == [distance for distance, _ in lone]
    assert all(np.array_equal(recon, state) for recon, (_, state) in zip(recons, lone))
    for point in points[1:]:
        assert lone_repetition(point, 2)[0] == _reference_outcome(point, 2)[0]


@pytest.mark.parametrize("mode,num_copies", [("pure", 8), ("mixed", 1)])
def test_batch_raises_first_error_of_repetition_loop(mode, num_copies):
    """sigma_post 2.0 on d = 4 fails most detector draws; some seeds fail an
    earlier repetition later in its pipeline, which a batch reaches after the
    detector draws of the repetitions behind it."""
    noise = (dict(sigma_prep=0.3, sigma_post=2.0) if mode == "pure"
             else dict(sigma_post=2.0, epsilon=0.3))
    kinds = set()
    for seed in range(16):
        point = ExperimentPoint(mode=mode, config="C1", state=standard_state("ghz", 2),
                                num_copies=num_copies, repetitions=6,
                                seed_entropy=(seed,), **noise)
        expected = None
        for rep in range(point.repetitions):
            try:
                lone_repetition(point, rep)
            except (DegenerateDataError, DegenerateNoiseError) as exc:
                expected = (type(exc), str(exc))
                break
        assert expected is not None
        kinds.add(expected[0])
        with pytest.raises((DegenerateDataError, DegenerateNoiseError)) as excinfo:
            _run_slice(point, 0, point.repetitions)
        assert (excinfo.type, str(excinfo.value)) == expected
    assert kinds == {DegenerateDataError, DegenerateNoiseError}


def test_failing_batch_of_succeeding_repetitions_keeps_every_distance(monkeypatch):
    """A batch that raises although each of its repetitions succeeds alone
    is replayed one repetition at a time: _distances returns every lone
    distance and no error, and a sweep yields them on 1 worker (one batch of
    6 repetitions) and on 2 (a batch of 3 each)."""
    points = [ExperimentPoint(mode="pure", config="C2", state=standard_state("ghz", 2),
                              num_copies=200, repetitions=3, seed_entropy=(53, index),
                              sigma_prep=0.05, sigma_post=0.05)
              for index in range(2)]
    lone = [[lone_repetition(point, rep)[0] for rep in range(3)] for point in points]
    real = montecarlo._batch
    failed = []

    def lone_only(batch):
        if sum(stop - start for _, start, stop in batch) >= 2:
            failed.append(batch)
            raise RuntimeError("a batch of several repetitions")
        return real(batch)

    monkeypatch.setattr(montecarlo, "_batch", lone_only)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    assert _distances([(points[0], 1, 3), (points[1], 0, 2)]) == (
        lone[0][1:] + lone[1][:2], None)
    assert len(failed) == 1
    for threads in (1, 2):
        results = [result.distances.tolist() for result in run_points(points, threads)]
        assert results == lone


_IMPORTS_AFTER_SWEEP = """
import json, sys
from dsmsim import montecarlo
from dsmsim.experiments import parse_config, run_figure
montecarlo._usable_cpus = lambda: 2
config = parse_config('{"num_qubits": 2, "copy_budgets": [100], "repetitions": 2}')
run_figure(config, threads=int(sys.argv[1]))
print(json.dumps([name in sys.modules for name in ("multiprocessing", "concurrent.futures")]))
"""


def _src_env() -> dict:
    """This environment with the tested package's source on PYTHONPATH."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("threads,loaded", [(1, False), (2, True)])
def test_pool_modules_load_only_for_a_pool(threads, loaded):
    """A one-worker sweep in a fresh interpreter imports no multiprocessing;
    a two-worker sweep imports it, and neither loads concurrent.futures."""
    out = subprocess.run([sys.executable, "-c", _IMPORTS_AFTER_SWEEP, str(threads)],
                         env=_src_env(), capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [loaded, False]


def _blas_counts() -> list:
    """The values of this process's OpenBLAS thread counters."""
    return [count.value for count in montecarlo._blas_thread_counts()]


def test_pool_workers_run_one_blas_thread(monkeypatch):
    """The helper and the calling process each run a batch on one BLAS
    thread, and the caller gets its own counts back afterwards."""
    before = _blas_counts()
    if not before:
        pytest.skip("this process has no OpenBLAS thread counter")
    # helpers are forked wherever the counter is found
    barrier = multiprocessing.get_context("fork").Barrier(2)

    def probe(batch):
        # each process waits until the other runs a batch too, then reports
        # its BLAS thread count as each repetition's distance
        barrier.wait(timeout=60)
        reps = sum(stop - start for _, start, stop in batch)
        return [float(max(_blas_counts()))] * reps, None

    monkeypatch.setattr(montecarlo, "_distances", probe)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    # 2 repetitions on 2 workers make one batch each
    point = ExperimentPoint(mode="pure", config="C1", state=standard_state("ghz", 2),
                            num_copies=100, repetitions=2, seed_entropy=(0,))
    assert [result.distances.tolist() for result in run_points([point], 2)] == [[1, 1]]
    assert _blas_counts() == before
    assert multiprocessing.active_children() == []


_COUNTS_UNDER_START_METHOD = """
import json, multiprocessing, sys
from dsmsim import montecarlo
from dsmsim.montecarlo import ExperimentPoint
from dsmsim.states import standard_state
multiprocessing.set_start_method(sys.argv[1], force=True)


def counts():
    return [count.value for count in montecarlo._blas_thread_counts()]


before = counts()
barrier = multiprocessing.get_context("fork").Barrier(2)


def probe(batch):
    barrier.wait(timeout=60)
    reps = sum(stop - start for _, start, stop in batch)
    return [float(max(counts()))] * reps, None


montecarlo._distances = probe
montecarlo._usable_cpus = lambda: 2
point = ExperimentPoint(mode="pure", config="C1", state=standard_state("ghz", 2),
                        num_copies=100, repetitions=2, seed_entropy=(0,))
during = [result.distances.tolist() for result in montecarlo.run_points([point], 2)]
print(json.dumps([before, during, counts()]))
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pool_workers_run_one_blas_thread_under_any_start_method(method):
    """Under a default start method that pickles a helper's arguments
    (forkserver, Linux's default from Python 3.14, and spawn), the helper
    and the calling process still run their batches on one BLAS thread,
    and the caller keeps its own count."""
    if not _blas_counts():
        pytest.skip("this process has no OpenBLAS thread counter")
    out = subprocess.run([sys.executable, "-c", _COUNTS_UNDER_START_METHOD, method],
                         env=_src_env(), capture_output=True, text=True, check=True,
                         timeout=300).stdout
    before, counts, after = json.loads(out)
    assert counts == [[1, 1]]
    assert after == before


_DEFAULT_CONTEXT_SWEEP = """
import json, multiprocessing
from dsmsim import montecarlo
from dsmsim.montecarlo import ExperimentPoint
from dsmsim.states import standard_state

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn", force=True)
    montecarlo._blas_thread_counts = lambda: []
    montecarlo._usable_cpus = lambda: 2
    points = [ExperimentPoint(mode=mode, config=config, state=standard_state("ghz", 2),
                              num_copies=200, repetitions=5, seed_entropy=(index,),
                              sigma_post=0.02)
              for index, (mode, config) in enumerate([("pure", "C1"), ("pure", "C2"),
                                                      ("mixed", "C1"), ("mixed", "C2")])]
    print(json.dumps([[result.distances.tolist() for result in montecarlo.run_points(points, n)]
                      for n in (1, 2)] + [multiprocessing.active_children() == []]))
"""


def test_helpers_started_without_fork_give_the_same_distances(tmp_path):
    """Where no OpenBLAS counter is found, helpers start by the default
    context; under spawn they and their arguments are pickled, and a
    two-worker sweep of pure and mixed points gives the one-worker
    distances."""
    script = tmp_path / "sweep.py"
    script.write_text(_DEFAULT_CONTEXT_SWEEP)
    out = subprocess.run([sys.executable, str(script)], env=_src_env(),
                         capture_output=True, text=True, check=True, timeout=300).stdout
    one, two, reaped = json.loads(out)
    assert two == one and len(one) == 4
    assert reaped


def test_dying_helper_raises_instead_of_hanging(monkeypatch):
    """A helper that exits in the middle of its batch makes the sweep raise
    an error naming its exit code within seconds, and leaves no process."""
    if not _blas_counts() and multiprocessing.get_start_method() != "fork":
        pytest.skip("the dying stand-in reaches only forked helpers")
    caller = os.getpid()
    real = montecarlo._distances
    claimed = multiprocessing.get_context("fork").Event()

    def dying(batch):
        # the caller waits until the helper has claimed a batch of its own
        if os.getpid() != caller:
            claimed.set()
            os._exit(3)
        claimed.wait(timeout=60)
        return real(batch)

    monkeypatch.setattr(montecarlo, "_distances", dying)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    points = [ExperimentPoint(mode="pure", config="C2", state=standard_state("ghz", 2),
                              num_copies=100, repetitions=20, seed_entropy=(index,))
              for index in range(4)]
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="exited with code 3"):
        for _ in run_points(points, 2):
            pass
    assert time.monotonic() - began < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("maps", [
    "7f0000000000-7f0000001000 r-xp 00000000 08:01 1 /usr/lib/libc.so.6\n[heap]\n",
    "7f0000000000-7f0000001000 r-xp 00000000 08:01 1 /nowhere/libopenblas.so.0\n",
    None,
])
def test_pool_without_blas_counter_runs_as_before(monkeypatch, maps):
    """No OpenBLAS in the maps, an OpenBLAS that cannot be loaded, or no
    /proc: no counter is found, and a pool still runs the sweep."""
    def fake_open(path, *args, **kwargs):
        assert path == "/proc/self/maps"
        if maps is None:
            raise FileNotFoundError(path)
        return io.StringIO(maps)

    monkeypatch.setattr(montecarlo, "open", fake_open, raising=False)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    assert montecarlo._blas_thread_counts() == []
    points = [ExperimentPoint(mode=mode, config="C1", state=standard_state("ghz", 2),
                              num_copies=200, repetitions=3, seed_entropy=(index,))
              for index, mode in enumerate(MODES)]
    assert ([result.distances.tolist() for result in run_points(points, 2)]
            == [result.distances.tolist() for result in run_points(points)])


def _has_mallopt() -> bool:
    """Whether glibc's mallopt is found as _keep_freed_memory looks it up."""
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


_FAULTS_OF_REPEAT_SWEEP = """
import dataclasses, resource
from dsmsim.cli import load_preset
from dsmsim.experiments import run_figure
config = dataclasses.replace(load_preset("fig4"), repetitions=2)
run_figure(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_figure(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_repeat_sweep_reuses_freed_heap_pages():
    """After one fig4 sweep, a second in the same process faults in almost
    no page: the batches reuse the heap memory earlier batches freed rather
    than glibc trimming it and each batch faulting it in again (about 2,000
    faults a sweep when it does)."""
    if not _has_mallopt():
        pytest.skip("this libc is not glibc")
    out = subprocess.run([sys.executable, "-c", _FAULTS_OF_REPEAT_SWEEP], env=_src_env(),
                         capture_output=True, text=True, check=True, timeout=300).stdout
    assert int(out) < 200


@pytest.mark.parametrize("libc", ["missing", "without mallopt"])
def test_sweep_without_mallopt_runs_as_before(monkeypatch, libc):
    """A libc that cannot be loaded, or that has no mallopt, leaves the heap
    setting alone, and sweeps on 1 and 2 workers give the usual distances."""
    points = [ExperimentPoint(mode=mode, config="C1", state=standard_state("ghz", 2),
                              num_copies=200, repetitions=3, seed_entropy=(index,))
              for index, mode in enumerate(MODES)]
    expected = [result.distances.tolist() for result in run_points(points)]
    real = ctypes.CDLL

    def fake_cdll(name, *args, **kwargs):
        if name != "libc.so.6":
            return real(name, *args, **kwargs)
        if libc == "missing":
            raise OSError(name)
        return object()

    monkeypatch.setattr(montecarlo.ctypes, "CDLL", fake_cdll)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    montecarlo._keep_freed_memory()
    for threads in (1, 2):
        assert [result.distances.tolist() for result in run_points(points, threads)] == expected
    assert multiprocessing.active_children() == []


def _recording_libc(monkeypatch) -> list:
    """Replace glibc by a stand-in whose mallopt records its calls."""
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    real = ctypes.CDLL
    monkeypatch.setattr(montecarlo.ctypes, "CDLL",
                        lambda name, *a, **k: Libc() if name == "libc.so.6" else real(name, *a, **k))
    return calls


# glibc's M_MMAP_THRESHOLD is -3, its M_TRIM_THRESHOLD -1 (malloc.h)
_THRESHOLDS = [(-3, 4 << 20), (-1, 64 << 20)]


def test_keeping_freed_memory_sets_both_thresholds_and_may_repeat(monkeypatch):
    """Both of glibc's thresholds are set, as the trim threshold alone would
    keep the mmap threshold at its 128 KiB default; a second call sets the
    same values, and a sweep afterwards gives the usual distances."""
    point = ExperimentPoint(mode="mixed", config="C2", state=standard_state("ghz", 2),
                            num_copies=200, repetitions=3, seed_entropy=(1,), epsilon=0.3)
    expected = run_repetitions(point).distances.tolist()
    calls = _recording_libc(monkeypatch)
    montecarlo._keep_freed_memory()
    montecarlo._keep_freed_memory()
    assert calls == _THRESHOLDS * 2
    monkeypatch.undo()
    if _has_mallopt():
        montecarlo._keep_freed_memory()
        montecarlo._keep_freed_memory()
    assert run_repetitions(point).distances.tolist() == expected


def test_only_helpers_not_forked_set_the_heap_thresholds(monkeypatch):
    """A helper started by spawn or forkserver sets the thresholds itself;
    a forked one inherits the caller's and leaves its heap alone."""
    calls = _recording_libc(monkeypatch)
    claims = multiprocessing.Value("q", 0)
    # no batches: each helper returns once it has set up
    montecarlo._helper([], claims, False, None)
    assert calls == []
    montecarlo._helper([], claims, True, None)
    assert calls == _THRESHOLDS


def test_large_mixed_run_gives_the_same_distances_on_one_and_two_workers(monkeypatch):
    """At d = 256 a multi-threaded BLAS rounds the mixed tables' products
    differently from a one-threaded one; one worker runs its batches on
    one BLAS thread, as every worker of several does, so both give the
    same bytes, and the caller gets its own thread counts back."""
    before = _blas_counts()
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    points = [ExperimentPoint(mode="mixed", config=config, state=standard_state("ghz", 8),
                              num_copies=20000, repetitions=2, seed_entropy=(0, index),
                              epsilon=0.3)
              for index, config in enumerate(("C1", "C2"))]
    one, two = ([result.distances.tolist() for result in run_points(points, threads)]
                for threads in (1, 2))
    assert one == two
    assert _blas_counts() == before


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_counts_come_back_however_a_sweep_ends(monkeypatch, threads):
    """The caller's OpenBLAS counters read 1 from before a sweep's first
    result until it ends, and their old values come back both when the
    sweep fails at a grid point (sigma 0.4 draws a 1 + kappa <= 0 detector
    bias at point 1) and when it is closed after its first result."""
    before = _blas_counts()
    if not before:
        pytest.skip("this process has no OpenBLAS thread counter")
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    points = _points(parse_config(
        '{"configuration": "C1", "sigma_sweep": [0.0, 0.4], "repetitions": 20}'))
    sweep = run_points(points, threads)
    next(sweep)
    assert set(_blas_counts()) == {1}
    with pytest.raises(DegenerateNoiseError):
        next(sweep)
    assert _blas_counts() == before
    sweep = run_points(points, threads)
    next(sweep)
    assert set(_blas_counts()) == {1}
    sweep.close()
    assert _blas_counts() == before
    assert multiprocessing.active_children() == []


_COUNTS_WITH_SCIPY = """
import json, multiprocessing, sys
if sys.argv[1] == "scipy":
    import scipy.linalg
from dsmsim import montecarlo
from dsmsim.montecarlo import ExperimentPoint
from dsmsim.states import standard_state
montecarlo._usable_cpus = lambda: 2


def counts():
    return [count.value for count in montecarlo._blas_thread_counts()]


with open("/proc/self/maps") as maps:
    libraries = {line.split(maxsplit=5)[5].strip() for line in maps
                 if "openblas" in line.rpartition("/")[2].lower()}
before = counts()
barrier = multiprocessing.get_context("fork").Barrier(2)
real = montecarlo._distances


def probe(batch):
    barrier.wait(timeout=60)
    reps = sum(stop - start for _, start, stop in batch)
    return [float(max(counts()))] * reps, None


montecarlo._distances = probe
point = ExperimentPoint(mode="pure", config="C1", state=standard_state("ghz", 2),
                        num_copies=100, repetitions=2, seed_entropy=(0,))
during = [result.distances.tolist() for result in montecarlo.run_points([point], 2)]
after = counts()
montecarlo._distances = real
points = [ExperimentPoint(mode="mixed", config=config, state=standard_state("ghz", 8),
                          num_copies=20000, repetitions=2, seed_entropy=(0, index),
                          epsilon=0.3)
          for index, config in enumerate(("C1", "C2"))]
large = [[result.distances.tolist() for result in montecarlo.run_points(points, threads)]
         for threads in (1, 2)]
print(json.dumps([len(libraries), before, during, after, large]))
"""


def test_every_loaded_openblas_runs_one_thread():
    """With SciPy imported first, its own OpenBLAS sorts before NumPy's in
    the process's maps. Every OpenBLAS counter still reads 1 in the caller
    and in a helper during a batch, the old values come back afterwards,
    and the d = 256 mixed distances, on 1 and 2 workers, are those of a
    process without SciPy: a two-threaded NumPy BLAS rounds them
    otherwise."""
    if importlib.util.find_spec("scipy") is None:
        pytest.skip("SciPy is not installed")
    with_scipy, without = (
        json.loads(subprocess.run([sys.executable, "-c", _COUNTS_WITH_SCIPY, which],
                                  env=_src_env(), capture_output=True, text=True,
                                  check=True, timeout=300).stdout)
        for which in ("scipy", "none"))
    libraries, before, during, after, large = with_scipy
    if libraries < 2:
        pytest.skip("SciPy loads no OpenBLAS of its own")
    assert len(before) == libraries
    assert during == [[1, 1]]
    assert after == before
    assert large[0] == large[1] == without[4][0]
