import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import reference_repetition

from dsmsim import montecarlo
from dsmsim.errors import DegenerateDataError, DegenerateNoiseError, ParameterError
from dsmsim.experiments import parse_config, run_figure
from dsmsim.metrics import trace_distance_mixed, trace_distance_pure
from dsmsim.mixed_protocol import conditional_tables, lambda_tables, pauli_from_conditionals
from dsmsim.noise import white_noise_channel
from dsmsim.montecarlo import (
    ExperimentPoint,
    _batches,
    _distances,
    _frequencies,
    _setting_rows,
    _split_copies,
    run_points,
    run_repetitions,
    run_single_repetition,
)
from dsmsim.pure_protocol import pauli_table, reconstruct_pure
from dsmsim.sampling import outcome_table
from dsmsim.states import (
    PureState,
    conjugate_coefficients,
    make_conjugate_state,
    random_density_matrix,
    standard_state,
)

GHZ = standard_state("ghz", 3)


def pure_outcomes(psi, conj, config):
    """Outcome table of a pure repetition: one row per setting."""
    return outcome_table(_setting_rows(pauli_table(psi, conj, config)[:, None, :], config))


def mixed_outcomes(rho, coeffs, config):
    """Outcome table of a mixed repetition: one row per setting."""
    pauli = pauli_from_conditionals(*conditional_tables(rho.elems, coeffs, config))
    return outcome_table(_setting_rows(pauli, config))


def test_setting_enumeration_counts():
    psi = standard_state("haar", 3, seed=1)
    conj = make_conjugate_state(8, 0)
    assert pure_outcomes(psi, conj, "C2").shape == (3, 2 * 8 + 1)
    assert pure_outcomes(psi, conj, "C1").shape == (24, 3)
    rho = random_density_matrix(4, np.random.default_rng(2))
    for config in ("C1", "C2"):
        assert mixed_outcomes(rho, conjugate_coefficients(4), config).shape == (12, 9)
    with pytest.raises(ParameterError):
        pure_outcomes(psi, conj, "C3")


def test_copy_allocation_rules():
    assert _split_copies(24, 24).tolist() == [1] * 24
    copies = _split_copies(25, 24)
    assert copies[0] == 2 and copies.sum() == 25
    assert _split_copies(10**5, 3).tolist() == [33334, 33333, 33333]
    with pytest.raises(ParameterError):
        _split_copies(0, 3)


def test_pure_c1_hand_distribution():
    psi = PureState(np.array([1.0, 0.0]))
    probs = pure_outcomes(psi, make_conjugate_state(2, 0), "C1")
    # setting (n = 0, Z): outcomes 0, 1, failed postselection
    assert_allclose(probs[0], [0.0, 0.25, 0.75], atol=1e-14)


def test_pure_c2_uniform_state_distribution_is_postselection_uniform():
    d = 8
    psi = PureState(np.full(d, 1 / np.sqrt(d)))
    probs = pure_outcomes(psi, make_conjugate_state(d, 0), "C2")
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
        probs = pure_outcomes(psi, make_conjugate_state(d, 0, kappas), config)
    else:
        probs = mixed_outcomes(random_density_matrix(d, rng),
                               conjugate_coefficients(d, kappas), config)
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
    conj = make_conjugate_state(d, 0)
    probs = pure_outcomes(psi, conj, config)
    copies = _split_copies(1200, probs.shape[0])
    table = _frequencies(probs * copies[:, None], copies, config, d)[:, 0, :]
    recon = reconstruct_pure(table, config=config)
    analytic = reconstruct_pure(pauli_table(psi, conj, config), config=config)
    assert trace_distance_pure(recon, analytic) < 1e-10


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_mixed_estimator_consistency_with_expected_counts(config, rng):
    d = 4
    rho = random_density_matrix(d, rng)
    coeffs = conjugate_coefficients(d)
    probs = mixed_outcomes(rho, coeffs, config)
    copies = _split_copies(2400, probs.shape[0])
    off, diag = lambda_tables(_frequencies(probs * copies[:, None], copies, config, d),
                              config)
    m00, m01, m11 = conditional_tables(rho.elems, coeffs, config)
    assert np.max(np.abs(off - (m01.conj() if config == "C1" else m01))) < 1e-12
    assert np.max(np.abs(diag - m11)) < 1e-12


def test_zero_success_counts_propagate_degenerate_error():
    d = 2
    copies = _split_copies(6, 3 * d)
    counts = np.zeros((3 * d, 3), dtype=np.int64)
    counts[:, -1] = copies                  # every copy failed postselection
    table = _frequencies(counts, copies, "C1", d)[:, 0, :]
    with pytest.raises(DegenerateDataError):
        reconstruct_pure(table, config="C1")


def test_repetition_listing_and_single_repetition():
    point = ExperimentPoint(mode="pure", config="C2", state=GHZ, num_copies=3000,
                            repetitions=1, seed_entropy=(5,))
    result = run_repetitions(point)
    assert result.distances.shape == (1,)
    assert result.std_error == 0.0
    distance, recon = run_single_repetition(point, 0)
    assert distance == result.distances[0]
    assert recon.dim == 8


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
    serial = [run_single_repetition(point, rep)[0] for rep in range(10)]
    assert run_repetitions(point, threads=3).distances.tolist() == serial
    assert run_repetitions(point, threads=1).distances.tolist() == serial


def test_point_invariants_built_once(monkeypatch):
    point = ExperimentPoint(mode="mixed", config="C2", state=GHZ, num_copies=600,
                            repetitions=1, seed_entropy=(3,), epsilon=0.3)
    assert point.prepared is point.prepared
    assert point.prepared.elems.tobytes() == (
        white_noise_channel(GHZ.projector(), 0.3).elems.tobytes())
    _, recon = run_single_repetition(point, 0)
    assert trace_distance_mixed(point.projector, recon) == run_repetitions(point).mean
    # a mixed sweep builds one target and one prepared state per epsilon,
    # whatever the number of grid points and repetitions
    montecarlo._target.cache_clear()
    montecarlo._prepared.cache_clear()
    channels, projectors = [], []
    channel, projector = montecarlo.white_noise_channel, PureState.projector
    monkeypatch.setattr(montecarlo, "white_noise_channel",
                        lambda rho, eps: channels.append(eps) or channel(rho, eps))
    monkeypatch.setattr(PureState, "projector",
                        lambda state: projectors.append(state) or projector(state))
    epsilons = [0.1, 0.5, 0.9]
    config = parse_config(json.dumps({
        "mode": "mixed", "configuration": "both", "sigma_sweep": [0.0, 0.02, 0.05],
        "epsilon_sweep": epsilons, "copy_budgets": [300], "repetitions": 2}))
    rows = run_figure(config)["results"]
    assert len(rows) == 18 and not any(row["error"] for row in rows)
    assert sorted(channels) == epsilons and len(projectors) == 1
    monkeypatch.undo()
    for eps in epsilons:
        point = ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=300,
                                repetitions=2, seed_entropy=(0,), epsilon=eps)
        assert point.prepared.elems.tobytes() == (
            white_noise_channel(GHZ.projector(), eps).elems.tobytes())


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
    _, recon = run_single_repetition(noisy, 0)
    assert trace_distance_mixed(target, recon) > 0.8


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
    # negative noise, epsilon outside [0, 1] and an empty copy budget
    invalid = [("mixed", dict(sigma_prep=0.3)), ("pure", dict(epsilon=0.9)),
                 ("pure", dict(sigma_prep=-0.1)), ("mixed", dict(sigma_post=-0.1)),
                 ("mixed", dict(epsilon=1.5)), ("mixed", dict(epsilon=-0.1)),
                 ("pure", dict(num_copies=0))]
    for mode, fields in invalid:
        kwargs = dict(mode=mode, config="C1", state=GHZ, num_copies=10,
                      repetitions=1, seed_entropy=(1,))
        with pytest.raises(ParameterError):
            ExperimentPoint(**{**kwargs, **fields})
    # the noise that belongs to the mode is accepted
    ExperimentPoint(mode="mixed", config="C1", state=GHZ, num_copies=10, repetitions=1,
                    seed_entropy=(1,), sigma_post=0.1, epsilon=1.0)
    ExperimentPoint(mode="pure", config="C1", state=GHZ, num_copies=10, repetitions=1,
                    seed_entropy=(1,), sigma_prep=0.1, sigma_post=0.1)


def _outcome(run, point, rep):
    try:
        distance, state = run(point, rep)
    except DegenerateDataError as exc:
        return type(exc), None
    return distance, state.amps if point.mode == "pure" else state.elems


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
        distance, state = _outcome(run_single_repetition, point, rep)
        ref_distance, ref_state = _outcome(reference_repetition, point, rep)
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
    assert len(list(_batches(points))) == 1
    results = [result.distances.tolist() for result in run_points(points)]
    assert results == [[run_single_repetition(point, rep)[0] for rep in range(2)]
                       for point in points]


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
                run_single_repetition(point, rep)
            except (DegenerateDataError, DegenerateNoiseError) as exc:
                expected = (type(exc), str(exc))
                break
        assert expected is not None
        kinds.add(expected[0])
        with pytest.raises((DegenerateDataError, DegenerateNoiseError)) as excinfo:
            _run_slice(point, 0, point.repetitions)
        assert (excinfo.type, str(excinfo.value)) == expected
    assert kinds == {DegenerateDataError, DegenerateNoiseError}
