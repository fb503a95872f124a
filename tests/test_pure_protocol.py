import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateDataError, ParameterError
from dsmsim.metrics import trace_distance_pure
from dsmsim.mixed_protocol import conditional_tables, raw_reconstruction
from dsmsim.noise import perturb_pure_state, sample_kappas
from dsmsim.pure_protocol import (
    lambda_tables,
    pauli_table,
    reconstruct_amplitudes,
    reconstruct_pure,
)
from dsmsim.states import PureState, conjugate_coefficients, port_weights, standard_state

from oracles import (
    _reference_pauli,
    closed_form_probs_c1,
    closed_form_probs_c2,
    joint_probe_c1,
    joint_probe_c2,
    real_overlap_state,
    reference_reconstruct_pure,
)

SQRT2 = np.sqrt(2.0)
KEYS = ("0", "1", "+", "-", "L", "R")
JOINT = {"C1": joint_probe_c1, "C2": joint_probe_c2}


def haar(d, seed):
    return standard_state("haar", int(np.log2(d)), seed=seed)


def test_probe_c1_uniform_state():
    # a1 = c_n psi_n / sqrt 2 = 1 / (d sqrt 2), so P_1 = 1 / (2 d^2)
    d = 4
    psi = PureState(np.full(d, 1 / 2))
    table = pauli_table(psi.amps, port_weights(d), "C1").reshape(d, 6)
    assert_allclose(table[:, 1], np.full(d, 1 / (2 * d**2)), atol=1e-15)


def test_probe_c1_basis_state_hand_values():
    # n = 1: a0 = 0.5, a1 = 0
    psi = PureState(np.array([1.0, 0.0]))
    table = pauli_table(psi.amps, port_weights(2), "C1").reshape(2, 6)
    assert_allclose(table[1], [0.25, 0.0, 0.125, 0.125, 0.125, 0.125], atol=1e-15)


def test_probe_c2_uniform_state_has_empty_zero_branch():
    d = 8
    psi = PureState(np.full(d, 1 / np.sqrt(d)))
    table = pauli_table(psi.amps, port_weights(d), "C2").reshape(d, 6)
    assert np.all(table[:, 0] < 1e-30)


def test_probe_c2_basis_state_hand_values():
    # n = 0: a0 = (1 - 0.5) / sqrt 2, a1 = 1 / (2 sqrt 2)
    psi = PureState(np.array([1.0, 0.0]))
    weights = port_weights(2)
    # Gamma = sum_m c_m psi_m = 1 / sqrt 2
    assert_allclose(np.dot(weights, psi.amps), 1 / SQRT2, atol=1e-15)
    table = pauli_table(psi.amps, weights, "C2").reshape(2, 6)
    assert_allclose(table[0], [0.125, 0.125, 0.25, 0.0, 0.125, 0.125], atol=1e-15)


def test_probe_index_validation():
    psi = PureState(np.array([1.0, 0.0]))
    # weight vectors of another length, alone or stacked, for both builders
    for weights in (port_weights(4), np.full(3, 0.5), port_weights(4, np.zeros((3, 4)))):
        with pytest.raises(ParameterError):
            pauli_table(psi.amps, weights, "C2")
        for config in ("C1", "C2"):
            with pytest.raises(ParameterError):
                conditional_tables(psi.projector().elems, weights, config)
    # density matrices that are not square: one row, a vector, three rows
    for rho in (np.array([[0.5, 0.5]]), np.array([0.5, 0.5]), np.full((3, 2), 0.5)):
        for config in ("C1", "C2"):
            with pytest.raises(ParameterError, match="^density matrix must be square$"):
                conditional_tables(rho, port_weights(2), config)
    with pytest.raises(ParameterError):
        pauli_table(psi.amps, port_weights(2), "C3")


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_stacked_probe_tables_round_as_lone_tables(config, rng):
    """Amplitudes and port weights stacked along leading axes give, bit for
    bit, the table of each lone pair; one weight vector may serve them all."""
    d = 16
    amps = rng.standard_normal((2, 3, d)) + 1j * rng.standard_normal((2, 3, d))
    weights = port_weights(d, 0.1 * rng.standard_normal((2, 3, d)))
    got = pauli_table(amps, weights, config)
    assert got.shape == (2, 3, d, 3, 2)
    for index in np.ndindex(2, 3):
        assert np.array_equal(got[index], pauli_table(amps[index], weights[index], config))
    assert np.array_equal(pauli_table(amps, weights[1, 2], config)[1, 2], got[1, 2])


@pytest.mark.parametrize("d", [2, 4, 8])
def test_probe_states_match_joint_evolution_oracle(d, rng):
    for trial in range(25):
        psi, _ = perturb_pure_state(haar(d, 100 + trial), 0.1, rng)
        kappas = sample_kappas(d, 0.1, rng)
        weights, coeffs = port_weights(d, kappas), conjugate_coefficients(d, kappas)
        for config, joint in JOINT.items():
            table = pauli_table(psi.amps, weights, config).reshape(d, 6)
            for n in range(d):
                ref = _reference_pauli(*joint(psi.amps, coeffs[0], n))
                assert np.max(np.abs(table[n] - [ref[key] for key in KEYS])) < 1e-12


def test_pauli_probabilities_zero_branch_cases():
    # C1 with psi_n = 0 leaves a1 = 0; C2 with psi = i |+> leaves a0 = 0 and
    # a purely imaginary a1. Either way the X and Y pairs split the branch
    # that is left evenly.
    psi = PureState(np.array([1.0, 0.0]))
    row = pauli_table(psi.amps, port_weights(2), "C1").reshape(2, 6)[1]
    assert_allclose(row[:2], [0.25, 0.0], atol=1e-15)
    assert_allclose(row[2:], [0.125] * 4, atol=1e-15)
    psi = PureState(np.array([1j, 1j]) / SQRT2)
    for row in pauli_table(psi.amps, port_weights(2), "C2").reshape(2, 6):
        assert_allclose(row[:2], [0.0, 0.25], atol=1e-15)
        assert_allclose(row[2:], [0.125] * 4, atol=1e-15)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_pauli_probabilities_match_closed_forms(d, rng):
    weights = port_weights(d, sample_kappas(d, 0.08, rng))
    for _ in range(20):
        amps = real_overlap_state(rng, d, weights)
        psi = PureState(amps)
        for config, forms in (("C1", closed_form_probs_c1), ("C2", closed_form_probs_c2)):
            table = pauli_table(psi.amps, weights, config).reshape(d, 6)
            for n in range(d):
                ref = forms(psi.amps, weights, n)
                assert np.max(np.abs(table[n] - [ref[key] for key in KEYS])) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_basis_pair_sums_equal_success_probability(d, rng):
    kappas = sample_kappas(d, 0.1, rng)
    weights, coeffs = port_weights(d, kappas), conjugate_coefficients(d, kappas)
    psi, _ = perturb_pure_state(haar(d, 9), 0.05, rng)
    for config, joint in JOINT.items():
        table = pauli_table(psi.amps, weights, config)
        for n in range(d):
            norm = float(np.sum(np.abs(joint(psi.amps, coeffs[0], n)) ** 2))
            assert np.max(np.abs(table[n].sum(axis=1) - norm)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_amplitude_ratio_identities_with_true_coefficients(d, rng):
    """With the true coefficients and a real overlap, the Pauli combinations
    divide out to the exact amplitude parts (imaginary sign flips in C2)."""
    weights = port_weights(d, sample_kappas(d, 0.05, rng))
    for _ in range(10):
        psi = PureState(real_overlap_state(rng, d, weights))
        gamma = np.dot(weights, psi.amps).real
        scale = weights * gamma
        for config, sign in (("C1", 1.0), ("C2", -1.0)):
            table = pauli_table(psi.amps, weights, config).reshape(d, 6)
            _, p1, p_plus, p_minus, p_l, p_r = table.T
            assert np.max(np.abs((p_plus - p_minus + 2 * p1) / scale
                                 - psi.amps.real)) < 1e-12
            assert np.max(np.abs(sign * (p_l - p_r) / scale - psi.amps.imag)) < 1e-12


@pytest.mark.parametrize("config", ["C1", "C2"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_noiseless_reconstruction_is_identity(config, d):
    weights = port_weights(d)
    for trial in range(100):
        psi = haar(d, 1000 + trial)
        recon = reconstruct_pure(pauli_table(psi.amps, weights, config), config=config)
        assert trace_distance_pure(psi, recon) < 1e-10


def test_configurations_coincide_in_exact_limit(rng):
    d = 8
    weights = port_weights(d)
    for trial in range(20):
        psi = haar(d, 2000 + trial)
        rec1 = reconstruct_pure(pauli_table(psi.amps, weights, "C1"), config="C1")
        rec2 = reconstruct_pure(pauli_table(psi.amps, weights, "C2"), config="C2")
        assert trace_distance_pure(rec1, rec2) < 1e-10


def test_noiseless_ghz_reconstruction_exact_amplitudes():
    ghz = standard_state("ghz", 3)
    weights = port_weights(8)
    recon = reconstruct_pure(pauli_table(ghz.amps, weights, "C1"), config="C1")
    assert_allclose(recon.amps, ghz.amps, atol=1e-12)


def test_biased_postselection_shifts_reconstruction(rng):
    psi = haar(8, 77)
    biased = port_weights(8, sample_kappas(8, 0.2, rng))
    clean = port_weights(8)
    rec_biased = reconstruct_pure(pauli_table(psi.amps, biased, "C1"), config="C1")
    rec_clean = reconstruct_pure(pauli_table(psi.amps, clean, "C1"), config="C1")
    assert trace_distance_pure(psi, rec_clean) < 1e-10
    assert trace_distance_pure(psi, rec_biased) > 1e-4


@pytest.mark.parametrize("config", ["C1", "C2"])
@pytest.mark.parametrize("d", [2, 8, 64])
def test_stacked_reconstruction_rounds_as_lone_tables(config, d):
    """Every table of a stack reconstructs bit for bit as the scalar
    arithmetic of one table does."""
    rng = np.random.default_rng([d, int(config[1])])
    tables = rng.random((3, 4, d, 6))
    tables[0, 0, 1:] = 0.0                                # one nonzero index
    tables[0, 1] = rng.integers(0, 3, (d, 6)) / 4         # count-like ties for the peak
    tables[0, 1, 0, 1] = 0.75
    cells = tables.reshape(3, 4, d, 3, 2)                 # a view: the same probabilities
    got = reconstruct_amplitudes(*lambda_tables(cells, config))
    assert got.shape == (3, 4, d)
    for index in np.ndindex(3, 4):
        assert np.array_equal(got[index], reference_reconstruct_pure(tables[index], config))
    assert np.array_equal(reconstruct_pure(cells[1, 2], config).amps, got[1, 2])
    tables[2, 3] = 0.0
    with pytest.raises(DegenerateDataError):
        reconstruct_amplitudes(*lambda_tables(cells, config))


def test_nominal_coefficients_validation():
    """Both reconstructions divide by d finite, positive port weights and
    reject any other nominal with ParameterError, warning-free."""
    d = 4
    entries = lambda_tables(pauli_table(haar(d, 3).amps, port_weights(d), "C1"), "C1")
    off, diag = np.full((d, d), 0.1 + 0.1j), np.full((d, d), 0.1)
    for nominal in ([0.5], np.full(3, 0.5), np.full((1, d), 0.5), [0.5, 0.5, -0.5, 0.5],
                    [0.5, 0.0, 0.5, 0.5], [0.5, np.nan, 0.5, 0.5], [0.5, np.inf, 0.5, 0.5]):
        with pytest.raises(ParameterError):
            reconstruct_amplitudes(*entries, nominal)
        with pytest.raises(ParameterError):
            raw_reconstruction(off, diag, "C1", nominal)
    # 1/sqrt(4) is 0.5 exactly, the default
    assert np.array_equal(reconstruct_amplitudes(*entries, np.full(d, 0.5)),
                          reconstruct_amplitudes(*entries))
    assert np.array_equal(raw_reconstruction(off, diag, "C2", [0.5] * d),
                          raw_reconstruction(off, diag, "C2"))


def test_reconstruction_rejects_malformed_entries():
    """One basis index, entries of two shapes, or a flat six-column table
    raise ParameterError."""
    with pytest.raises(ParameterError):
        reconstruct_amplitudes([0.5], [0.5])
    with pytest.raises(ParameterError):
        reconstruct_amplitudes(np.full(4, 0.1), np.full(3, 0.1))
    with pytest.raises(ParameterError):
        reconstruct_pure(np.full((4, 6), 0.1), config="C1")


def test_reconstruction_rejects_all_zero_tables():
    with pytest.raises(DegenerateDataError):
        reconstruct_pure(np.zeros((4, 3, 2)), config="C1")


def test_reconstruction_phase_convention():
    ghz = standard_state("ghz", 3)
    weights = port_weights(8)
    recon = reconstruct_pure(pauli_table(ghz.amps, weights, "C2"), config="C2")
    peak = int(np.argmax(np.abs(recon.amps)))
    assert recon.amps[peak].imag == pytest.approx(0.0, abs=1e-12)
    assert recon.amps[peak].real > 0
