import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateDataError, ParameterError
from dsmsim.metrics import trace_distance_pure
from dsmsim.noise import perturb_pure_state, sample_kappas
from dsmsim.pure_protocol import pauli_table, postselection_overlap, reconstruct_pure
from dsmsim.states import PureState, make_conjugate_state, standard_state

from oracles import (
    _reference_pauli,
    closed_form_probs_c1,
    closed_form_probs_c2,
    joint_probe_c1,
    joint_probe_c2,
    real_overlap_state,
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
    table = pauli_table(psi, make_conjugate_state(d, 0), "C1")
    assert_allclose(table[:, 1], np.full(d, 1 / (2 * d**2)), atol=1e-15)


def test_probe_c1_basis_state_hand_values():
    # n = 1: a0 = 0.5, a1 = 0
    psi = PureState(np.array([1.0, 0.0]))
    table = pauli_table(psi, make_conjugate_state(2, 0), "C1")
    assert_allclose(table[1], [0.25, 0.0, 0.125, 0.125, 0.125, 0.125], atol=1e-15)


def test_probe_c2_uniform_state_has_empty_zero_branch():
    d = 8
    psi = PureState(np.full(d, 1 / np.sqrt(d)))
    table = pauli_table(psi, make_conjugate_state(d, 0), "C2")
    assert np.all(table[:, 0] < 1e-30)


def test_probe_c2_basis_state_hand_values():
    # n = 0: a0 = (1 - 0.5) / sqrt 2, a1 = 1 / (2 sqrt 2)
    psi = PureState(np.array([1.0, 0.0]))
    conj = make_conjugate_state(2, 0)
    assert_allclose(postselection_overlap(psi, conj), 1 / SQRT2, atol=1e-15)
    table = pauli_table(psi, conj, "C2")
    assert_allclose(table[0], [0.125, 0.125, 0.25, 0.0, 0.125, 0.125], atol=1e-15)


def test_probe_index_validation():
    psi = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        pauli_table(psi, make_conjugate_state(2, 1), "C1")
    with pytest.raises(ParameterError):
        pauli_table(psi, make_conjugate_state(4, 0), "C2")
    with pytest.raises(ParameterError):
        pauli_table(psi, make_conjugate_state(2, 0), "C3")


@pytest.mark.parametrize("d", [2, 4, 8])
def test_probe_states_match_joint_evolution_oracle(d, rng):
    for trial in range(25):
        psi, _ = perturb_pure_state(haar(d, 100 + trial), 0.1, rng)
        conj = make_conjugate_state(d, 0, sample_kappas(d, 0.1, rng))
        for config, joint in JOINT.items():
            table = pauli_table(psi, conj, config)
            for n in range(d):
                ref = _reference_pauli(*joint(psi.amps, conj.coeffs, n))
                assert np.max(np.abs(table[n] - [ref[key] for key in KEYS])) < 1e-12


def test_pauli_probabilities_zero_branch_cases():
    # C1 with psi_n = 0 leaves a1 = 0; C2 with psi = i |+> leaves a0 = 0 and
    # a purely imaginary a1. Either way the X and Y pairs split the branch
    # that is left evenly.
    psi = PureState(np.array([1.0, 0.0]))
    row = pauli_table(psi, make_conjugate_state(2, 0), "C1")[1]
    assert_allclose(row[:2], [0.25, 0.0], atol=1e-15)
    assert_allclose(row[2:], [0.125] * 4, atol=1e-15)
    psi = PureState(np.array([1j, 1j]) / SQRT2)
    for row in pauli_table(psi, make_conjugate_state(2, 0), "C2"):
        assert_allclose(row[:2], [0.0, 0.25], atol=1e-15)
        assert_allclose(row[2:], [0.125] * 4, atol=1e-15)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_pauli_probabilities_match_closed_forms(d, rng):
    conj = make_conjugate_state(d, 0, sample_kappas(d, 0.08, rng))
    for _ in range(20):
        amps = real_overlap_state(rng, d, conj.magnitudes)
        psi = PureState(amps)
        for config, forms in (("C1", closed_form_probs_c1), ("C2", closed_form_probs_c2)):
            table = pauli_table(psi, conj, config)
            for n in range(d):
                ref = forms(psi.amps, conj.magnitudes, n)
                assert np.max(np.abs(table[n] - [ref[key] for key in KEYS])) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_basis_pair_sums_equal_success_probability(d, rng):
    conj = make_conjugate_state(d, 0, sample_kappas(d, 0.1, rng))
    psi, _ = perturb_pure_state(haar(d, 9), 0.05, rng)
    for config, joint in JOINT.items():
        table = pauli_table(psi, conj, config)
        for n in range(d):
            norm = float(np.sum(np.abs(joint(psi.amps, conj.coeffs, n)) ** 2))
            assert np.max(np.abs(table[n].reshape(3, 2).sum(axis=1) - norm)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_amplitude_ratio_identities_with_true_coefficients(d, rng):
    """With the true coefficients and a real overlap, the Pauli combinations
    divide out to the exact amplitude parts (imaginary sign flips in C2)."""
    conj = make_conjugate_state(d, 0, sample_kappas(d, 0.05, rng))
    for _ in range(10):
        psi = PureState(real_overlap_state(rng, d, conj.magnitudes))
        gamma = postselection_overlap(psi, conj).real
        scale = conj.magnitudes * gamma
        for config, sign in (("C1", 1.0), ("C2", -1.0)):
            _, p1, p_plus, p_minus, p_l, p_r = pauli_table(psi, conj, config).T
            assert np.max(np.abs((p_plus - p_minus + 2 * p1) / scale
                                 - psi.amps.real)) < 1e-12
            assert np.max(np.abs(sign * (p_l - p_r) / scale - psi.amps.imag)) < 1e-12


@pytest.mark.parametrize("config", ["C1", "C2"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_noiseless_reconstruction_is_identity(config, d):
    conj = make_conjugate_state(d, 0)
    for trial in range(100):
        psi = haar(d, 1000 + trial)
        recon = reconstruct_pure(pauli_table(psi, conj, config), config=config)
        assert trace_distance_pure(psi, recon) < 1e-10


def test_configurations_coincide_in_exact_limit(rng):
    d = 8
    conj = make_conjugate_state(d, 0)
    for trial in range(20):
        psi = haar(d, 2000 + trial)
        rec1 = reconstruct_pure(pauli_table(psi, conj, "C1"), config="C1")
        rec2 = reconstruct_pure(pauli_table(psi, conj, "C2"), config="C2")
        assert trace_distance_pure(rec1, rec2) < 1e-10


def test_noiseless_ghz_reconstruction_exact_amplitudes():
    ghz = standard_state("ghz", 3)
    conj = make_conjugate_state(8, 0)
    recon = reconstruct_pure(pauli_table(ghz, conj, "C1"), config="C1")
    assert_allclose(recon.amps, ghz.amps, atol=1e-12)


def test_biased_postselection_shifts_reconstruction(rng):
    psi = haar(8, 77)
    biased = make_conjugate_state(8, 0, sample_kappas(8, 0.2, rng))
    clean = make_conjugate_state(8, 0)
    rec_biased = reconstruct_pure(pauli_table(psi, biased, "C1"), config="C1")
    rec_clean = reconstruct_pure(pauli_table(psi, clean, "C1"), config="C1")
    assert trace_distance_pure(psi, rec_clean) < 1e-10
    assert trace_distance_pure(psi, rec_biased) > 1e-4


def test_reconstruction_rejects_all_zero_tables():
    with pytest.raises(DegenerateDataError):
        reconstruct_pure(np.zeros((4, 6)), config="C1")


def test_reconstruction_phase_convention():
    ghz = standard_state("ghz", 3)
    conj = make_conjugate_state(8, 0)
    recon = reconstruct_pure(pauli_table(ghz, conj, "C2"), config="C2")
    peak = int(np.argmax(np.abs(recon.amps)))
    assert recon.amps[peak].imag == pytest.approx(0.0, abs=1e-12)
    assert recon.amps[peak].real > 0
