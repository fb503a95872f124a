import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateDataError
from dsmsim.metrics import trace_distance_mixed
from dsmsim.mixed_protocol import (
    conditional_tables,
    lambda_tables,
    pauli_from_conditionals,
    physicalize_tables,
    raw_reconstruction,
)
from dsmsim.noise import sample_kappas, white_noise_channel
from dsmsim.pure_protocol import pauli_table
from dsmsim.states import (
    DensityMatrix,
    PureState,
    check_density_matrices,
    conjugate_coefficients,
    make_conjugate_state,
    random_density_matrix,
    standard_state,
)

from oracles import joint_conditional_c1, joint_conditional_c2

JOINT = {"C1": joint_conditional_c1, "C2": joint_conditional_c2}


def maximally_mixed(d):
    return DensityMatrix(np.eye(d) / d)


def probe_matrices(m00, m01, m11) -> np.ndarray:
    """The 2 x 2 probe matrices Lambda''(n, k) of conditional tables."""
    return np.stack([np.stack([m00, m01], axis=-1),
                     np.stack([m01.conj(), m11], axis=-1)], axis=-2)


def exact_lambda(rho: DensityMatrix, config: str, kappas=None):
    """Unsampled lambda tables over (n, k), as the engine derives them."""
    tables = conditional_tables(rho.elems, conjugate_coefficients(rho.dim, kappas), config)
    return lambda_tables(pauli_from_conditionals(*tables), config)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_conditional_entries_for_maximally_mixed_input(d):
    coeffs = conjugate_coefficients(d)
    rho = maximally_mixed(d).elems
    for config in ("C1", "C2"):
        _, _, m11 = conditional_tables(rho, coeffs, config)
        assert np.max(np.abs(m11 - 1 / (2 * d**2))) < 1e-14


def test_c2_zero_branch_vanishes_for_matching_interaction():
    d = 4
    rho = PureState(np.full(d, 0.5)).projector().elems
    m00, _, _ = conditional_tables(rho, conjugate_coefficients(d), "C2")
    assert np.all(m00[:, 0] < 1e-14)
    assert np.all(m00[:, 1] > 1e-3)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_conditionals_match_joint_evolution_oracle(d, rng):
    for trial in range(8):
        rho = random_density_matrix(d, rng)
        coeffs = conjugate_coefficients(d, sample_kappas(d, 0.08, rng))
        for config, joint in JOINT.items():
            got = probe_matrices(*conditional_tables(rho.elems, coeffs, config))
            for n in range(d):
                for k in range(d):
                    ref = joint(rho.elems, coeffs[k], n)
                    assert np.max(np.abs(got[n, k] - ref)) < 1e-12


@pytest.mark.parametrize("config", ["C1", "C2"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_vectorized_tables_match_per_cell_entries(config, d, rng):
    """Tables stacked along a leading axis, as a batch of repetitions holds
    them, match the joint-evolution oracle cell by cell."""
    rhos = np.array([random_density_matrix(d, rng).elems for _ in range(3)])
    coeffs = conjugate_coefficients(d, 0.1 * rng.standard_normal((3, d)))
    got = probe_matrices(*conditional_tables(rhos, coeffs, config))
    assert got.shape == (3, d, d, 2, 2)
    for rep in range(3):
        for n in range(d):
            for k in range(d):
                ref = JOINT[config](rhos[rep], coeffs[rep, k], n)
                assert np.max(np.abs(got[rep, n, k] - ref)) < 1e-12


def test_pure_projector_conditional_equals_probe_outer_product(rng):
    """For rho = |psi><psi| the k = 0 column of the mixed tables is the pure
    Pauli table."""
    d = 8
    psi = standard_state("haar", 3, seed=31)
    kappas = sample_kappas(d, 0.05, rng)
    conj = make_conjugate_state(d, 0, kappas)
    coeffs = conjugate_coefficients(d, kappas)
    for config in ("C1", "C2"):
        tables = conditional_tables(psi.projector().elems, coeffs, config)
        mixed = pauli_from_conditionals(*tables)[:, 0, :]
        assert np.max(np.abs(mixed - pauli_table(psi, conj, config))) < 1e-12


def test_conditionals_are_hermitian_with_real_diagonal(rng):
    d = 4
    rho = random_density_matrix(d, rng)
    coeffs = conjugate_coefficients(d, sample_kappas(d, 0.1, rng))
    for config in ("C1", "C2"):
        m00, m01, m11 = conditional_tables(rho.elems, coeffs, config)
        assert m00.dtype == m11.dtype == np.float64
        # each probe matrix is PSD with trace (its postselection weight) <= 1
        assert np.linalg.eigvalsh(probe_matrices(m00, m01, m11)).min() > -1e-12
        assert (m00 + m11).max() <= 1.0 + 1e-12


def test_lambda_extraction_recovers_known_matrix(rng):
    d = 4
    rho = random_density_matrix(d, rng)
    coeffs = conjugate_coefficients(d, sample_kappas(d, 0.05, rng))
    for config in ("C1", "C2"):
        m00, m01, m11 = conditional_tables(rho.elems, coeffs, config)
        off, diag = lambda_tables(pauli_from_conditionals(m00, m01, m11), config)
        # the measurable off-diagonal entry: Lambda''_10 in C1, Lambda''_01 in C2
        expected = m01.conj() if config == "C1" else m01
        assert np.max(np.abs(off - expected)) < 1e-12
        assert np.max(np.abs(diag - m11)) < 1e-12


def test_lambda_extraction_balanced_probabilities():
    off, diag = lambda_tables([0.3, 0.1, 0.2, 0.2, 0.2, 0.2], "C1")
    assert off == 0
    assert diag == pytest.approx(0.1)
    _, empty = lambda_tables([0.4, 0.0, 0.2, 0.2, 0.2, 0.2], "C2")
    assert empty == 0.0


@pytest.mark.parametrize("config", ["C1", "C2"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_noiseless_fourier_reconstruction_is_proportional_to_rho(config, d, rng):
    for _ in range(10):
        rho = random_density_matrix(d, rng)
        raw = raw_reconstruction(*exact_lambda(rho, config), config)
        normalized = DensityMatrix(raw / np.trace(raw).real)
        assert trace_distance_mixed(rho, normalized) < 1e-10
        assert trace_distance_mixed(DensityMatrix(physicalize_tables(raw)),
                                    DensityMatrix(physicalize_tables(rho.elems))) < 1e-10


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_maximally_mixed_reconstructs_to_identity(config):
    d = 4
    raw = raw_reconstruction(*exact_lambda(maximally_mixed(d), config), config)
    scaled = raw / raw[0, 0]
    assert np.max(np.abs(scaled - np.eye(d))) < 1e-12


@pytest.mark.parametrize("config", ["C1", "C2"])
def test_white_noised_ghz_pipeline_matches_matrix_oracle(config):
    ghz = standard_state("ghz", 3)
    rho = white_noise_channel(ghz.projector(), 0.5)
    raw = raw_reconstruction(*exact_lambda(rho, config), config)
    recon = DensityMatrix(physicalize_tables(raw))
    oracle = DensityMatrix(physicalize_tables(rho.elems))
    assert trace_distance_mixed(recon, oracle) < 1e-10


def test_biased_detector_produces_systematic_error(rng):
    d = 4
    rho = random_density_matrix(d, rng)
    off, diag = exact_lambda(rho, "C1", sample_kappas(d, 0.2, rng))
    recon = DensityMatrix(physicalize_tables(raw_reconstruction(off, diag, "C1")))
    assert trace_distance_mixed(rho, recon) > 1e-4


def test_physicalize_fixed_points_and_squaring():
    ghz = standard_state("ghz", 3)
    projector = ghz.projector()
    assert trace_distance_mixed(
        DensityMatrix(physicalize_tables(projector.elems)), projector) < 1e-12
    assert_allclose(physicalize_tables(3.7 * np.eye(4)), np.eye(4) / 4, atol=1e-14)
    squared = physicalize_tables(np.diag([2.0, 1.0]))
    assert_allclose(squared, np.diag([0.8, 0.2]), atol=1e-14)


def test_physicalize_output_is_valid_for_arbitrary_raw(rng):
    raw = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
    rhos = physicalize_tables(raw)
    check_density_matrices(rhos)
    assert np.max(np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)) < 1e-12


def test_physicalize_rejects_zero_matrix():
    with pytest.raises(DegenerateDataError):
        physicalize_tables(np.zeros((3, 3)))
