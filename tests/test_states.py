import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateNoiseError, ParameterError
from dsmsim.states import (
    DensityMatrix,
    PureState,
    conjugate_coefficients,
    random_density_matrix,
    standard_state,
)

SQRT2 = np.sqrt(2.0)


def test_pure_state_requires_normalization():
    with pytest.raises(ParameterError):
        PureState(np.array([1.0, 1.0]))
    state = PureState(np.array([1.0, 1.0]) / SQRT2)
    assert state.dim == 2
    with pytest.raises(ValueError):
        state.amps[0] = 0.0  # frozen storage


def test_pure_state_rejects_scalars_and_short_vectors():
    with pytest.raises(ParameterError):
        PureState(np.array([1.0]))
    with pytest.raises(ParameterError):
        PureState(np.eye(2))


def test_density_matrix_invariants():
    with pytest.raises(ParameterError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ParameterError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ParameterError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2


def test_ghz_amplitudes():
    state = standard_state("ghz", 3)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / SQRT2
    assert_allclose(state.amps, expected, atol=1e-15)


def test_w_amplitudes():
    state = standard_state("w", 3)
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
    assert_allclose(state.amps, expected, atol=1e-15)


def test_dicke_amplitudes():
    state = standard_state("dicke", 3, excitations=2)
    expected = np.zeros(8)
    expected[[3, 5, 6]] = 1 / np.sqrt(3)  # |011>, |101>, |110>
    assert_allclose(state.amps, expected, atol=1e-15)


@pytest.mark.parametrize("kind,kwargs", [
    ("ghz", {}), ("w", {}), ("dicke", {"excitations": 1}), ("haar", {"seed": 5}),
])
@pytest.mark.parametrize("num_qubits", [2, 3, 4])
def test_standard_states_are_normalized(kind, kwargs, num_qubits):
    state = standard_state(kind, num_qubits, **kwargs)
    assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-12


def test_standard_state_rejects_bad_input():
    with pytest.raises(ParameterError):
        standard_state("bell", 2)
    with pytest.raises(ParameterError):
        standard_state("dicke", 3, excitations=3)
    with pytest.raises(ParameterError):
        standard_state("dicke", 3)
    with pytest.raises(ParameterError):
        standard_state("ghz", 0)


def test_haar_states_reproducible_and_distinct():
    first = standard_state("haar", 3, seed=123)
    second = standard_state("haar", 3, seed=123)
    other = standard_state("haar", 3, seed=124)
    assert np.array_equal(first.amps, second.amps)
    fidelity = abs(np.vdot(first.amps, other.amps)) ** 2
    assert fidelity < 1.0 - 1e-6


def test_conjugate_state_uniform_cases():
    flat = conjugate_coefficients(4)[0]
    assert_allclose(flat, np.full(4, 0.5), atol=1e-15)
    alternating = conjugate_coefficients(2)[1]
    assert_allclose(alternating, np.array([1, -1]) / SQRT2, atol=1e-15)


def test_conjugate_state_with_bias():
    # frozen from direct evaluation of M = sqrt(1.1^2 + 0.9^2)
    coeffs = conjugate_coefficients(2, np.array([0.1, -0.1]))[0]
    assert_allclose(coeffs, [0.773957299203321, 0.6332377902572626], atol=1e-15)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) < 1e-12


def test_conjugate_basis_is_orthonormal_without_bias():
    for d in (2, 3, 4, 8):
        rows = conjugate_coefficients(d)
        assert np.max(np.abs(rows.conj() @ rows.T - np.eye(d))) < 1e-12


def test_conjugate_state_validation():
    with pytest.raises(ParameterError):
        conjugate_coefficients(1)
    with pytest.raises(ParameterError):
        conjugate_coefficients(4, np.zeros(3))
    with pytest.raises(DegenerateNoiseError):
        conjugate_coefficients(2, np.array([-1.0, 0.0]))


def test_conjugate_family_shares_magnitudes(rng):
    kappas = 0.1 * rng.standard_normal(4)
    rows = conjugate_coefficients(4, kappas)
    assert np.max(np.abs(rows.imag[0])) == 0.0
    for row in rows:
        assert np.max(np.abs(np.abs(row) - rows[0].real)) < 1e-15
    # stacked draws give the family of each draw, bit for bit
    stacked = conjugate_coefficients(4, np.array([kappas, -kappas]))
    assert np.array_equal(stacked[0], rows)
    assert np.array_equal(stacked[1], conjugate_coefficients(4, -kappas))


def test_random_density_matrix_is_valid(rng):
    for d in (2, 4, 8):
        rho = random_density_matrix(d, rng)
        assert rho.dim == d
        assert np.min(np.linalg.eigvalsh(rho.elems)) > -1e-12
