import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateNoiseError, ParameterError
from dsmsim.states import (
    ConjugateState,
    DensityMatrix,
    PureState,
    conjugate_coefficients,
    make_conjugate_state,
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
    flat = make_conjugate_state(4, 0)
    assert_allclose(flat.coeffs, np.full(4, 0.5), atol=1e-15)
    alternating = make_conjugate_state(2, 1)
    assert_allclose(alternating.coeffs, np.array([1, -1]) / SQRT2, atol=1e-15)


def test_conjugate_state_with_bias():
    # frozen from direct evaluation of M = sqrt(1.1^2 + 0.9^2)
    state = make_conjugate_state(2, 0, np.array([0.1, -0.1]))
    assert_allclose(state.norm_const, 1.4212670403551897, atol=1e-15)
    assert_allclose(state.coeffs,
                    [0.773957299203321, 0.6332377902572626], atol=1e-15)
    assert abs(np.sum(np.abs(state.coeffs) ** 2) - 1.0) < 1e-12


def test_conjugate_basis_is_orthonormal_without_bias():
    for d in (2, 3, 4, 8):
        rows = conjugate_coefficients(d)
        assert np.max(np.abs(rows.conj() @ rows.T - np.eye(d))) < 1e-12


def test_conjugate_state_validation():
    with pytest.raises(ParameterError):
        make_conjugate_state(4, 4)
    with pytest.raises(ParameterError):
        make_conjugate_state(4, -1)
    with pytest.raises(ParameterError):
        make_conjugate_state(4, 0, np.zeros(3))
    with pytest.raises(DegenerateNoiseError):
        make_conjugate_state(2, 0, np.array([-1.0, 0.0]))


def test_conjugate_family_shares_magnitudes(rng):
    kappas = 0.1 * rng.standard_normal(4)
    rows = conjugate_coefficients(4, kappas)
    for k, row in enumerate(rows):
        state = make_conjugate_state(4, k, kappas)
        assert isinstance(state, ConjugateState)
        assert np.array_equal(row, state.coeffs)
        assert np.max(np.abs(np.abs(row) - state.magnitudes)) < 1e-15
        assert np.array_equal(state.magnitudes, rows[0].real)


def test_random_density_matrix_is_valid(rng):
    for d in (2, 4, 8):
        rho = random_density_matrix(d, rng)
        assert rho.dim == d
        assert np.min(np.linalg.eigvalsh(rho.elems)) > -1e-12
