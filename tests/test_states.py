import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateNoiseError, ParameterError
from dsmsim.mixed_protocol import physicalize_tables
from dsmsim.states import (
    PSD_ATOL,
    DensityMatrix,
    PureState,
    check_density_matrices,
    conjugate_coefficients,
    port_weights,
    random_density_matrix,
    standard_state,
)

from oracles import passes_eigenvalue_rule

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
    with pytest.raises(ParameterError, match="^amplitudes must be finite$"):
        PureState(np.array([1.0, np.nan]))


def test_density_matrix_invariants():
    with pytest.raises(ParameterError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ParameterError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ParameterError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ParameterError, match="^density matrix must be square$"):
        DensityMatrix(np.stack([np.eye(2) / 2] * 2))
    with pytest.raises(ParameterError, match="^density matrix must be square$"):
        check_density_matrices(np.ones(3))
    with pytest.raises(ParameterError, match="^dimension must be at least 2$"):
        check_density_matrices(np.ones((1, 1)))
    with pytest.raises(ParameterError, match="^dimension must be at least 2$"):
        random_density_matrix(1, np.random.default_rng(0))
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2


def test_density_matrix_stacks_empty_and_worst_trace():
    """An empty stack passes, as in every other stacked stage; a failing
    stack names its worst trace."""
    assert check_density_matrices(np.zeros((0, 2, 2))) is None
    assert physicalize_tables(np.zeros((0, 2, 2), complex)).shape == (0, 2, 2)
    stack = np.stack([np.eye(2) / 2, np.eye(2) * 0.75, np.eye(2)])
    with pytest.raises(ParameterError, match=r"^trace must be 1, got \(2\+0j\)$"):
        check_density_matrices(stack)


NAN, INF = np.nan, np.inf
NON_FINITE = {
    "nan-diagonal": [[NAN, 0.0], [0.0, 0.5]],
    "all-nan": [[NAN, NAN], [NAN, NAN]],
    "inf-off-diagonal": [[0.5, INF], [INF, 0.5]],
    "minus-inf-off-diagonal": [[0.5, -INF], [-INF, 0.5]],
    "inf-imaginary": [[0.5, complex(0.0, INF)], [complex(0.0, -INF), 0.5]],
}


@pytest.mark.parametrize("bad", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_density_matrices_reject_non_finite_entries(bad):
    # raised before any arithmetic: the warnings NaN or inf would trigger
    # are errors under this suite's settings
    with pytest.raises(ParameterError, match="entries must be finite"):
        check_density_matrices(bad)
    with pytest.raises(ParameterError, match="entries must be finite"):
        DensityMatrix(np.array(bad))
    stack = np.repeat(np.eye(2, dtype=complex)[None] / 2, 5, axis=0)
    stack[2] = bad
    with pytest.raises(ParameterError, match="entries must be finite"):
        check_density_matrices(stack)


def passes_guard(elems) -> bool:
    """Whether check_density_matrices accepts the stack; any other failure
    than positivity is a test error."""
    try:
        check_density_matrices(elems)
    except ParameterError as exc:
        assert str(exc) == "density matrix has a negative eigenvalue"
        return False
    return True


def spectrum_stack(rng, d: int, lowest: float, count: int) -> np.ndarray:
    """``count`` Hermitian trace-one matrices U diag(lam) U^dag, Haar U, each
    with smallest eigenvalue ``lowest`` and the others positive."""
    mats = []
    for _ in range(count):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rest = rng.random(d - 1) + 0.1
        lam = np.concatenate(([lowest], rest * (1.0 - lowest) / rest.sum()))
        rho = (u * lam) @ u.conj().T
        mats.append((rho + rho.conj().T) / 2)
    return np.array(mats)


@pytest.mark.parametrize("d", [2, 4, 8, 16, 64])
def test_positivity_guard_matches_eigenvalue_rule(d):
    rng = np.random.default_rng(4410 + d)
    for k in (0.0, 0.5, 0.9, 1.1, 2.0, 10.0):
        stack = spectrum_stack(rng, d, -k * PSD_ATOL, 3)
        assert passes_eigenvalue_rule(stack, PSD_ATOL) == (k <= 1.0)
        assert passes_guard(stack) == (k <= 1.0)
        for rho in stack:
            assert passes_guard(rho) == passes_eigenvalue_rule(rho, PSD_ATOL)


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
def test_positivity_guard_accepts_projectors_and_physicalized_tables(d):
    rng = np.random.default_rng(4480 + d)
    vecs = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    basis = np.zeros(d)
    basis[d // 2] = 1.0
    ghz = np.zeros(d)
    ghz[[0, -1]] = 1.0 / SQRT2
    projectors = np.array([np.outer(v, v.conj()) for v in [*vecs, basis, ghz]])
    raw = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
    raw[:3] = raw[:3, :, :1] * raw[:3, :1, :]          # rank one
    for stack in (projectors, physicalize_tables(raw)):
        assert passes_eigenvalue_rule(stack, PSD_ATOL)
        assert passes_guard(stack)


def test_positivity_guard_finds_one_failing_matrix_mid_stack():
    rng = np.random.default_rng(4521)
    stack = spectrum_stack(rng, 8, 0.0, 7)
    stack[3] = spectrum_stack(rng, 8, -2.0 * PSD_ATOL, 1)[0]
    assert not passes_eigenvalue_rule(stack, PSD_ATOL)
    assert passes_eigenvalue_rule(np.delete(stack, 3, axis=0), PSD_ATOL)
    with pytest.raises(ParameterError, match="negative eigenvalue"):
        check_density_matrices(stack)
    check_density_matrices(np.delete(stack, 3, axis=0))


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
    with pytest.raises(ParameterError, match="^W state needs at least two qubits$"):
        standard_state("w", 1)


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
    for build in (port_weights, conjugate_coefficients):
        with pytest.raises(ParameterError):
            build(1)
        with pytest.raises(ParameterError):
            build(4, np.zeros(3))
        with pytest.raises(DegenerateNoiseError):
            build(2, np.array([-1.0, 0.0]))
        # non-finite kappas, also in one draw of a stack, raise warning-free
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterError, match="kappas must be finite"):
                build(2, np.array([bad, 0.0]))
            with pytest.raises(ParameterError, match="kappas must be finite"):
                build(2, np.array([[0.1, 0.0], [0.0, bad]]))


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
    # row 0 is the port weights, which stack the same way
    weights = port_weights(4, np.array([kappas, -kappas]))
    assert np.array_equal(stacked[:, 0].real, weights)
    assert np.array_equal(weights[1], port_weights(4, -kappas))


def test_random_density_matrix_is_valid(rng):
    for d in (2, 4, 8):
        rho = random_density_matrix(d, rng)
        assert rho.dim == d
        assert np.min(np.linalg.eigvalsh(rho.elems)) > -1e-12
