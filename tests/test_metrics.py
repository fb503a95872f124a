import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import DegenerateNoiseError, ParameterError
from dsmsim.metrics import (
    QfiReport,
    norm_const_samples,
    qfi_noisy,
    qfi_pure,
    trace_distance_mixed,
    trace_distance_pure,
    trace_distances_pure,
)
from dsmsim.states import DensityMatrix, PureState, random_density_matrix, standard_state

from oracles import reference_distance_pure

GHZ = standard_state("ghz", 3)


def real_unit_vector(rng, d):
    vec = rng.standard_normal(d)
    return PureState(vec / np.linalg.norm(vec))


@pytest.mark.parametrize("d", [2, 8, 64])
def test_stacked_pure_distances_round_as_lone_pairs(d):
    """Every pair of a stack, and one state against a stack, gives the
    distance of one np.vdot and one np.linalg.norm bit for bit."""
    rng = np.random.default_rng(4100 + d)
    psis = rng.standard_normal((3, 5, d)) + 1j * rng.standard_normal((3, 5, d))
    psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
    # near neighbours as well as far ones: distances from about 1e-8 to 1
    scales = 10.0 ** rng.uniform(-8, 0, (3, 5, 1))
    phis = psis + scales * (rng.standard_normal((3, 5, d)) + 1j * rng.standard_normal((3, 5, d)))
    phis /= np.linalg.norm(phis, axis=-1, keepdims=True)
    got = trace_distances_pure(psis, phis)
    assert got.shape == (3, 5)
    assert np.array_equal(got, [[reference_distance_pure(psi, phi) for psi, phi in zip(*rows)]
                                for rows in zip(psis, phis)])
    assert np.array_equal(trace_distances_pure(psis[0, 0], phis[0]),
                          [reference_distance_pure(psis[0, 0], phi) for phi in phis[0]])


def test_pure_distance_examples():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    zero = PureState(np.array([1.0, 0.0]))
    one = PureState(np.array([0.0, 1.0]))
    assert trace_distance_pure(zero, zero) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance_pure(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance_pure(zero, plus) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_mixed_distance_examples():
    projector = GHZ.projector()
    mixed = DensityMatrix(np.eye(8) / 8)
    assert trace_distance_mixed(projector, projector) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance_mixed(projector, mixed) == pytest.approx(7 / 8, abs=1e-12)


def test_mixed_distance_agrees_with_pure_distance_on_projectors(rng):
    for d in (2, 4, 8):
        a = standard_state("haar", int(np.log2(d)), seed=rng.integers(1 << 30))
        b = standard_state("haar", int(np.log2(d)), seed=rng.integers(1 << 30))
        assert abs(trace_distance_mixed(a.projector(), b.projector())
                   - trace_distance_pure(a, b)) < 1e-10


def test_distance_symmetry_and_range(rng):
    for _ in range(20):
        a = standard_state("haar", 2, seed=rng.integers(1 << 30))
        b = standard_state("haar", 2, seed=rng.integers(1 << 30))
        d_ab = trace_distance_pure(a, b)
        assert 0.0 <= d_ab <= 1.0
        assert abs(d_ab - trace_distance_pure(b, a)) < 1e-12
        ra, rb = random_density_matrix(4, rng), random_density_matrix(4, rng)
        m_ab = trace_distance_mixed(ra, rb)
        assert 0.0 <= m_ab <= 1.0
        assert abs(m_ab - trace_distance_mixed(rb, ra)) < 1e-12
    with pytest.raises(ParameterError):
        trace_distance_pure(GHZ, PureState(np.array([1.0, 0.0])))
    with pytest.raises(ParameterError, match="^states must share a dimension$"):
        trace_distance_mixed(random_density_matrix(2, rng), random_density_matrix(4, rng))


def test_qfi_pure_basis_state():
    report = qfi_pure(PureState(np.array([1.0, 0.0])))
    assert_allclose(report.per_component, [0.0, 4.0], atol=1e-15)
    assert report.total == pytest.approx(4.0)
    assert report.norm_const == 1.0


def test_qfi_pure_uniform_state():
    d = 8
    report = qfi_pure(PureState(np.full(d, 1 / np.sqrt(d))))
    assert_allclose(report.per_component, np.full(d, 4 * (1 - 1 / d)), atol=1e-12)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_qfi_pure_total_is_state_independent(d, rng):
    for _ in range(100):
        report = qfi_pure(real_unit_vector(rng, d))
        assert abs(report.total - 4 * (d - 1)) < 1e-12
        assert report.variance * report.total == pytest.approx(1.0, abs=1e-12)


def test_qfi_d8_variance_floor():
    report = qfi_pure(real_unit_vector(np.random.default_rng(4), 8))
    assert report.variance == pytest.approx(1 / 28, abs=1e-15)


def test_qfi_noisy_reduces_to_noiseless(rng):
    psi = real_unit_vector(rng, 8)
    noisy = qfi_noisy(psi, np.zeros(8))
    clean = qfi_pure(psi)
    assert_allclose(noisy.per_component, clean.per_component, atol=1e-12)
    assert noisy.norm_const == pytest.approx(1.0, abs=1e-12)


def test_qfi_noisy_total_at_doubled_norm():
    d = 8
    amps = np.full(d, 1 / np.sqrt(d))
    deltas = (np.sqrt(2) - 1) * amps  # scales the vector so N^2 = 2
    report = qfi_noisy(PureState(amps), deltas)
    assert report.total == pytest.approx(14.0, abs=1e-12)


def test_qfi_noisy_component_sum_identity(rng):
    for _ in range(50):
        psi = real_unit_vector(rng, 8)
        deltas = 0.2 * rng.standard_normal(8)
        report = qfi_noisy(psi, deltas)
        assert abs(report.total - 4 * 7 / report.norm_const**2) < 1e-12


def test_qfi_noisy_rejects_complex_input(rng):
    with pytest.raises(ParameterError):
        qfi_noisy(standard_state("haar", 3, seed=1), np.zeros(8))
    psi = real_unit_vector(rng, 4)
    with pytest.raises(ParameterError):
        qfi_noisy(psi, np.zeros(3))
    with pytest.raises(DegenerateNoiseError):
        qfi_noisy(psi, -np.asarray(psi.amps.real))


def test_information_crossover_at_unit_norm(rng):
    """More information than noiseless exactly when the draw shrinks the norm."""
    psi = real_unit_vector(rng, 8)
    clean_total = qfi_pure(psi).total
    flips = 0
    for _ in range(200):
        deltas = 0.15 * rng.standard_normal(8)
        report = qfi_noisy(psi, deltas)
        assert (report.total > clean_total) == (report.norm_const < 1.0)
        flips += report.norm_const < 1.0
    assert 0 < flips < 200  # both regimes actually sampled


def test_qfi_noisy_matches_finite_differences(rng):
    """Central-difference derivative of the normalized noisy state."""
    step = 1e-6
    for _ in range(10):
        base = real_unit_vector(rng, 8).amps.real
        deltas = 0.1 * rng.standard_normal(8)
        report = qfi_noisy(PureState(base), deltas)
        for n in range(8):
            def normalized(theta):
                shifted = base.copy()
                shifted[n] = theta
                vec = shifted + deltas
                return vec / np.linalg.norm(vec)
            dpsi = (normalized(base[n] + step) - normalized(base[n] - step)) / (2 * step)
            psi_prime = (base + deltas) / np.linalg.norm(base + deltas)
            fd = 4 * (dpsi @ dpsi - (dpsi @ psi_prime) ** 2)
            assert abs(fd - report.per_component[n]) / report.per_component[n] < 1e-5


@pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
def test_norm_const_samples_rejects_bad_sigma(sigma):
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        norm_const_samples(GHZ, sigma, 10, np.random.default_rng(0))


@pytest.mark.parametrize("reps", [2.5, 0, True, "3"])
def test_norm_const_samples_rejects_bad_reps(reps):
    with pytest.raises(ParameterError, match="reps must be a positive integer"):
        norm_const_samples(GHZ, 0.1, reps, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qfi_noisy_rejects_non_finite_perturbations(rng, bad):
    """A NaN perturbation used to give a report of NaN entries and total."""
    psi = real_unit_vector(rng, 4)
    for deltas in ([bad] * 4, [0.0, bad, 0.0, 0.0]):
        with pytest.raises(ParameterError, match="finite perturbation"):
            qfi_noisy(psi, deltas)


@pytest.mark.parametrize("total", [np.nan, np.inf, 0.0, -1.0])
def test_qfi_report_needs_finite_positive_total(total):
    with pytest.raises(ParameterError, match="finite and positive"):
        QfiReport(per_component=np.ones(2), total=total, norm_const=1.0)


def test_norm_const_samples_zero_sigma_and_reproducibility():
    psi = standard_state("haar", 3, seed=11)
    values = norm_const_samples(psi, 0.0, 100, np.random.default_rng(0))
    assert_allclose(values, np.ones(100), atol=1e-12)
    a = norm_const_samples(psi, 0.1, 1000, np.random.default_rng(9))
    b = norm_const_samples(psi, 0.1, 1000, np.random.default_rng(9))
    assert np.array_equal(a, b)
