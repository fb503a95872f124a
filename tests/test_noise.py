import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsmsim.errors import ParameterError
from dsmsim.noise import (
    imperfect_hadamard,
    noisy_ghz_circuit,
    perturb_pure_state,
    sample_kappas,
    white_noise_channel,
)
from dsmsim.states import standard_state

from oracles import shift_clock_kraus

GHZ = standard_state("ghz", 3)


def test_perturbation_at_zero_sigma_is_bitwise_identity(rng):
    out, norm = perturb_pure_state(GHZ, 0.0, rng)
    assert norm == 1.0
    assert np.array_equal(out.amps, GHZ.amps)


def test_perturbation_keeps_unit_norm(rng):
    for sigma in (0.01, 0.1, 0.5):
        out, norm = perturb_pure_state(GHZ, sigma, rng)
        assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) < 1e-12
        assert norm > 0.0


def test_perturbation_is_reproducible():
    a, _ = perturb_pure_state(GHZ, 0.1, np.random.default_rng(3))
    b, _ = perturb_pure_state(GHZ, 0.1, np.random.default_rng(3))
    assert np.array_equal(a.amps, b.amps)


def test_perturbation_mean_fidelity_regression():
    # frozen Monte Carlo estimate: 1e4 draws per sigma, stream seed 20260811
    means = {}
    for sigma in (0.1, 0.2):
        stream = np.random.default_rng(20260811)
        fids = [
            abs(np.vdot(GHZ.amps, perturb_pure_state(GHZ, sigma, stream)[0].amps)) ** 2
            for _ in range(10**4)
        ]
        means[sigma] = float(np.mean(fids))
    assert_allclose(means[0.1], 0.8780234782248912, atol=1e-9)
    assert_allclose(means[0.2], 0.6502741799854815, atol=1e-9)
    assert means[0.2] < means[0.1] < 1.0


def test_perturbation_rejects_negative_sigma(rng):
    with pytest.raises(ParameterError):
        perturb_pure_state(GHZ, -0.1, rng)


class _AnnihilatingStream:
    """Stub stream whose draws cancel the state exactly."""

    def __init__(self, psi, sigma, bad_draws):
        self._bad = [np.stack([-psi.amps.real / sigma,
                               -psi.amps.imag / sigma], axis=1)] * bad_draws
        self._fallback = np.random.default_rng(0)

    def standard_normal(self, shape):
        if self._bad:
            return self._bad.pop()
        return self._fallback.standard_normal(shape)


def test_perturbation_resamples_once_then_errors():
    from dsmsim.errors import DegenerateNoiseError

    recovered, norm = perturb_pure_state(GHZ, 0.1, _AnnihilatingStream(GHZ, 0.1, 1))
    assert norm > 0.0
    with pytest.raises(DegenerateNoiseError):
        perturb_pure_state(GHZ, 0.1, _AnnihilatingStream(GHZ, 0.1, 2))


def test_perturbation_norm_constants_peak_near_one():
    stream = np.random.default_rng(14)
    state = standard_state("haar", 3, seed=3)
    norms = np.array([perturb_pure_state(state, 0.05, stream)[1]
                      for _ in range(20000)])
    hist, edges = np.histogram(norms, bins=np.linspace(0.5, 1.75, 13))
    peak = int(np.argmax(hist))
    assert edges[peak] <= 1.0 <= edges[peak + 1]


def test_kappa_sampling(rng):
    assert np.array_equal(sample_kappas(8, 0.0, rng), np.zeros(8))
    draws = sample_kappas(8, 0.05, np.random.default_rng(10))
    again = sample_kappas(8, 0.05, np.random.default_rng(10))
    assert np.array_equal(draws, again)
    samples = np.concatenate(
        [sample_kappas(8, 0.05, np.random.default_rng(k)) for k in range(10**4)])
    assert abs(samples.mean()) < 3 * 0.05 / np.sqrt(samples.size)


def test_white_noise_endpoints():
    rho = GHZ.projector()
    assert_allclose(white_noise_channel(rho, 0.0).elems, rho.elems, atol=1e-15)
    assert_allclose(white_noise_channel(rho, 1.0).elems, np.eye(8) / 8, atol=1e-15)
    with pytest.raises(ParameterError):
        white_noise_channel(rho, 1.2)


def test_white_noise_purity_half_mixed():
    # direct matrix arithmetic: Tr[(0.5 P + 0.0625 I)^2] = 0.34375
    rho = white_noise_channel(GHZ.projector(), 0.5)
    assert_allclose(float(np.trace(rho.elems @ rho.elems).real), 0.34375, atol=1e-12)


def test_channel_trace_and_hermiticity_preserved(rng):
    from dsmsim.states import random_density_matrix

    for d in (2, 4):
        rho = random_density_matrix(d, rng)
        out = white_noise_channel(rho, 0.3)
        assert abs(np.trace(out.elems) - 1.0) < 1e-12
        assert np.max(np.abs(out.elems - out.elems.conj().T)) < 1e-12


def test_depolarizing_kraus_matches_white_noise(rng):
    from dsmsim.states import random_density_matrix

    for d, eps in ((2, 0.0), (2, 0.35), (4, 0.8), (8, 1.0)):
        rho = random_density_matrix(d, rng)
        via_kraus = sum(op @ rho.elems @ op.conj().T for op in shift_clock_kraus(d, eps))
        direct = white_noise_channel(rho, eps)
        assert np.max(np.abs(via_kraus - direct.elems)) < 1e-12


def test_imperfect_hadamard_reduces_to_hadamard():
    ideal = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert_allclose(imperfect_hadamard(0.0), ideal, atol=1e-15)


def test_noisy_circuit_at_zero_is_ghz():
    assert_allclose(noisy_ghz_circuit(0.0).amps, GHZ.amps, atol=1e-12)


def test_noisy_circuit_alpha_point_two():
    # frozen trigonometric values (cos 0.1 -+ sin 0.1) / sqrt 2
    state = noisy_ghz_circuit(0.2)
    assert_allclose(state.amps[0], 0.6329813066769582, atol=1e-12)
    assert_allclose(state.amps[7], 0.7741670784769464, atol=1e-12)
    assert_allclose(np.abs(state.amps[1:7]), np.zeros(6), atol=1e-12)


def test_noisy_circuit_matches_closed_form_over_alpha_range():
    for alpha in np.linspace(-1.0, 1.0, 100):
        state = noisy_ghz_circuit(alpha)
        a = np.cos(alpha / 2) - np.sin(alpha / 2)
        b = np.cos(alpha / 2) + np.sin(alpha / 2)
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[7] = a / np.sqrt(2), b / np.sqrt(2)
        assert np.max(np.abs(state.amps - expected)) < 1e-12
        assert abs(0.5 * (a**2 + b**2) - 1.0) < 1e-12


def test_noisy_circuit_rejects_large_alpha():
    with pytest.raises(ParameterError):
        noisy_ghz_circuit(np.pi)


def test_norm_constant_distribution_mode_near_one():
    from dsmsim.metrics import norm_const_samples

    state = standard_state("haar", 3, seed=2)
    values = norm_const_samples(state, 0.05, 10**5, np.random.default_rng(6))
    hist, edges = np.histogram(values, bins=np.linspace(0.5, 1.75, 13))
    peak = int(np.argmax(hist))
    assert edges[peak] <= 1.0 <= edges[peak + 1]
