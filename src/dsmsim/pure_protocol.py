"""Quantum-controlled measurement of pure states, configurations C1 and C2.

In C1 the control qubit toggles between the projector onto a computational
state |n> and its complement, and the target is postselected onto the
(noisy) uniform conjugate state. C2 interchanges those roles: the
interaction projects onto the conjugate state and the target is postselected
onto |n>. Either way the probe ends in an unnormalized two-component state

    C1:  ((Gamma - c_n psi'_n)|0> + c_n psi'_n|1>) / sqrt(2)
    C2:  ((psi'_n - c_n Gamma)|0> + c_n Gamma|1>) / sqrt(2)

with Gamma = sum_m c_m psi'_m, and Pauli-basis probe probabilities expose
the real and imaginary parts of psi'_n.

Sign note: with |L> = (|0> + i|1>)/sqrt(2) and |R> = (|0> - i|1>)/sqrt(2),
direct evaluation of the C2 probe state gives P_L - P_R = -c_n Gamma Im
psi'_n, i.e. the imaginary part enters with the opposite sign to C1. The C2
estimator below uses that sign, which is what makes the noiseless pipeline
exact for complex amplitudes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .states import PureState

_SQRT2_INV = 1.0 / np.sqrt(2.0)

CONFIGURATIONS = ("C1", "C2")


def _check_config(config: str) -> str:
    if config not in CONFIGURATIONS:
        raise ParameterError(f"configuration must be one of {CONFIGURATIONS}")
    return config


def _probe_c1(amps, magnitudes, gamma: complex, n: int):
    cn_psi = magnitudes[n] * amps[n]
    return (gamma - cn_psi) * _SQRT2_INV, cn_psi * _SQRT2_INV


def _probe_c2(amps, magnitudes, gamma: complex, n: int):
    cn_gamma = magnitudes[n] * gamma
    return (amps[n] - cn_gamma) * _SQRT2_INV, cn_gamma * _SQRT2_INV


def _pauli_row(a0, a1) -> tuple:
    return (
        abs(a0) ** 2,
        abs(a1) ** 2,
        0.5 * abs(a0 + a1) ** 2,
        0.5 * abs(a0 - a1) ** 2,
        0.5 * abs(a0 - 1j * a1) ** 2,
        0.5 * abs(a0 + 1j * a1) ** 2,
    )


def pauli_table(psi_prime: PureState, coeff_rows, config: str) -> np.ndarray:
    """Probe probabilities (p0, p1, p+, p-, pL, pR) as one row per basis index.

    ``coeff_rows`` is the d x d conjugate basis of conjugate_coefficients;
    the probes use its k = 0 state, whose port weights c_m are the real part
    of row 0. Row n holds P_j = |<j|eta_n>|^2 for the unnormalized probe
    state eta_n of index n; each basis pair sums to the postselection
    success probability |eta_n|^2.
    """
    probe = _probe_c1 if _check_config(config) == "C1" else _probe_c2
    d = psi_prime.dim
    if coeff_rows.shape != (d, d):
        raise ParameterError("need the d x d conjugate basis of the state's dimension")
    amps, magnitudes = psi_prime.amps, coeff_rows[0].real
    gamma = complex(np.dot(magnitudes, amps))             # sum_m c_m psi'_m
    return np.array([_pauli_row(*probe(amps, magnitudes, gamma, n)) for n in range(d)])


def nominal_coefficients(d: int) -> np.ndarray:
    """The experimenter's intended conjugate coefficients, 1/sqrt(d)."""
    return np.full(d, 1.0 / np.sqrt(d))


def reconstruct_pure(prob_table, config: str, nominal=None) -> PureState:
    """Amplitude estimate from one (p0, p1, p+, p-, pL, pR) row per basis index.

    ``prob_table`` is laid out as pauli_table returns it. Forms
    v_n = (P_+ - P_- + 2 P_1) +/- i (P_L - P_R) (sign per configuration),
    divides by the nominal conjugate coefficients, and drops the unknown
    overall factor by renormalizing. The global phase is fixed by making the
    largest-magnitude amplitude real and positive.
    """
    _check_config(config)
    d = len(prob_table)
    if d < 2:
        raise ParameterError("need at least two basis indices")
    if nominal is None:
        nominal = nominal_coefficients(d)
    nominal = np.asarray(nominal, dtype=np.float64)
    if nominal.shape != (d,) or np.any(nominal <= 0.0):
        raise ParameterError("nominal coefficients must be positive, one per index")
    p1, p_plus, p_minus, p_l, p_r = prob_table[:, 1:].T
    sign = 1.0 if config == "C1" else -1.0
    vec = np.empty(d, dtype=np.complex128)
    vec.real = p_plus - p_minus + 2.0 * p1
    vec.imag = sign * (p_l - p_r)
    vec = vec / nominal
    if not np.any(vec):
        raise DegenerateDataError("reconstructed amplitudes are all zero")
    peak = int(np.argmax(np.abs(vec)))
    vec = vec * (vec[peak].conjugate() / abs(vec[peak]))
    return PureState(vec / np.linalg.norm(vec))
