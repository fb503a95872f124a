"""Quantum-controlled measurement of pure states, configurations C1 and C2.

In C1 the control qubit toggles between the projector onto a computational
state |n> and its complement, and the target is postselected onto the
(noisy) uniform conjugate state. C2 interchanges those roles: the
interaction projects onto the conjugate state and the target is postselected
onto |n>. Either way the probe ends in an unnormalized two-component state

    C1:  ((Gamma - c_n psi'_n)|0> + c_n psi'_n|1>) / sqrt(2)
    C2:  ((psi'_n - c_n Gamma)|0> + c_n Gamma|1>) / sqrt(2)

with Gamma = sum_m c_m psi'_m, and Pauli-basis probe probabilities expose
the real and imaginary parts of psi'_n. pauli_table evaluates them, O(d)
per table and stacked, for the Monte Carlo engine; they are also the k = 0
column of the mixed protocol's conditional tables on |psi'><psi'|.

Sign note: with |L> = (|0> + i|1>)/sqrt(2) and |R> = (|0> - i|1>)/sqrt(2),
direct evaluation of the C2 probe state gives P_L - P_R = -c_n Gamma Im
psi'_n, i.e. the imaginary part enters with the opposite sign to C1. The C2
estimator below uses that sign, which is what makes the noiseless pipeline
exact for complex amplitudes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .metrics import vector_norms
from .states import PureState

CONFIGURATIONS = ("C1", "C2")


def _check_config(config: str) -> None:
    if config not in CONFIGURATIONS:
        raise ParameterError(f"configuration must be one of {CONFIGURATIONS}")


def pauli_table(amps, weights, config: str) -> np.ndarray:
    """Probe probabilities (p0, p1, p+, p-, pL, pR) [..., d, 6] of amplitude
    arrays psi' [..., d] under port weights c [..., d] (states.port_weights),
    stacked along leading axes; each table rounds as a lone one.

    Row n holds P_j = |<j|eta_n>|^2 for the unnormalized probe state eta_n
    of index n; each basis pair sums to the postselection success
    probability |eta_n|^2. It squares the probe amplitudes, where
    conditional_tables expands |eta_n|^2: a vanishing branch (C2's zero
    branch for the uniform state) is 0 here and a rounding residue there.
    """
    _check_config(config)
    amps, weights = np.asarray(amps, dtype=complex), np.asarray(weights, dtype=float)
    if weights.shape[-1:] != amps.shape[-1:]:
        raise ParameterError("need one port weight per basis index")
    gamma = (weights[..., None, :] @ amps[..., :, None])[..., 0]    # sum_m c_m psi'_m
    # sqrt(2) eta_n = a0|0> + a1|1>, projected onto |0>, |1>, |+>, |->, |L>, |R>
    a1 = weights * (amps if config == "C1" else gamma)
    a0 = (gamma if config == "C1" else amps) - a1
    probes = np.stack([a0, a1, a0 + a1, a0 - a1, a0 - 1j * a1, a0 + 1j * a1], axis=-1)
    return np.abs(probes) ** 2 * [0.5, 0.5, 0.25, 0.25, 0.25, 0.25]


def nominal_coefficients(d: int) -> np.ndarray:
    """The experimenter's intended conjugate coefficients, 1/sqrt(d)."""
    return np.full(d, 1.0 / np.sqrt(d))


def _check_nominal(nominal, d: int) -> np.ndarray:
    """The (d,) finite, positive port weights a reconstruction divides by."""
    nominal = nominal_coefficients(d) if nominal is None else np.asarray(nominal, dtype=float)
    if nominal.shape != (d,) or not np.all((nominal > 0.0) & (nominal < np.inf)):
        raise ParameterError("nominal coefficients must be finite and positive, one per index")
    return nominal


def reconstruct_amplitudes(prob_tables, config: str, nominal=None) -> np.ndarray:
    """Amplitude estimates [..., d] of Pauli tables [..., d, 6] stacked along
    leading axes, each rounded as a lone table is.

    Each table is laid out as pauli_table returns it. Forms
    v_n = (P_+ - P_- + 2 P_1) +/- i (P_L - P_R) (sign per configuration),
    divides by the nominal conjugate coefficients, and drops the unknown
    overall factor by renormalizing. The global phase is fixed by making the
    largest-magnitude amplitude real and positive.
    """
    _check_config(config)
    d = prob_tables.shape[-2]
    if d < 2:
        raise ParameterError("need at least two basis indices")
    nominal = _check_nominal(nominal, d)
    p1, p_plus, p_minus, p_l, p_r = np.moveaxis(prob_tables[..., 1:], -1, 0)
    sign = 1.0 if config == "C1" else -1.0
    vec = np.empty(prob_tables.shape[:-1], dtype=np.complex128)
    vec.real = p_plus - p_minus + 2.0 * p1
    vec.imag = sign * (p_l - p_r)
    vec = vec / nominal
    if not np.all(np.any(vec, axis=-1)):
        raise DegenerateDataError("reconstructed amplitudes are all zero")
    peak = np.take_along_axis(vec, np.argmax(np.abs(vec), axis=-1)[..., None], axis=-1)
    # np.hypot rounds as abs() of one complex number; np.abs differs from it
    # in the last bit for about a third of all inputs
    vec = vec * (peak.conj() / np.hypot(peak.real, peak.imag))
    return vec / vector_norms(vec)[..., None]


def reconstruct_pure(prob_table, config: str, nominal=None) -> PureState:
    """reconstruct_amplitudes of one table, as a validated state."""
    return PureState(reconstruct_amplitudes(prob_table, config, nominal))
