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
per table, as Pauli cells: the k = 0 column of the mixed protocol's cells
on |psi'><psi'|. lambda_tables reads the probe entries back from both, and
reconstruct_amplitudes takes them as raw_reconstruction does.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .metrics import vector_norms
from .states import PureState, port_weights

CONFIGURATIONS = ("C1", "C2")


def _check_config(config: str) -> None:
    if config not in CONFIGURATIONS:
        raise ParameterError(f"configuration must be one of {CONFIGURATIONS}")


def pauli_table(amps, weights, config: str) -> np.ndarray:
    """Probe probabilities of amplitude arrays psi' [..., d] under port
    weights c [..., d] (states.port_weights), as Pauli cells [..., d, basis
    Z/X/Y, eigenvalue], the layout lambda_tables reads: (p0, p1), (p+, p-),
    (pL, pR). Stacked along leading axes; each table rounds as a lone one.

    Cell n holds P_j = |<j|eta_n>|^2 for the unnormalized probe state eta_n
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
    return (np.abs(probes) ** 2 * [0.5, 0.5, 0.25, 0.25, 0.25, 0.25]).reshape(*a0.shape, 3, 2)


def _check_nominal(nominal, d: int) -> np.ndarray:
    """Finite, positive port weights (d,) to divide by; None: port_weights(d)."""
    nominal = port_weights(d) if nominal is None else np.asarray(nominal, dtype=float)
    if nominal.shape != (d,) or not np.all((nominal > 0.0) & (nominal < np.inf)):
        raise ParameterError("nominal coefficients must be finite and positive, one per index")
    return nominal


def lambda_tables(pauli, config: str):
    """Probe-matrix entries of Pauli cells [..., basis Z/X/Y, eigenvalue] of
    any strides, elementwise: the off-diagonal entry (Lambda''_10 in C1,
    Lambda''_01 in C2) and Lambda''_11, as arrays over the leading axes.

    Sign note: with |L> = (|0> + i|1>)/sqrt(2) and |R> = (|0> - i|1>)/sqrt(2),
    the C2 probe state gives P_L - P_R = -c_n Gamma Im psi'_n, the opposite
    sign to C1. Both reconstructions read it here, which is what makes the
    noiseless pipeline exact for complex amplitudes.
    """
    _check_config(config)
    pauli = np.asarray(pauli, dtype=np.float64)
    delta_y = pauli[..., 2, 0] - pauli[..., 2, 1]
    rotated = np.empty(pauli.shape[:-2], dtype=np.complex128)
    rotated.real = pauli[..., 1, 0] - pauli[..., 1, 1]
    rotated.imag = delta_y if config == "C1" else -delta_y
    return 0.5 * rotated, pauli[..., 0, 1]


def reconstruct_amplitudes(off_diag, diag11, nominal=None) -> np.ndarray:
    """Amplitude estimates [..., d] of the probe entries [..., d] that
    lambda_tables reads, stacked along leading axes, each rounded alone.

    Forms v_n = 2 (Lambda''_off + Lambda''_11) = (P_+ - P_- + 2 P_1) +/- i
    (P_L - P_R), divides by the nominal port weights, and renormalizes.
    The global phase is fixed by making the largest-magnitude amplitude
    real and positive.
    """
    off_diag, diag11 = np.asarray(off_diag, dtype=complex), np.asarray(diag11, dtype=float)
    d = off_diag.shape[-1] if off_diag.ndim else 0
    if d < 2 or diag11.shape != off_diag.shape:
        raise ParameterError("need both probe entries of at least two basis indices")
    nominal = _check_nominal(nominal, d)
    # halving and doubling are exact, so v rounds as P_+ - P_- + 2 P_1 does
    vec = 2.0 * (off_diag + diag11) / nominal
    if not np.all(np.any(vec, axis=-1)):
        raise DegenerateDataError("reconstructed amplitudes are all zero")
    peak = np.take_along_axis(vec, np.argmax(np.abs(vec), axis=-1)[..., None], axis=-1)
    # np.hypot rounds as abs() of one complex number; np.abs differs from it
    # in the last bit for about a third of all inputs
    vec = vec * (peak.conj() / np.hypot(peak.real, peak.imag))
    return vec / vector_norms(vec)[..., None]


def reconstruct_pure(prob_table, config: str, nominal=None) -> PureState:
    """reconstruct_amplitudes of one table of Pauli cells [d, 3, 2], a state."""
    return PureState(reconstruct_amplitudes(*lambda_tables(prob_table, config), nominal))
