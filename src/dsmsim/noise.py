"""SPAM noise models.

State-preparation noise perturbs each amplitude by an independent complex
Gaussian and renormalizes; postselection noise biases the conjugate-basis
detector ports (see states.make_conjugate_state). Mixed-state preparation
noise is the white-noise (depolarizing) channel acting on the density
matrix. A gate-level imperfect Hadamard circuit illustrates where
preparation noise comes from.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNoiseError, ParameterError
from .states import DensityMatrix, PureState


def perturb_pure_state(psi: PureState, sigma: float, rng) -> tuple[PureState, float]:
    """Apply amplitude noise (psi_n + delta_n) / N with delta_n = x1 + i x2.

    x1, x2 are i.i.d. Normal(0, sigma^2) per component. Returns the
    normalized state together with the realized normalization constant N.
    The draw is consumed even for sigma = 0 so random streams stay aligned
    across noise settings; in that case the input is returned unchanged.
    """
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    draws = rng.standard_normal((psi.dim, 2))
    if sigma == 0.0:
        return psi, 1.0
    for _ in range(2):
        delta = sigma * (draws[:, 0] + 1j * draws[:, 1])
        vec = psi.amps + delta
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            return PureState(vec / norm), norm
        draws = rng.standard_normal((psi.dim, 2))
    raise DegenerateNoiseError("perturbation annihilated the state twice")


def sample_kappas(d: int, sigma: float, rng) -> np.ndarray:
    """Real detector biases kappa_m ~ Normal(0, sigma^2), i.i.d."""
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    return sigma * rng.standard_normal(d)


def white_noise_channel(rho: DensityMatrix, epsilon: float) -> DensityMatrix:
    """Depolarize: (1 - epsilon) rho + epsilon I / d."""
    if not 0.0 <= epsilon <= 1.0:
        raise ParameterError("epsilon must lie in [0, 1]")
    d = rho.dim
    return DensityMatrix((1.0 - epsilon) * rho.elems + (epsilon / d) * np.eye(d))


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]],
        dtype=np.complex128,
    )


def imperfect_hadamard(alpha: float, beta: float = 0.0) -> np.ndarray:
    """Hadamard with rotation-angle errors: i R_y(pi/2 + alpha) R_z(pi + beta).

    alpha = beta = 0 recovers H exactly; beta only shifts phases and is
    conventionally 0.
    """
    return 1j * ry(np.pi / 2.0 + alpha) @ rz(np.pi + beta)


def apply_single_qubit_gate(amps: np.ndarray, gate: np.ndarray, qubit: int,
                            num_qubits: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a statevector (MSB-first ordering)."""
    tensor = amps.reshape([2] * num_qubits)
    tensor = np.tensordot(gate, tensor, axes=([1], [qubit]))
    # tensordot moved the acted-on axis to the front; put it back.
    tensor = np.moveaxis(tensor, 0, qubit)
    return tensor.reshape(-1)


def apply_cnot(amps: np.ndarray, control: int, target: int,
               num_qubits: int) -> np.ndarray:
    """Apply CNOT(control -> target) to a statevector (MSB-first ordering)."""
    tensor = amps.reshape([2] * num_qubits).copy()
    sel = [slice(None)] * num_qubits
    sel[control] = 1
    sel = tuple(sel)
    tensor[sel] = np.flip(tensor[sel], axis=target if target < control else target - 1)
    return tensor.reshape(-1)


def noisy_ghz_circuit(alpha: float) -> PureState:
    """Three-qubit GHZ preparation with an imperfect Hadamard on qubit 0.

    Composes the imperfect H with two CNOTs on |000>; the result is
    (a|000> + b|111>) / sqrt(2) with a = cos(alpha/2) - sin(alpha/2) and
    b = cos(alpha/2) + sin(alpha/2).
    """
    if not abs(alpha) < np.pi:
        raise ParameterError("|alpha| must be below pi")
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = 1.0
    amps = apply_single_qubit_gate(amps, imperfect_hadamard(alpha), 0, 3)
    amps = apply_cnot(amps, 0, 1, 3)
    amps = apply_cnot(amps, 0, 2, 3)
    return PureState(amps)
