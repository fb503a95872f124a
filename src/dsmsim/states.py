"""Quantum state representations and standard state constructors.

The computational basis is indexed 0..d-1. Multi-qubit kets are labeled
most-significant-qubit first, so |q0 q1 q2> maps to the integer
q0*4 + q1*2 + q2 and the GHZ state occupies indices 0 and d-1.

The conjugate basis is the discrete-Fourier partner of the computational
basis. A detector with per-port bias kappa_m resolves the distorted vectors
|c'_k> = sum_m e^(i 2 pi m k / d) (1 + kappa_m) / M |m>, which reduce to the
exact Fourier vectors when all kappa_m vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateNoiseError, ParameterError

# Tolerance for algebraic identities at the dimensions used here (d <= 64).
ATOL = 1e-12
# Eigenvalue floor for positive semidefiniteness checks.
PSD_ATOL = 1e-10


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over the computational basis."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim != 1:
            raise ParameterError("amplitudes must form a 1-D vector")
        if amps.shape[0] < 2:
            raise ParameterError("state dimension must be at least 2")
        if not np.all(np.isfinite(amps)):
            raise ParameterError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > ATOL:
            raise ParameterError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        object.__setattr__(self, "amps", _frozen_array(amps, np.complex128))

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def projector(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


def check_density_matrices(elems) -> None:
    """Validate density matrices stacked along leading axes.

    Each d x d matrix must be Hermitian, have trace one and no eigenvalue
    below -1e-10. Raises ParameterError naming the first check any matrix
    fails.
    """
    elems = np.asarray(elems, dtype=np.complex128)
    if elems.ndim < 2 or elems.shape[-1] != elems.shape[-2]:
        raise ParameterError("density matrix must be square")
    if elems.shape[-1] < 2:
        raise ParameterError("dimension must be at least 2")
    if np.max(np.abs(elems - np.swapaxes(elems.conj(), -1, -2))) > ATOL:
        raise ParameterError("density matrix is not Hermitian")
    traces = np.trace(elems, axis1=-2, axis2=-1)
    worst = np.unravel_index(np.argmax(np.abs(traces - 1.0)), traces.shape)
    trace = complex(traces[worst])
    if abs(trace - 1.0) > ATOL:
        raise ParameterError(f"trace must be 1, got {trace!r}")
    if float(np.linalg.eigvalsh(elems)[..., 0].min()) < -PSD_ATOL:
        raise ParameterError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix."""

    elems: np.ndarray

    def __post_init__(self):
        elems = np.asarray(self.elems, dtype=np.complex128)
        if elems.ndim != 2:
            raise ParameterError("density matrix must be square")
        check_density_matrices(elems)
        object.__setattr__(self, "elems", _frozen_array(elems, np.complex128))

    @property
    def dim(self) -> int:
        return self.elems.shape[0]


@dataclass(frozen=True)
class ConjugateState:
    """One element |c'_k> of the (possibly detector-biased) conjugate basis.

    ``magnitudes`` holds the real port weights c_m = (1 + kappa_m) / M and
    ``coeffs`` the full complex amplitudes including the Fourier phases.
    """

    dim: int
    index: int
    kappas: np.ndarray
    magnitudes: np.ndarray
    coeffs: np.ndarray
    norm_const: float

    def __post_init__(self):
        object.__setattr__(self, "kappas", _frozen_array(self.kappas, np.float64))
        object.__setattr__(self, "magnitudes", _frozen_array(self.magnitudes, np.float64))
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs, np.complex128))


@lru_cache(maxsize=None)
def _fourier_phases(d: int) -> np.ndarray:
    """Row k holds the phases e^(i 2 pi k m / d) of |c'_k>; read-only."""
    phases = np.array([np.exp(2j * np.pi * k * np.arange(d) / d) for k in range(d)])
    phases.setflags(write=False)
    return phases


def _port_weights(d: int, kappas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kappas, magnitudes c_m, norm constant M) for detector-bias draws.

    ``kappas`` holds one draw along its last axis; M keeps that axis with
    length one.
    """
    if d < 2:
        raise ParameterError("dimension must be at least 2")
    if kappas is None:
        kappas = np.zeros(d)
    kappas = np.asarray(kappas, dtype=np.float64)
    if kappas.shape[-1:] != (d,):
        raise ParameterError("kappas must have one entry per basis state")
    weights = 1.0 + kappas
    if np.any(weights <= 0.0):
        raise DegenerateNoiseError("postselection noise produced 1 + kappa <= 0")
    norm_const = np.sqrt(np.sum(weights**2, axis=-1, keepdims=True))
    return kappas, weights / norm_const, norm_const


def make_conjugate_state(d: int, k: int = 0, kappas=None) -> ConjugateState:
    """Build |c'_k> for detector bias ``kappas`` (zeros give the exact basis).

    Raises DegenerateNoiseError when any 1 + kappa_m <= 0: such a draw
    corresponds to a detector port with non-positive response and would
    silently bias statistics if clamped.
    """
    if d < 2:
        raise ParameterError("dimension must be at least 2")
    if not 0 <= k < d:
        raise ParameterError(f"conjugate index must lie in [0, {d}), got {k}")
    if np.ndim(kappas) > 1:
        raise ParameterError("kappas must have one entry per basis state")
    kappas, magnitudes, norm_const = _port_weights(d, kappas)
    return ConjugateState(
        dim=d,
        index=k,
        kappas=kappas,
        magnitudes=magnitudes,
        coeffs=magnitudes * _fourier_phases(d)[k],
        norm_const=norm_const.item(),
    )


def conjugate_coefficients(d: int, kappas=None) -> np.ndarray:
    """The conjugate family as one d x d array: row k holds the coeffs of |c'_k>.

    Row 0 carries no phase, so its real part is the port weights c_m.
    ``kappas`` may stack several draws along leading axes, which the result
    keeps. Raises DegenerateNoiseError like make_conjugate_state.
    """
    return _port_weights(d, kappas)[1][..., None, :] * _fourier_phases(d)


def _dicke_amplitudes(num_qubits: int, excitations: int) -> np.ndarray:
    d = 2**num_qubits
    amps = np.zeros(d, dtype=np.complex128)
    hits = [i for i in range(d) if bin(i).count("1") == excitations]
    amps[hits] = 1.0 / np.sqrt(len(hits))
    return amps


def standard_state(kind: str, num_qubits: int, seed=None, excitations=None) -> PureState:
    """Construct a named benchmark state on ``num_qubits`` qubits.

    kind: "ghz", "w", "dicke" (requires ``excitations``), or "haar"
    (uniformly random, reproducible under ``seed``).
    """
    if num_qubits < 1:
        raise ParameterError("need at least one qubit")
    d = 2**num_qubits
    kind = kind.lower()
    if kind == "ghz":
        amps = np.zeros(d, dtype=np.complex128)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
        return PureState(amps)
    if kind == "w":
        if num_qubits == 1:
            raise ParameterError("W state needs at least two qubits")
        return PureState(_dicke_amplitudes(num_qubits, 1))
    if kind == "dicke":
        if excitations is None:
            raise ParameterError("Dicke state needs an excitation count")
        if not 0 < excitations < num_qubits:
            raise ParameterError(
                f"excitations must lie strictly between 0 and {num_qubits}"
            )
        return PureState(_dicke_amplitudes(num_qubits, excitations))
    if kind == "haar":
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return PureState(vec / np.linalg.norm(vec))
    raise ParameterError(f"unknown state kind: {kind!r}")


def random_density_matrix(d: int, rng) -> DensityMatrix:
    """Full-rank random density matrix from the Ginibre ensemble."""
    if d < 2:
        raise ParameterError("dimension must be at least 2")
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)
