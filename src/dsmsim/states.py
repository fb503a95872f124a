"""Quantum state representations and standard state constructors.

The computational basis is indexed 0..d-1. Multi-qubit kets are labeled
most-significant-qubit first, so |q0 q1 q2> maps to the integer
q0*4 + q1*2 + q2 and the GHZ state occupies indices 0 and d-1.

The conjugate basis is the discrete-Fourier partner of the computational
basis. A detector with per-port bias kappa_m resolves the distorted vectors
|c'_k> = sum_m e^(i 2 pi m k / d) (1 + kappa_m) / M |m>, which reduce to the
exact Fourier vectors when all kappa_m vanish. port_weights gives the c_m
of |c'_0>, the noise both tables take; conjugate_coefficients gives the
whole basis as one d x d array, row k the coefficients of |c'_k>. It and
the mixed inverse Fourier sum read one cached (2d - 1) x d phase table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateNoiseError, ParameterError

# Tolerance for algebraic identities; the tests reach pure d = 1024 and mixed
# d = 256, where norms, Hermiticity and traces stray by under 1e-15.
ATOL = 1e-12
# Eigenvalue floor for positive semidefiniteness checks: a density matrix,
# whose entries must be finite, passes when rho + PSD_ATOL * I (1e-10 I)
# admits a Cholesky factor, that is when no eigenvalue lies below -PSD_ATOL.
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

    Each d x d matrix must have finite entries, be Hermitian, have trace
    one and no eigenvalue below -PSD_ATOL, tested as "rho + 1e-10 I admits
    a Cholesky factor". Raises ParameterError naming the first check any
    matrix fails.
    """
    elems = np.asarray(elems, dtype=np.complex128)
    if elems.ndim < 2 or elems.shape[-1] != elems.shape[-2]:
        raise ParameterError("density matrix must be square")
    if elems.shape[-1] < 2:
        raise ParameterError("dimension must be at least 2")
    if not np.all(np.isfinite(elems)):
        raise ParameterError("density matrix entries must be finite")
    if np.max(np.abs(elems - np.swapaxes(elems.conj(), -1, -2))) > ATOL:
        raise ParameterError("density matrix is not Hermitian")
    traces = np.trace(elems, axis1=-2, axis2=-1)
    worst = np.unravel_index(np.argmax(np.abs(traces - 1.0)), traces.shape)
    trace = complex(traces[worst])
    if abs(trace - 1.0) > ATOL:
        raise ParameterError(f"trace must be 1, got {trace!r}")
    # Cholesky reads only the lower triangle, so it runs after the
    # Hermitian check. It succeeds only when the shifted matrix is positive
    # definite, which differs from "no eigenvalue below -PSD_ATOL" only at
    # an eigenvalue of exactly -PSD_ATOL, where rounding decides either way.
    try:
        np.linalg.cholesky(elems + PSD_ATOL * np.eye(elems.shape[-1]))
    except np.linalg.LinAlgError:
        raise ParameterError("density matrix has a negative eigenvalue") from None


@dataclass(frozen=True)
class DensityMatrix:
    """Finite, Hermitian, positive-semidefinite, trace-one matrix.

    Validated by check_density_matrices: positivity is tested as
    "rho + 1e-10 I admits a Cholesky factor".
    """

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


@lru_cache(maxsize=None)
def _fourier_differences(d: int) -> np.ndarray:
    """Read-only (2d - 1) x d table: row d - 1 - j holds e^(i 2 pi j k / d)
    over k, for j = d - 1 down to 1 - d."""
    ks = np.arange(d)
    table = np.array([np.exp(2j * np.pi * j * ks / d) for j in range(d - 1, -d, -1)])
    table.setflags(write=False)
    return table


def port_weights(d: int, kappas=None) -> np.ndarray:
    """Port weights c_m = (1 + kappa_m) / M of |c'_0>, one row per kappa draw
    stacked along leading axes (kappas None: the exact basis). Raises
    ParameterError on non-finite kappas and DegenerateNoiseError when any
    1 + kappa_m <= 0, a detector port with non-positive response, which
    clamping would silently turn into biased statistics."""
    if d < 2:
        raise ParameterError("dimension must be at least 2")
    kappas = np.zeros(d) if kappas is None else np.asarray(kappas, dtype=np.float64)
    if kappas.shape[-1:] != (d,):
        raise ParameterError("kappas must have one entry per basis state")
    if not np.all(np.isfinite(kappas)):
        raise ParameterError("kappas must be finite")
    weights = 1.0 + kappas
    if np.any(weights <= 0.0):
        raise DegenerateNoiseError("postselection noise produced 1 + kappa <= 0")
    return weights / np.sqrt(np.sum(weights**2, axis=-1, keepdims=True))


def _conjugate_rows(weights: np.ndarray) -> np.ndarray:
    """Rows k = c_m e^(i 2 pi k m / d), the |c'_k>, of port weights c [..., d]."""
    d = weights.shape[-1]
    return weights[..., None, :] * _fourier_differences(d)[d - 1::-1]


def conjugate_coefficients(d: int, kappas=None) -> np.ndarray:
    """The conjugate basis as one d x d array per kappa draw: row k holds the
    coeffs of |c'_k>, port_weights times the phases e^(i 2 pi k m / d)."""
    return _conjugate_rows(port_weights(d, kappas))


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
