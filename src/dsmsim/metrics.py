"""Distance measures and quantum Fisher information for amplitude estimation.

The per-component Fisher information treats each real amplitude as the
estimated parameter. For a noiseless real state Q_n = 4 (1 - |psi_n|^2),
summing to 4 (d - 1) regardless of the state; under real preparation noise
delta the total scales by the squared normalization constant,
Q' = 4 (d - 1) / N^2, so the Cramer-Rao variance floor 1 / Q crosses the
noiseless floor exactly at N = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNoiseError, ParameterError
from .states import DensityMatrix, PureState

REAL_ATOL = 1e-12


def vector_norms(vecs) -> np.ndarray:
    """np.linalg.norm of each complex vector stacked in ``vecs``, rounded as it
    rounds one: a (1, d) @ (d, 1) matmul runs its dot kernel."""
    re, im = vecs.real, vecs.imag
    sq_norms = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(sq_norms[..., 0, 0])


def trace_distances_pure(psis, phis) -> np.ndarray:
    """sqrt(1 - |<phi|psi>|^2) between amplitude vectors stacked in psis and
    in phis, leading axes broadcast; each pair rounds as a lone one.

    Evaluated as the norm of the component of |phi> orthogonal to |psi>,
    which keeps full precision near zero, where 1 - |<phi|psi>|^2 would
    drown in the inner product's rounding noise.
    """
    overlaps = (psis.conj()[..., None, :] @ phis[..., :, None])[..., 0]  # np.vdot
    return np.minimum(1.0, vector_norms(phis - psis * overlaps))


def trace_distance_pure(psi: PureState, phi: PureState) -> float:
    """trace_distances_pure of two states."""
    if psi.dim != phi.dim:
        raise ParameterError("states must share a dimension")
    return float(trace_distances_pure(psi.amps, phi.amps))


def trace_distance_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the absolute-eigenvalue sum of the difference."""
    if rho.dim != sigma.dim:
        raise ParameterError("states must share a dimension")
    return float(trace_distances(rho.elems, sigma.elems))


def trace_distances(rho, sigmas) -> np.ndarray:
    """trace_distance_mixed between matrices stacked in rho and in sigmas.

    Leading axes broadcast: one target per repetition, as the engine passes
    them, or a single target against every matrix in ``sigmas``.
    """
    eigs = np.linalg.eigvalsh(sigmas - rho)
    return 0.5 * np.sum(np.abs(eigs), axis=-1)


@dataclass(frozen=True)
class QfiReport:
    """Per-amplitude and total Fisher information with the variance floor."""

    per_component: np.ndarray
    total: float
    norm_const: float

    def __post_init__(self):
        per = np.asarray(self.per_component, dtype=np.float64)
        per.setflags(write=False)
        object.__setattr__(self, "per_component", per)
        if not 0.0 < self.total < np.inf:
            raise ParameterError("total Fisher information must be finite and positive")

    @property
    def variance(self) -> float:
        return 1.0 / self.total


def _require_real(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values)
    if np.iscomplexobj(values):
        if np.max(np.abs(values.imag)) > REAL_ATOL:
            raise ParameterError(f"{what} must be real for the Fisher analysis")
        values = values.real
    return values.astype(np.float64)


def qfi_pure(psi: PureState) -> QfiReport:
    """Noiseless per-amplitude information Q_n = 4 (1 - |psi_n|^2)."""
    per = 4.0 * (1.0 - np.abs(psi.amps) ** 2)
    return QfiReport(per_component=per, total=float(per.sum()), norm_const=1.0)


def qfi_noisy(psi: PureState, deltas) -> QfiReport:
    """Information for (psi + delta) / N with real psi and real delta."""
    amps = _require_real(psi.amps, "state amplitudes")
    deltas = _require_real(deltas, "perturbations")
    if deltas.shape != amps.shape or not np.all(np.isfinite(deltas)):
        raise ParameterError("need one finite perturbation per amplitude")
    shifted = amps + deltas
    norm_sq = float(np.sum(shifted**2))
    if norm_sq <= 0.0:
        raise DegenerateNoiseError("perturbation annihilated the state")
    per = (4.0 / norm_sq) * (1.0 - shifted**2 / norm_sq)
    return QfiReport(per_component=per, total=float(per.sum()),
                     norm_const=float(np.sqrt(norm_sq)))


def norm_const_samples(psi: PureState, sigma: float, reps: int, rng) -> np.ndarray:
    """Realized normalization constants under real per-amplitude noise."""
    if not 0.0 <= sigma < np.inf:
        raise ParameterError("sigma must be finite and nonnegative")
    if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)) or reps < 1:
        raise ParameterError("reps must be a positive integer")
    deltas = sigma * rng.standard_normal((reps, psi.dim))
    return np.sqrt(np.sum(np.abs(psi.amps[None, :] + deltas) ** 2, axis=1))
