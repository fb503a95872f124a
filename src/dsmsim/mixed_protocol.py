"""Quantum-controlled measurement of mixed states.

The joint input is rho' (x) |+><+|. After the controlled interaction the
probe is conditioned on a postselection outcome, leaving an unnormalized
2x2 probe matrix Lambda''(n, k): in C1 the interaction index is n and the
detector resolves the conjugate index k; in C2 the interaction projects
onto |c'_k> and the detector resolves |n>. Both configurations keep every
postselection outcome (scan-free), so the full (n, k) table is available
and an inverse Fourier sum over k recovers rho'_{nm} up to one overall
constant, which the final physicalization step removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDataError, ParameterError, PhysicsError
from .pure_protocol import PauliProbabilities, _check_config, nominal_coefficients
from .states import ConjugateState, DensityMatrix


@dataclass(frozen=True)
class ProbeConditional:
    """Unnormalized probe matrix Lambda''(n, k); trace = postselection weight."""

    m00: float
    m01: complex
    m11: float

    def __post_init__(self):
        if self.m00 < -1e-12 or self.m11 < -1e-12:
            raise PhysicsError("probe matrix diagonal must be nonnegative")
        if self.m00 + self.m11 > 1.0 + 1e-12:
            raise PhysicsError("probe matrix trace exceeds 1")
        object.__setattr__(self, "m00", max(self.m00, 0.0))
        object.__setattr__(self, "m11", max(self.m11, 0.0))

    @property
    def m10(self) -> complex:
        return self.m01.conjugate()

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.m00, self.m01], [self.m10, self.m11]],
                        dtype=np.complex128)


def _check_finite(raw: np.ndarray):
    if not np.all(np.isfinite(raw)):
        raise ParameterError("raw reconstruction has non-finite entries")


@dataclass(frozen=True)
class RawReconstruction:
    """Pre-physicalization amplitude table; arbitrary scale, not a state."""

    elems: np.ndarray

    def __post_init__(self):
        elems = np.asarray(self.elems, dtype=np.complex128)
        if elems.ndim != 2 or elems.shape[0] != elems.shape[1]:
            raise ParameterError("raw reconstruction must be square")
        _check_finite(elems)
        object.__setattr__(self, "elems", elems)

    @property
    def dim(self) -> int:
        return self.elems.shape[0]


def _check_mixed_inputs(rho: DensityMatrix, conj: ConjugateState, n: int):
    if conj.dim != rho.dim:
        raise ParameterError("state and conjugate-state dimensions differ")
    if not 0 <= n < rho.dim:
        raise ParameterError(f"basis index {n} outside [0, {rho.dim})")


def probe_conditional_c1(rho: DensityMatrix, n: int,
                         post: ConjugateState) -> ProbeConditional:
    """Probe matrix for interaction index n, postselected onto |c'_k>."""
    _check_mixed_inputs(rho, post, n)
    v = post.coeffs
    rv = rho.elems @ v
    overlap = float(np.vdot(v, rv).real)          # <c'_k| rho |c'_k>
    row = v[n].conjugate() * rv[n]                # <c'_k|n><n| rho |c'_k>
    col = complex(np.vdot(v, rho.elems[:, n]) * v[n])
    rnn = float(rho.elems[n, n].real)
    weight = float(abs(v[n]) ** 2)
    return ProbeConditional(
        m00=0.5 * (overlap - 2.0 * row.real + rnn * weight),
        m01=0.5 * (col - rnn * weight),
        m11=0.5 * rnn * weight,
    )


def probe_conditional_c2(rho: DensityMatrix, inter: ConjugateState,
                         n: int) -> ProbeConditional:
    """Probe matrix for conjugate-projector interaction, postselected onto |n>."""
    _check_mixed_inputs(rho, inter, n)
    v = inter.coeffs
    rv = rho.elems @ v
    overlap = float(np.vdot(v, rv).real)
    cross = complex(rv[n] * v[n].conjugate())     # <n| rho |c'_k><c'_k|n>
    rnn = float(rho.elems[n, n].real)
    weight = float(abs(v[n]) ** 2)
    return ProbeConditional(
        m00=0.5 * (rnn - 2.0 * cross.real + weight * overlap),
        m01=0.5 * (cross - weight * overlap),
        m11=0.5 * weight * overlap,
    )


def pauli_from_conditionals(m00, m01, m11) -> np.ndarray:
    """P_j = Tr(|j><j| Lambda'') for the six Pauli eigenstates, elementwise.

    Takes the entries of one probe matrix or whole tables of them and
    returns (p0, p1, p+, p-, pL, pR) along a new last axis.
    """
    m01 = np.asarray(m01)
    half_trace = 0.5 * (m00 + m11)
    return np.stack([
        np.asarray(m00, dtype=np.float64),
        np.asarray(m11, dtype=np.float64),
        half_trace + m01.real,
        half_trace - m01.real,
        half_trace - m01.imag,
        half_trace + m01.imag,
    ], axis=-1)


def conditional_probabilities(lam: ProbeConditional) -> PauliProbabilities:
    """P_j = Tr(|j><j| Lambda'') for the six Pauli eigenstates."""
    return PauliProbabilities(*pauli_from_conditionals(lam.m00, lam.m01, lam.m11))


@dataclass(frozen=True)
class LambdaEstimate:
    """The measurable probe-matrix entries for one (n, k) cell.

    ``off_diag`` is Lambda''_10 in C1 and Lambda''_01 in C2; ``diag11`` is
    Lambda''_11 in both.
    """

    off_diag: complex
    diag11: float


def lambda_tables(pauli, config: str):
    """Probe-matrix entries from Pauli readout probabilities, elementwise.

    ``pauli`` holds (p0, p1, p+, p-, pL, pR) along its last axis; returns
    the off-diagonal entry (as in LambdaEstimate) and Lambda''_11 as arrays
    over the leading axes.
    """
    _check_config(config)
    pauli = np.asarray(pauli, dtype=np.float64)
    delta_y = pauli[..., 4] - pauli[..., 5]
    rotated = np.empty(pauli.shape[:-1], dtype=np.complex128)
    rotated.real = pauli[..., 2] - pauli[..., 3]
    rotated.imag = delta_y if config == "C1" else -delta_y
    return 0.5 * rotated, pauli[..., 1]


def lambda_from_pauli(probs: PauliProbabilities, config: str) -> LambdaEstimate:
    """Recover the probe-matrix entries from Pauli readout probabilities."""
    off, diag = lambda_tables(list(probs.as_dict().values()), config)
    return LambdaEstimate(off_diag=complex(off), diag11=float(diag))


def conditional_tables(rho, family, config: str):
    """All probe-conditional entries over (n, k) in one vectorized pass.

    ``rho`` is a DensityMatrix or an array of density-matrix entries, which
    may stack matrices along leading axes. ``family`` is the conjugate
    family: d ConjugateStates, or their d x d coefficient array from
    conjugate_coefficients, which may stack several families along leading
    axes. Returns (m00, m01, m11) arrays indexed [..., n, k]; cell (n, k)
    equals the matching probe_conditional_* entries.
    """
    _check_config(config)
    rho = rho.elems if isinstance(rho, DensityMatrix) else np.asarray(rho)
    d = rho.shape[-1]
    coeff_rows = family                                            # [..., k, n]
    if not isinstance(coeff_rows, np.ndarray):
        if len(family) != d:
            raise ParameterError("need one conjugate state per index k")
        coeff_rows = np.array([state.coeffs for state in family])
    if coeff_rows.shape[-2:] != (d, d):
        raise ParameterError("need one conjugate state per index k")
    coeff_cols = np.swapaxes(coeff_rows, -1, -2)                   # [..., n, k]
    rho_v = rho @ coeff_cols                                       # (rho v_k)[n]
    v_rho = coeff_rows.conj() @ rho                                # (v_k^dag rho)[n]
    overlaps = np.einsum("...kn,...nk->...k", coeff_rows.conj(), rho_v).real
    # |v_k[n]|^2 is k-free; row 0 carries no phase, so its real part is c_n
    weights = coeff_rows[..., 0, :].real ** 2
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    if config == "C1":
        diag_weights = (diag * weights)[..., :, None]
        m11 = 0.5 * (diag_weights * np.ones(d))
        m01 = 0.5 * (np.swapaxes(v_rho, -1, -2) * coeff_cols - 2.0 * m11)
        m00 = 0.5 * (overlaps[..., None, :]
                     - 2.0 * (coeff_cols.conj() * rho_v).real
                     + diag_weights)
    else:
        cross = rho_v * coeff_cols.conj()
        mixer = weights[..., :, None] * overlaps[..., None, :]
        m11 = 0.5 * mixer
        m01 = 0.5 * (cross - mixer)
        m00 = 0.5 * (diag[..., :, None] - 2.0 * cross.real + mixer)
    return m00.real, m01, m11.real


def exact_lambda_tables(rho: DensityMatrix, family, config: str):
    """Noise-free (n, k) tables of off-diagonal and diagonal probe entries."""
    _check_config(config)
    d = rho.dim
    if len(family) != d:
        raise ParameterError("need one conjugate state per index k")
    off = np.empty((d, d), dtype=np.complex128)
    diag = np.empty((d, d), dtype=np.float64)
    for n in range(d):
        for k in range(d):
            if config == "C1":
                cell = probe_conditional_c1(rho, n, family[k])
                off[n, k] = cell.m10
            else:
                cell = probe_conditional_c2(rho, family[k], n)
                off[n, k] = cell.m01
            diag[n, k] = cell.m11
    return off, diag


def _check_tables(off_diag, diag11):
    off_diag = np.asarray(off_diag, dtype=np.complex128)
    diag11 = np.asarray(diag11, dtype=np.float64)
    d = off_diag.shape[-1]
    if off_diag.shape[-2:] != (d, d) or diag11.shape != off_diag.shape:
        raise ParameterError("lambda tables must both be d x d over (n, k)")
    return off_diag, diag11, d


@lru_cache(maxsize=None)
def _inverse_fourier_phases(d: int) -> np.ndarray:
    """phases[n, m] = e^(i 2 pi (n - m) k / d) over k, as a read-only column."""
    ks = np.arange(d)
    phases = np.array([[np.exp(2j * np.pi * (n - m) * ks / d) for m in range(d)]
                       for n in range(d)])[..., None]
    phases.setflags(write=False)
    return phases


def _inverse_fourier_sum(table: np.ndarray, d: int) -> np.ndarray:
    # Entry (n, m) is row n of the table, a (1, d) matrix, times the (d, 1)
    # phase column of (n, m). NumPy evaluates that product with the dot
    # kernel of two vectors, so every entry rounds as one dot product
    # whatever the leading axes; a (d, d) @ (d, d) product rounds otherwise,
    # and the result tables are pinned bit for bit.
    return (table[..., :, None, None, :] @ _inverse_fourier_phases(d))[..., 0, 0]


def raw_reconstruction(off_diag, diag11, config: str, nominal=None) -> np.ndarray:
    """Raw tables of reconstruct_mixed_c1/c2 for tables [..., n, k]."""
    _check_config(config)
    off_diag, diag11, d = _check_tables(off_diag, diag11)
    if nominal is None:
        nominal = nominal_coefficients(d)
    nominal = np.asarray(nominal, dtype=np.float64)
    if config == "C1":
        raw = _inverse_fourier_sum(off_diag, d)
        raw[..., np.arange(d), np.arange(d)] += d * diag11.mean(axis=-1)
    else:
        raw = _inverse_fourier_sum(off_diag + diag11, d)
    raw = raw / np.outer(nominal, nominal)
    _check_finite(raw)
    return raw


def reconstruct_mixed_c1(off_diag, diag11, nominal=None) -> RawReconstruction:
    """Inverse Fourier sum over k of Lambda''_10(n, k).

    The diagonal term uses the k-average of Lambda''_11(n, k): the exact
    entry is k-independent, so averaging the sampled estimates reduces
    variance without bias.
    """
    return RawReconstruction(raw_reconstruction(off_diag, diag11, "C1", nominal))


def reconstruct_mixed_c2(off_diag, diag11, nominal=None) -> RawReconstruction:
    """Inverse Fourier sum over k of Lambda''_01(n, k) + Lambda''_11(n, k)."""
    return RawReconstruction(raw_reconstruction(off_diag, diag11, "C2", nominal))


def physicalize_tables(raw) -> np.ndarray:
    """physicalize for raw tables stacked along leading axes; not validated.

    Returns raw^dag raw / Tr(raw^dag raw) per table; the caller checks the
    result with check_density_matrices.
    """
    gram = np.swapaxes(raw.conj(), -1, -2) @ raw
    traces = np.trace(gram, axis1=-2, axis2=-1).real
    if not np.all(np.isfinite(traces)) or np.any(traces <= 0.0):
        raise DegenerateDataError("raw reconstruction is zero; nothing to normalize")
    return gram / traces[..., None, None]


def physicalize(raw: RawReconstruction) -> DensityMatrix:
    """Map a raw table to a legal state: rho~ = raw^dag raw / Tr(raw^dag raw).

    Hermitian, PSD, and trace-one by construction, but note the eigenvalue
    squaring: a raw table proportional to a non-projector state does not map
    back to that state.
    """
    return DensityMatrix(physicalize_tables(raw.elems))
