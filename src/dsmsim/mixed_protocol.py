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

from functools import lru_cache

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .pure_protocol import _check_config, nominal_coefficients


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


def lambda_tables(pauli, config: str):
    """Probe-matrix entries from Pauli readout probabilities, elementwise.

    ``pauli`` holds (p0, p1, p+, p-, pL, pR) along its last axis; returns
    the measurable entries as arrays over the leading axes: the off-diagonal
    entry, Lambda''_10 in C1 and Lambda''_01 in C2, and Lambda''_11.
    """
    _check_config(config)
    pauli = np.asarray(pauli, dtype=np.float64)
    delta_y = pauli[..., 4] - pauli[..., 5]
    rotated = np.empty(pauli.shape[:-1], dtype=np.complex128)
    rotated.real = pauli[..., 2] - pauli[..., 3]
    rotated.imag = delta_y if config == "C1" else -delta_y
    return 0.5 * rotated, pauli[..., 1]


def conditional_tables(rho, coeff_rows, config: str):
    """All probe-conditional entries over (n, k) in one vectorized pass.

    ``rho`` holds density-matrix entries and ``coeff_rows`` the conjugate
    family as the d x d coefficient array of conjugate_coefficients (row k
    holds |c'_k>); either may stack along leading axes. Returns (m00, m01, m11) arrays indexed
    [..., n, k]: the unnormalized 2 x 2 probe matrix Lambda''(n, k), whose
    trace is the postselection weight, for interaction index n postselected
    onto |c'_k> (C1) or interaction |c'_k> postselected onto |n> (C2).
    """
    _check_config(config)
    rho = np.asarray(rho)
    d = rho.shape[-1]
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
    """Inverse Fourier sum over k of lambda tables [..., n, k]; arbitrary scale.

    C1 sums Lambda''_10(n, k); its diagonal uses the k-average of
    Lambda''_11(n, k), which is exactly k-independent, so averaging the
    sampled estimates reduces variance without bias. C2 sums
    Lambda''_01(n, k) + Lambda''_11(n, k). Raises ParameterError on
    non-finite entries.
    """
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
    if not np.all(np.isfinite(raw)):
        raise ParameterError("raw reconstruction has non-finite entries")
    return raw


def physicalize_tables(raw) -> np.ndarray:
    """Map raw tables, stacked along leading axes, to legal states.

    Returns rho~ = raw^dag raw / Tr(raw^dag raw) per table: Hermitian, PSD
    and trace-one by construction, but note the eigenvalue squaring: a raw
    table proportional to a non-projector state does not map back to that
    state. Not validated; the caller checks the result with
    check_density_matrices.
    """
    gram = np.swapaxes(raw.conj(), -1, -2) @ raw
    traces = np.trace(gram, axis1=-2, axis2=-1).real
    if not np.all(np.isfinite(traces)) or np.any(traces <= 0.0):
        raise DegenerateDataError("raw reconstruction is zero; nothing to normalize")
    return gram / traces[..., None, None]

