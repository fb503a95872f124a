"""Quantum-controlled measurement of mixed states.

The joint input is rho' (x) |+><+|. After the controlled interaction the
probe is conditioned on a postselection outcome, leaving an unnormalized
2x2 probe matrix Lambda''(n, k): in C1 the interaction index is n and the
detector resolves the conjugate index k; in C2 the interaction projects
onto |c'_k> and the detector resolves |n>. Both configurations keep every
postselection outcome (scan-free), so the full (n, k) table is available
and an inverse Fourier sum over k recovers rho'_{nm} up to one overall
constant, which the final physicalization step removes. The tables take
port weights, as the pure ones do, and pure_protocol.lambda_tables reads
the probe matrix back. The sum reads its phases from states' difference
table, in O(d^2) memory per repetition.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDataError, ParameterError
from .pure_protocol import _check_config, _check_nominal
from .states import _conjugate_rows, _fourier_differences, check_density_matrices


def pauli_from_conditionals(m00, m01, m11, out=None) -> np.ndarray:
    """P_j = Tr(|j><j| Lambda'') for the six Pauli eigenstates, elementwise.

    Takes the entries of one probe matrix or whole tables of them and
    returns (p0, p1, p+, p-, pL, pR) along new last axes [..., basis Z/X/Y,
    eigenvalue], written into ``out`` (of any strides) if it is given.
    """
    m01 = np.asarray(m01)
    half_trace = 0.5 * (m00 + m11)
    cells = np.empty(np.shape(half_trace) + (3, 2)) if out is None else out
    cells[..., 0, 0] = m00
    cells[..., 0, 1] = m11
    cells[..., 1, 0] = half_trace + m01.real
    cells[..., 1, 1] = half_trace - m01.real
    cells[..., 2, 0] = half_trace - m01.imag
    cells[..., 2, 1] = half_trace + m01.imag
    return cells


def conditional_tables(rho, weights, config: str):
    """All probe-conditional entries over (n, k) in one vectorized pass.

    ``rho`` holds density-matrix entries and ``weights`` port weights c
    [..., d], as pauli_table takes them; either may stack along leading
    axes. Returns (m00, m01, m11) arrays indexed [..., n, k]: the
    unnormalized 2 x 2 probe matrix Lambda''(n, k), whose trace is the
    postselection weight, for interaction index n postselected onto |c'_k>
    (C1) or interaction |c'_k> postselected onto |n> (C2). Pure batches use
    pauli_table, this k = 0 column in O(d).
    """
    _check_config(config)
    rho, weights = np.asarray(rho), np.asarray(weights, dtype=float)
    d = rho.shape[-1]
    if weights.shape[-1:] != (d,):
        raise ParameterError("need one port weight per basis index")
    coeff_rows = _conjugate_rows(weights)                          # row k: |c'_k>
    coeff_cols = np.swapaxes(coeff_rows, -1, -2)                   # [..., n, k]
    rho_v = rho @ coeff_cols                                       # (rho v_k)[n]
    overlaps = np.einsum("...kn,...nk->...k", coeff_rows.conj(), rho_v).real
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    if config == "C1":
        v_rho = coeff_rows.conj() @ rho                            # (v_k^dag rho)[n]
        diag_weights = (diag * weights ** 2)[..., :, None]  # |v_k[n]|^2 is k-free
        m11 = 0.5 * (diag_weights * np.ones(d))
        m01 = 0.5 * (np.swapaxes(v_rho, -1, -2) * coeff_cols - 2.0 * m11)
        m00 = 0.5 * (overlaps[..., None, :]
                     - 2.0 * (coeff_cols.conj() * rho_v).real
                     + diag_weights)
    else:
        cross = rho_v * coeff_cols.conj()
        mixer = (weights ** 2)[..., :, None] * overlaps[..., None, :]
        m11 = 0.5 * mixer
        m01 = 0.5 * (cross - mixer)
        m00 = 0.5 * (diag[..., :, None] - 2.0 * cross.real + mixer)
    return m00.real, m01, m11.real


def _inverse_fourier_sum(table: np.ndarray, d: int) -> np.ndarray:
    # Entry (n, m) is row n of the table, a (1, d) matrix, times the (d, 1)
    # phase column of j = n - m, a window of the difference table. NumPy
    # evaluates that product with the dot kernel of two vectors, so every
    # entry rounds as one dot product whatever the leading axes; a (d, d) @
    # (d, d) product rounds otherwise, and the result tables are pinned.
    windows = sliding_window_view(_fourier_differences(d), d, axis=0)[::-1]  # [n, k, m]
    return (table[..., :, None, None, :] @ np.swapaxes(windows, -1, -2)[..., None])[..., 0, 0]


def raw_reconstruction(off_diag, diag11, config: str, nominal=None) -> np.ndarray:
    """Inverse Fourier sum over k of lambda tables [..., n, k]; arbitrary scale.

    C1 sums Lambda''_10(n, k); its diagonal uses the k-average of
    Lambda''_11(n, k), which is exactly k-independent, so averaging the
    sampled estimates reduces variance without bias. C2 sums
    Lambda''_01(n, k) + Lambda''_11(n, k). Raises ParameterError on
    non-finite entries.
    """
    _check_config(config)
    off_diag = np.asarray(off_diag, dtype=np.complex128)
    diag11 = np.asarray(diag11, dtype=np.float64)
    d = off_diag.shape[-1]
    if off_diag.shape[-2:] != (d, d) or diag11.shape != off_diag.shape:
        raise ParameterError("lambda tables must both be d x d over (n, k)")
    nominal = _check_nominal(nominal, d)
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
    state. The result passes check_density_matrices, or it raises.
    """
    gram = np.swapaxes(raw.conj(), -1, -2) @ raw
    traces = np.trace(gram, axis1=-2, axis2=-1).real
    if not np.all(np.isfinite(traces)) or np.any(traces <= 0.0):
        raise DegenerateDataError("raw reconstruction is zero; nothing to normalize")
    rhos = gram / traces[..., None, None]
    check_density_matrices(rhos)
    return rhos

