"""Independent oracles used by the tests.

Everything here rebuilds the physics by brute force on the full joint
(2d)-dimensional space, or from hand-expanded closed forms, so the checks
stay independent of the library's code paths. The reference Monte Carlo
repetition at the end reuses only the library's noise draws, state types,
physicalization and mixed-state distance.
"""

import numpy as np

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def _controlled_projector_unitary(block0: np.ndarray, block1: np.ndarray) -> np.ndarray:
    """block0 (x) |0><0| + block1 (x) |1><1| on the system-probe space."""
    return np.kron(block0, np.diag([1.0, 0.0])) + np.kron(block1, np.diag([0.0, 1.0]))


def _basis_projector(d: int, n: int) -> np.ndarray:
    proj = np.zeros((d, d), dtype=complex)
    proj[n, n] = 1.0
    return proj


def joint_probe_c1(psi_amps: np.ndarray, conj_coeffs: np.ndarray, n: int) -> np.ndarray:
    """(a0, a1) from full evolution and projection onto the conjugate state."""
    d = psi_amps.shape[0]
    proj = _basis_projector(d, n)
    evo = _controlled_projector_unitary(np.eye(d) - proj, proj)
    joint = evo @ np.kron(psi_amps, PLUS)
    return conj_coeffs.conj() @ joint.reshape(d, 2)


def joint_probe_c2(psi_amps: np.ndarray, conj_coeffs: np.ndarray, n: int) -> np.ndarray:
    """(a0, a1) from full evolution and projection onto |n>."""
    d = psi_amps.shape[0]
    proj = np.outer(conj_coeffs, conj_coeffs.conj())
    evo = _controlled_projector_unitary(np.eye(d) - proj, proj)
    joint = evo @ np.kron(psi_amps, PLUS)
    return joint.reshape(d, 2)[n]


def _joint_conditional(rho: np.ndarray, proj: np.ndarray, select: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    evo = _controlled_projector_unitary(np.eye(d) - proj, proj)
    joint = np.kron(rho, np.outer(PLUS, PLUS))
    evolved = evo @ joint @ evo.conj().T
    out = np.empty((2, 2), dtype=complex)
    probe = np.eye(2)
    for i in range(2):
        for j in range(2):
            left = np.kron(select, probe[i])
            right = np.kron(select, probe[j])
            out[i, j] = left.conj() @ evolved @ right
    return out


def joint_conditional_c1(rho: np.ndarray, conj_coeffs: np.ndarray, n: int) -> np.ndarray:
    """2x2 probe matrix from full evolution, postselected on the conjugate state."""
    return _joint_conditional(rho, _basis_projector(rho.shape[0], n), conj_coeffs)


def joint_conditional_c2(rho: np.ndarray, conj_coeffs: np.ndarray, n: int) -> np.ndarray:
    """2x2 probe matrix from full evolution, postselected on |n>."""
    proj = np.outer(conj_coeffs, conj_coeffs.conj())
    return _joint_conditional(rho, proj, np.eye(rho.shape[0])[n])


def closed_form_probs_c1(psi_amps, magnitudes, n) -> dict:
    """Hand-expanded C1 probe probabilities; valid for real overlap Gamma."""
    gamma = float(np.dot(magnitudes, psi_amps).real)
    c = magnitudes[n]
    re, im = psi_amps[n].real, psi_amps[n].imag
    mod_sq = abs(psi_amps[n]) ** 2
    return {
        "0": 0.5 * (gamma**2 - 2 * c * gamma * re + c**2 * mod_sq),
        "1": 0.5 * c**2 * mod_sq,
        "+": 0.25 * gamma**2,
        "-": 0.25 * (gamma**2 - 4 * gamma * c * re + 4 * c**2 * mod_sq),
        "L": 0.25 * (gamma**2 - 2 * gamma * c * re + 2 * gamma * c * im + 2 * c**2 * mod_sq),
        "R": 0.25 * (gamma**2 - 2 * gamma * c * re - 2 * gamma * c * im + 2 * c**2 * mod_sq),
    }


def closed_form_probs_c2(psi_amps, magnitudes, n) -> dict:
    """Hand-expanded C2 probe probabilities; valid for real overlap Gamma.

    Expanding |<L|eta>|^2 for the C2 probe puts the imaginary part into P_L
    with a minus sign (the amplitude sits in the |0> branch here, so the
    cross term conjugates relative to C1).
    """
    gamma = float(np.dot(magnitudes, psi_amps).real)
    c = magnitudes[n]
    re, im = psi_amps[n].real, psi_amps[n].imag
    mod_sq = abs(psi_amps[n]) ** 2
    return {
        "0": 0.5 * (mod_sq - 2 * c * gamma * re + c**2 * gamma**2),
        "1": 0.5 * c**2 * gamma**2,
        "+": 0.25 * mod_sq,
        "-": 0.25 * (mod_sq - 4 * c * gamma * re + 4 * c**2 * gamma**2),
        "L": 0.25 * (mod_sq - 2 * c * gamma * re - 2 * c * gamma * im + 2 * c**2 * gamma**2),
        "R": 0.25 * (mod_sq - 2 * c * gamma * re + 2 * c * gamma * im + 2 * c**2 * gamma**2),
    }


def shift_clock_kraus(d: int, epsilon: float) -> list:
    """Kraus operators of the white-noise channel, from shift/clock unitaries.

    The generalized Paulis W_ab = X^a Z^b average any input to I/d, so
    (1 - eps) rho + eps I/d = (1 - eps + eps/d^2) rho
                              + eps/d^2 sum_{(a,b) != 0} W_ab rho W_ab^dag.
    """
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = []
    for a in range(d):
        for b in range(d):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            weight = 1.0 - epsilon + epsilon / d**2 if a == b == 0 else epsilon / d**2
            ops.append(np.sqrt(weight) * w)
    return ops


def real_overlap_state(rng, d: int, magnitudes: np.ndarray) -> np.ndarray:
    """Random unit vector rotated so its overlap with the conjugate state is
    real and positive (the global-phase choice the closed forms assume)."""
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vec = vec / np.linalg.norm(vec)
    gamma = np.dot(magnitudes, vec)
    if abs(gamma) < 1e-6:
        return real_overlap_state(rng, d, magnitudes)
    return vec * (gamma.conjugate() / abs(gamma))


def passes_eigenvalue_rule(elems, atol: float) -> bool:
    """Positivity read off the spectrum: no matrix of the stack ``elems``
    has an eigenvalue below -atol."""
    return float(np.linalg.eigvalsh(elems)[..., 0].min()) >= -atol


# --- Reference Monte Carlo repetition -------------------------------------
#
# The repetition as a loop over measurement settings: one labelled outcome
# distribution per setting, one uniform variate per copy looked up in its
# cumulative distribution, estimates gathered in dicts, then the inverse
# Fourier sums written out entry by entry. The library builds one outcome
# table per repetition instead; it must reproduce this loop bit for bit.

_PAIRS = {"Z": ("0", "1"), "X": ("+", "-"), "Y": ("L", "R")}


def _reference_conjugate(d, kappas):
    """(port weights, coefficient rows [k, m]) of the detector-biased family."""
    from dsmsim.errors import DegenerateNoiseError

    weights = 1.0 + np.asarray(kappas, dtype=np.float64)
    if np.any(weights <= 0.0):
        raise DegenerateNoiseError("postselection noise produced 1 + kappa <= 0")
    magnitudes = weights / float(np.sqrt(np.sum(weights**2)))
    rows = np.array([magnitudes * np.exp(2j * np.pi * k * np.arange(d) / d)
                     for k in range(d)])
    return magnitudes, rows


def _reference_pauli(a0, a1) -> dict:
    return {
        "0": abs(a0) ** 2,
        "1": abs(a1) ** 2,
        "+": 0.5 * abs(a0 + a1) ** 2,
        "-": 0.5 * abs(a0 - a1) ** 2,
        "L": 0.5 * abs(a0 - 1j * a1) ** 2,
        "R": 0.5 * abs(a0 + 1j * a1) ** 2,
    }


def _reference_conditional_tables(rho, coeff_rows, magnitudes, config):
    d = rho.shape[0]
    rho_v = rho @ coeff_rows.T
    v_rho = coeff_rows.conj() @ rho
    overlaps = np.einsum("kn,nk->k", coeff_rows.conj(), rho_v).real
    weights = magnitudes ** 2
    diag = np.diag(rho).real
    if config == "C1":
        m11 = 0.5 * np.outer(diag * weights, np.ones(d))
        m01 = 0.5 * (v_rho.T * coeff_rows.T - 2.0 * m11)
        m00 = 0.5 * (overlaps[None, :]
                     - 2.0 * (coeff_rows.T.conj() * rho_v).real
                     + (diag * weights)[:, None])
    else:
        cross = rho_v * coeff_rows.T.conj()
        mixer = np.outer(weights, overlaps)
        m11 = 0.5 * mixer
        m01 = 0.5 * (cross - mixer)
        m00 = 0.5 * (diag[:, None] - 2.0 * cross.real + mixer)
    return m00.real, m01, m11.real


def _reference_settings(config, tables):
    """(fixed index, basis) pairs: n in C1, k in C2, over the tables' columns k."""
    d, columns = tables[0].shape
    return [(index, basis) for index in range(d if config == "C1" else columns)
            for basis in "ZXY"]


def _reference_distribution(config, index, basis, tables):
    """(labels, probabilities) of one setting, failure outcome last."""
    pair = _PAIRS[basis]
    m00, m01, m11 = tables
    if config == "C1":
        diag0, off, diag1 = m00[index], m01[index], m11[index]
    else:
        diag0, off, diag1 = m00[:, index], m01[:, index], m11[:, index]
    half = 0.5 * (diag0 + diag1)
    upper, lower = {"Z": (diag0, diag1),
                    "X": (half + off.real, half - off.real),
                    "Y": (half - off.imag, half + off.imag)}[basis]
    labels, probs = [], []
    for branch in range(diag0.shape[0]):
        labels += [(branch, pair[0]), (branch, pair[1])]
        probs += [upper[branch], lower[branch]]
    probs = probs + [1.0 - sum(probs)]
    assert min(probs) >= -1e-12
    return labels + ["fail"], np.clip(np.array(probs), 0.0, None)


def _reference_counts(probs, count, rng):
    if count == 0:
        return np.zeros(probs.shape[0], dtype=np.int64)
    cdf = np.cumsum(probs)
    cdf[-1] = np.inf
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return np.bincount(idx, minlength=cdf.shape[0])


def _reference_raw(off, diag, config):
    d = off.shape[0]
    nominal = np.full(d, 1.0 / np.sqrt(d))
    diag_mean = diag.mean(axis=1)
    source = off if config == "C1" else off + diag
    ks = np.arange(d)
    raw = np.empty((d, d), dtype=np.complex128)
    for n in range(d):
        for m in range(d):
            phases = np.exp(2j * np.pi * (n - m) * ks / d)
            total = np.dot(source[n], phases)
            if config == "C1" and n == m:
                total = total + d * diag_mean[n]
            raw[n, m] = total / (nominal[n] * nominal[m])
    return raw


def reference_reconstruct_pure(table, config):
    """Amplitudes of one Pauli table [d, 6] at nominal 1/sqrt(d), with the
    scalar arithmetic of one table: abs() of one complex number for the
    phase, np.linalg.norm for the scale."""
    from dsmsim.errors import DegenerateDataError

    d = table.shape[0]
    sign = 1.0 if config == "C1" else -1.0
    vec = np.array([complex(p_plus - p_minus + 2.0 * p1, sign * (p_l - p_r))
                    for _, p1, p_plus, p_minus, p_l, p_r in table])
    vec = vec / np.full(d, 1.0 / np.sqrt(d))
    if not np.any(vec):
        raise DegenerateDataError("reconstructed amplitudes are all zero")
    peak = int(np.argmax(np.abs(vec)))
    vec = vec * (vec[peak].conjugate() / abs(vec[peak]))
    return vec / np.linalg.norm(vec)


def reference_distance_pure(psi, phi) -> float:
    """Pure-state trace distance of two amplitude vectors, one np.vdot and
    one np.linalg.norm."""
    return float(min(1.0, np.linalg.norm(phi - psi * np.vdot(psi, phi))))


def reference_repetition(point, rep):
    """(distance, state) of one repetition, computed setting by setting."""
    from dsmsim.metrics import trace_distance_mixed
    from dsmsim.mixed_protocol import physicalize_tables
    from dsmsim.noise import perturb_pure_state, sample_kappas, white_noise_channel
    from dsmsim.states import DensityMatrix, PureState

    rng = np.random.default_rng(
        np.random.SeedSequence(tuple(point.seed_entropy) + (rep,)))
    d = point.state.dim
    if point.mode == "pure":
        # the pure probe is the k = 0 column of the perturbed projector's tables
        rho_prime = perturb_pure_state(point.state, point.sigma_prep, rng)[0].projector()
    else:
        target = point.state.projector()
        rho_prime = white_noise_channel(target, point.epsilon)
    magnitudes, rows = _reference_conjugate(d, sample_kappas(d, point.sigma_post, rng))
    tables = _reference_conditional_tables(rho_prime.elems, rows, magnitudes, point.config)
    if point.mode == "pure":
        tables = tuple(table[:, :1] for table in tables)
    settings = _reference_settings(point.config, tables)
    base, extra = divmod(point.num_copies, len(settings))
    estimates = {}
    for position, (index, basis) in enumerate(settings):
        copies = base + (1 if position < extra else 0)
        labels, probs = _reference_distribution(point.config, index, basis, tables)
        counts = _reference_counts(probs, copies, rng)
        for (branch, j), count in zip(labels[:-1], counts[:-1]):
            value = count / copies if copies else 0.0
            cell = (index, branch) if point.config == "C1" else (branch, index)
            estimates.setdefault(cell, {})[j] = value
    if point.mode == "pure":
        table = np.array([[estimates[n, 0][key] for key in "01+-LR"] for n in range(d)])
        recon = PureState(reference_reconstruct_pure(table, point.config))
        return reference_distance_pure(point.state.amps, recon.amps), recon
    off = np.empty((d, d), dtype=np.complex128)
    diag = np.empty((d, d), dtype=np.float64)
    for (n, k), p in estimates.items():
        delta_x, delta_y = p["+"] - p["-"], p["L"] - p["R"]
        if point.config == "C1":
            off[n, k] = 0.5 * complex(delta_x, delta_y)
        else:
            off[n, k] = 0.5 * complex(delta_x, -delta_y)
        diag[n, k] = p["1"]
    recon = DensityMatrix(physicalize_tables(_reference_raw(off, diag, point.config)))
    return trace_distance_mixed(target, recon), recon


# --- Reference phase tables -----------------------------------------------
#
# The phases written out per entry: a d x d table of the conjugate basis
# and a d x d x d table of inverse-Fourier phase columns, one per (n, m).
# The library reads both from one (2d - 1) x d table of phase differences
# and must reproduce them bit for bit.

def reference_fourier_phases(d):
    """Row k holds the phases e^(i 2 pi k m / d) of |c'_k>."""
    return np.array([np.exp(2j * np.pi * k * np.arange(d) / d) for k in range(d)])


def reference_conjugate_coefficients(d, kappas=None):
    """Port weights times the d x d phase table, per kappa draw."""
    from dsmsim.states import port_weights

    return port_weights(d, kappas)[..., None, :] * reference_fourier_phases(d)


def reference_inverse_fourier_phases(d):
    """phases[n, m] = e^(i 2 pi (n - m) k / d) over k, as a column."""
    ks = np.arange(d)
    return np.array([[np.exp(2j * np.pi * (n - m) * ks / d) for m in range(d)]
                     for n in range(d)])[..., None]


def reference_raw_reconstruction(off, diag, config):
    """raw_reconstruction at nominal 1/sqrt(d), summed against the d x d x d
    phase table, tables stacked along leading axes."""
    d = off.shape[-1]
    source = off if config == "C1" else off + diag
    raw = (source[..., :, None, None, :] @ reference_inverse_fourier_phases(d))[..., 0, 0]
    if config == "C1":
        raw[..., np.arange(d), np.arange(d)] += d * diag.mean(axis=-1)
    nominal = np.full(d, 1.0 / np.sqrt(d))
    return raw / np.outer(nominal, nominal)


# --- Reference table layouts ----------------------------------------------
#
# The two-layout composition the engine ran before it wrote outcome tables
# in place: Pauli tables [..., n, k, 6] stacked from the probe matrices,
# copied into setting rows, a failure column appended from a cumulative sum
# along each row; frequencies divided with a mask and copied back into
# Pauli cells for the lambda reads. The engine's one-layout writer and
# read-back must reproduce it bit for bit.

def reference_pauli_from_conditionals(m00, m01, m11):
    """(p0, p1, p+, p-, pL, pR) stacked along a new last axis."""
    m01 = np.asarray(m01)
    half_trace = 0.5 * (m00 + m11)
    return np.stack([np.asarray(m00, dtype=np.float64), np.asarray(m11, dtype=np.float64),
                     half_trace + m01.real, half_trace - m01.real,
                     half_trace - m01.imag, half_trace + m01.imag], axis=-1)


def _transpose_cells(cells, axes):
    lead = cells.ndim - 4
    return cells.transpose(tuple(range(lead)) + tuple(lead + axis for axis in axes))


def reference_setting_rows(pauli, config):
    """Pauli table [..., n, k, 6] -> rows (fixed index, basis), columns (branch, pair)."""
    *lead, d, branches, _ = pauli.shape
    cells = pauli.reshape(*lead, d, branches, 3, 2)
    rows = _transpose_cells(cells, (0, 2, 1, 3) if config == "C1" else (1, 2, 0, 3))
    return rows.reshape(*lead, rows.shape[-4] * 3, -1)


def reference_outcome_table(success):
    """Setting rows with the failure column appended, validated."""
    from dsmsim.sampling import check_outcome_table

    success = np.asarray(success, dtype=np.float64)
    fail = 1.0 - np.cumsum(success, axis=-1)[..., -1:]
    return check_outcome_table(np.concatenate((success, fail), axis=-1))


def reference_frequencies(counts, copies, config, d):
    """Pauli table [..., n, k, 6] of count / copies; settings without copies read 0."""
    freq = np.zeros(counts[..., :-1].shape)
    copies = np.asarray(copies)[:, None]
    np.divide(counts[..., :-1], copies, out=freq, where=copies > 0)
    *lead, settings, columns = freq.shape
    cells = freq.reshape(*lead, settings // 3, 3, columns // 2, 2)
    cells = _transpose_cells(cells, (0, 2, 1, 3) if config == "C1" else (2, 0, 1, 3))
    return cells.reshape(*lead, d, -1, 6)


def reference_lambda_tables(pauli, config):
    """(off-diagonal entry, Lambda''_11) read from Pauli tables [..., 6]."""
    delta_y = pauli[..., 4] - pauli[..., 5]
    rotated = np.empty(pauli.shape[:-1], dtype=np.complex128)
    rotated.real = pauli[..., 2] - pauli[..., 3]
    rotated.imag = delta_y if config == "C1" else -delta_y
    return 0.5 * rotated, pauli[..., 1]
