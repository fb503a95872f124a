"""Independent oracles used by the tests.

Everything here rebuilds the physics by brute force on the full joint
(2d)-dimensional space, or from hand-expanded closed forms, so the checks
stay independent of the library's code paths. The reference Monte Carlo
repetition at the end reuses only the library's noise draws, state types,
physicalization and distances.
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


def _reference_pure_table(amps, magnitudes, config, n) -> dict:
    sqrt2_inv = 1.0 / np.sqrt(2.0)
    gamma = complex(np.dot(magnitudes, amps))
    if config == "C1":
        cn_psi = magnitudes[n] * amps[n]
        return _reference_pauli((gamma - cn_psi) * sqrt2_inv, cn_psi * sqrt2_inv)
    cn_gamma = magnitudes[n] * gamma
    return _reference_pauli((amps[n] - cn_gamma) * sqrt2_inv, cn_gamma * sqrt2_inv)


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


def _reference_settings(mode, config, d):
    if mode == "pure" and config == "C2":
        return [(None, basis) for basis in "ZXY"]
    return [(index, basis) for index in range(d) for basis in "ZXY"]


def _reference_distribution(mode, config, index, basis, tables):
    """(labels, probabilities) of one setting, failure outcome last."""
    pair = _PAIRS[basis]
    if mode == "pure":
        if config == "C1":
            labels, probs = list(pair), [tables[index][j] for j in pair]
        else:
            labels = [(n, j) for n in range(len(tables)) for j in pair]
            probs = [tables[n][j] for n, j in labels]
    else:
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


def reference_repetition(point, rep):
    """(distance, state) of one repetition, computed setting by setting."""
    from dsmsim.errors import DegenerateDataError
    from dsmsim.metrics import trace_distance_mixed, trace_distance_pure
    from dsmsim.mixed_protocol import physicalize_tables
    from dsmsim.noise import perturb_pure_state, sample_kappas, white_noise_channel
    from dsmsim.states import DensityMatrix, PureState

    rng = np.random.default_rng(
        np.random.SeedSequence(tuple(point.seed_entropy) + (rep,)))
    d = point.state.dim
    if point.mode == "pure":
        psi_prime, _ = perturb_pure_state(point.state, point.sigma_prep, rng)
        magnitudes, _ = _reference_conjugate(d, sample_kappas(d, point.sigma_post, rng))
        tables = [_reference_pure_table(psi_prime.amps, magnitudes, point.config, n)
                  for n in range(d)]
    else:
        target = point.state.projector()
        rho_prime = white_noise_channel(target, point.epsilon)
        magnitudes, rows = _reference_conjugate(d, sample_kappas(d, point.sigma_post, rng))
        tables = _reference_conditional_tables(rho_prime.elems, rows, magnitudes,
                                               point.config)
    settings = _reference_settings(point.mode, point.config, d)
    base, extra = divmod(point.num_copies, len(settings))
    estimates = {}
    for position, (index, basis) in enumerate(settings):
        copies = base + (1 if position < extra else 0)
        labels, probs = _reference_distribution(point.mode, point.config, index,
                                                basis, tables)
        counts = _reference_counts(probs, copies, rng)
        for label, count in zip(labels[:-1], counts[:-1]):
            value = count / copies if copies else 0.0
            if point.mode == "pure" and point.config == "C1":
                cell, j = (index, 0), label
            else:
                branch, j = label
                cell = ((index, branch) if point.config == "C1" else (branch, index))
                if point.mode == "pure":
                    cell = (branch, 0)
            estimates.setdefault(cell, {})[j] = value
    if point.mode == "pure":
        sign = 1.0 if point.config == "C1" else -1.0
        vec = np.empty(d, dtype=np.complex128)
        for n in range(d):
            p = estimates[n, 0]
            vec[n] = complex(p["+"] - p["-"] + 2.0 * p["1"], sign * (p["L"] - p["R"]))
        vec = vec / np.full(d, 1.0 / np.sqrt(d))
        if not np.any(vec):
            raise DegenerateDataError("reconstructed amplitudes are all zero")
        peak = int(np.argmax(np.abs(vec)))
        vec = vec * (vec[peak].conjugate() / abs(vec[peak]))
        recon = PureState(vec / np.linalg.norm(vec))
        return trace_distance_pure(point.state, recon), recon
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
