"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them all).
Monte Carlo criteria share module-scoped runs under one frozen seed, so
every number below is reproducible.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from dsmsim.cli import main
from dsmsim.metrics import (
    qfi_noisy,
    qfi_pure,
    trace_distance_mixed,
    trace_distance_pure,
)
from dsmsim.mixed_protocol import conditional_tables, physicalize_tables, raw_reconstruction
from dsmsim.montecarlo import ExperimentPoint, run_repetitions
from dsmsim.noise import noisy_ghz_circuit, sample_kappas
from dsmsim.pure_protocol import (
    lambda_tables,
    pauli_from_conditionals,
    pauli_table,
    reconstruct_pure,
)
from dsmsim.states import (
    DensityMatrix,
    PureState,
    conjugate_coefficients,
    port_weights,
    random_density_matrix,
    standard_state,
)

from oracles import (
    _reference_pauli,
    joint_conditional_c1,
    joint_conditional_c2,
    joint_probe_c1,
    joint_probe_c2,
)

SEED = 20260811
GHZ = standard_state("ghz", 3)
CONFIGS = ("C1", "C2")
THREADS = 4
# preset tables as the engine wrote them on one worker, to compare across commits
GOLDEN = Path(__file__).resolve().parent / "golden"


def report(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num}: {status} - {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def pure_runs():
    """Mean distances for the pure GHZ sweeps shared by criteria 3-5."""
    runs = {}
    for config in CONFIGS:
        for sigma in (0.0, 0.1):
            for num_copies in (10**3, 10**4, 10**5):
                if sigma == 0.1 and num_copies == 10**3:
                    continue
                point = ExperimentPoint(
                    mode="pure", config=config, state=GHZ, num_copies=num_copies,
                    repetitions=50, seed_entropy=(SEED, config == "C2", int(sigma * 10),
                                                  num_copies),
                    sigma_prep=sigma, sigma_post=sigma)
                runs[config, sigma, num_copies] = run_repetitions(point, threads=THREADS)
    return runs


@pytest.fixture(scope="module")
def mixed_runs():
    """Mean distances for the mixed GHZ runs shared by criteria 5-6."""
    runs = {}
    grid = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.05), (1.0, 0.1)]
    for config in CONFIGS:
        for epsilon, sigma in grid:
            point = ExperimentPoint(
                mode="mixed", config=config, state=GHZ, num_copies=10**3,
                repetitions=50, seed_entropy=(SEED, 7, config == "C2",
                                              int(epsilon * 10), int(sigma * 100)),
                sigma_post=sigma, epsilon=epsilon)
            runs[config, epsilon, sigma] = run_repetitions(point, threads=THREADS)
    return runs


def test_criterion_01_analytic_exactness():
    rng = np.random.default_rng(SEED)
    worst_pure = 0.0
    for d in (2, 4, 8):
        weights = port_weights(d)
        for _ in range(100):
            psi = standard_state("haar", int(np.log2(d)), seed=int(rng.integers(1 << 31)))
            for config in CONFIGS:
                table = pauli_table(psi.amps, weights, config)
                recon = reconstruct_pure(table, config=config)
                worst_pure = max(worst_pure, trace_distance_pure(psi, recon))
    worst_mixed = 0.0
    for d in (2, 4, 8):
        weights = port_weights(d)
        for _ in range(50):
            rho = random_density_matrix(d, rng)
            for config in CONFIGS:
                pauli = pauli_from_conditionals(*conditional_tables(rho.elems, weights, config))
                raw = raw_reconstruction(*lambda_tables(pauli, config), config)
                linear = DensityMatrix(raw / np.trace(raw).real)
                worst_mixed = max(worst_mixed, trace_distance_mixed(rho, linear))
                worst_mixed = max(
                    worst_mixed,
                    trace_distance_mixed(DensityMatrix(physicalize_tables(raw)),
                                         DensityMatrix(physicalize_tables(rho.elems))))
    passed = worst_pure < 1e-10 and worst_mixed < 1e-10
    report(1, "noiseless exact-probability reconstruction below 1e-10", passed,
           f"pure worst {worst_pure:.2e}, mixed worst {worst_mixed:.2e}")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for d in (2, 4, 8):
        qubits = int(np.log2(d))
        for _ in range(10):
            psi = standard_state("haar", qubits, seed=int(rng.integers(1 << 31)))
            rho = random_density_matrix(d, rng)
            kappas = sample_kappas(d, 0.1, rng)
            weights, coeffs = port_weights(d, kappas), conjugate_coefficients(d, kappas)
            for config, joint_probe, joint_conditional in (
                    ("C1", joint_probe_c1, joint_conditional_c1),
                    ("C2", joint_probe_c2, joint_conditional_c2)):
                table = pauli_table(psi.amps, weights, config)
                m00, m01, m11 = conditional_tables(rho.elems, weights, config)
                for n in range(d):
                    ref = _reference_pauli(*joint_probe(psi.amps, coeffs[0], n))
                    worst = max(worst, float(np.max(np.abs(
                        table[n].ravel() - [ref[key] for key in "01+-LR"]))))
                    for k in range(d):
                        got = np.array([[m00[n, k], m01[n, k]],
                                        [np.conj(m01[n, k]), m11[n, k]]])
                        worst = max(worst, float(np.max(np.abs(
                            got - joint_conditional(rho.elems, coeffs[k], n)))))
    report(2, "closed forms match full joint evolution within 1e-12",
           worst < 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_03_statistical_scaling(pure_runs):
    budgets = (10**3, 10**4, 10**5)
    ok = True
    details = []
    for config in CONFIGS:
        means = [pure_runs[config, 0.0, n].mean for n in budgets]
        slope = float(np.polyfit(np.log10(budgets), np.log10(means), 1)[0])
        monotone = means[0] > means[1] > means[2]
        details.append(f"{config} slope {slope:.3f}")
        ok = ok and monotone and -0.6 <= slope <= -0.4
    report(3, "noise-free scaling slope within -0.5 +- 0.1 and monotone",
           ok, ", ".join(details))


def test_criterion_04_noise_saturation(pure_runs):
    # Pooled over the two configurations at each grid point.
    noisy_small = np.mean([pure_runs[c, 0.1, 10**4].mean for c in CONFIGS])
    noisy_large = np.mean([pure_runs[c, 0.1, 10**5].mean for c in CONFIGS])
    clean_large = np.mean([pure_runs[c, 0.0, 10**5].mean for c in CONFIGS])
    plateau = abs(noisy_large - noisy_small) <= 0.2 * noisy_small
    separated = noisy_large >= 3.0 * clean_large
    report(4, "sigma=0.1 plateau within 20% and >= 3x the noise-free level",
           plateau and separated,
           f"plateau drop {abs(noisy_large - noisy_small) / noisy_small:.1%}, "
           f"ratio {noisy_large / clean_large:.1f}x")


def test_criterion_05_configuration_ordering(pure_runs, mixed_runs):
    pure_order = all(pure_runs["C2", 0.0, n].mean < pure_runs["C1", 0.0, n].mean
                     for n in (10**3, 10**4, 10**5))
    mixed_order = (mixed_runs["C1", 0.0, 0.0].mean < mixed_runs["C2", 0.0, 0.0].mean)
    left = pure_runs["C1", 0.1, 10**5]
    right = pure_runs["C2", 0.1, 10**5]
    pooled = np.hypot(left.std_error, right.std_error)
    converged = abs(left.mean - right.mean) < 2.0 * pooled
    report(5, "C2 beats C1 for pure, C1 beats C2 for mixed, noise closes the gap",
           pure_order and mixed_order and converged,
           f"|dC1-dC2| = {abs(left.mean - right.mean):.4f} vs 2se = {2 * pooled:.4f}")


def test_criterion_06_maximal_mixing_limit(mixed_runs):
    exact = trace_distance_mixed(GHZ.projector(), DensityMatrix(np.eye(8) / 8))
    ok = abs(exact - 7 / 8) < 1e-12
    observed = []
    for config in CONFIGS:
        for sigma in (0.0, 0.05, 0.1):
            mean = mixed_runs[config, 1.0, sigma].mean
            observed.append(mean)
            ok = ok and abs(mean - 0.875) <= 0.05
    report(6, "fully mixed preparation lands at distance 7/8 +- 0.05",
           ok, f"observed {min(observed):.3f}..{max(observed):.3f}")


def test_criterion_07_fisher_information_values():
    rng = np.random.default_rng(SEED + 2)
    ok = True
    for d in (2, 4, 8, 16):
        for _ in range(25):
            vec = rng.standard_normal(d)
            psi = PureState(vec / np.linalg.norm(vec))
            ok = ok and abs(qfi_pure(psi).total - 4 * (d - 1)) < 1e-12
    eight = rng.standard_normal(8)
    psi8 = PureState(eight / np.linalg.norm(eight))
    ok = ok and abs(qfi_pure(psi8).variance - 1 / 28) < 1e-15
    worst_fd = 0.0
    for _ in range(5):
        vec = rng.standard_normal(8)
        psi = PureState(vec / np.linalg.norm(vec))
        deltas = 0.1 * rng.standard_normal(8)
        rep = qfi_noisy(psi, deltas)
        ok = ok and abs(rep.total - 4 * 7 / rep.norm_const**2) < 1e-12
        base = psi.amps.real
        for n in range(8):
            def normalized(theta):
                shifted = base.copy()
                shifted[n] = theta
                out = shifted + deltas
                return out / np.linalg.norm(out)
            step = 1e-6
            dpsi = (normalized(base[n] + step) - normalized(base[n] - step)) / (2 * step)
            prime = (base + deltas) / np.linalg.norm(base + deltas)
            fd = 4 * (dpsi @ dpsi - (dpsi @ prime) ** 2)
            worst_fd = max(worst_fd, abs(fd - rep.per_component[n]) / rep.per_component[n])
    ok = ok and worst_fd < 1e-5
    report(7, "Fisher information: 4(d-1) totals, 1/28 variance, derivative check",
           ok, f"worst finite-difference relative error {worst_fd:.2e}")


def test_criterion_08_noisy_circuit():
    worst = 0.0
    for alpha in np.linspace(-1.0, 1.0, 100):
        state = noisy_ghz_circuit(alpha)
        a = np.cos(alpha / 2) - np.sin(alpha / 2)
        b = np.cos(alpha / 2) + np.sin(alpha / 2)
        expected = np.zeros(8, dtype=complex)
        expected[0], expected[7] = a / np.sqrt(2), b / np.sqrt(2)
        worst = max(worst, float(np.max(np.abs(state.amps - expected))))
    point_two = noisy_ghz_circuit(0.2)
    worst = max(worst,
                abs(point_two.amps[0] - (np.cos(0.1) - np.sin(0.1)) / np.sqrt(2)),
                abs(point_two.amps[7] - (np.cos(0.1) + np.sin(0.1)) / np.sqrt(2)))
    report(8, "gate-composed noisy preparation matches the closed form",
           worst < 1e-12, f"worst deviation {worst:.2e}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _matches_golden(produced: Path, golden: Path) -> bool:
    """Text cells equal, numbers within a relative 1e-12: the last bits a
    host's math library may change."""
    tables = []
    for path in (produced, golden):
        with path.open(newline="") as handle:
            tables.append([[_cell(text) for text in row] for row in csv.reader(handle)])
    ours, theirs = tables
    return len(ours) == len(theirs) and all(
        len(row) == len(other) and all(
            math.isclose(a, b, rel_tol=1e-12) if isinstance(a, float) and isinstance(b, float)
            else a == b for a, b in zip(row, other))
        for row, other in zip(ours, theirs))


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_criterion_09_preset_determinism(preset, tmp_path):
    outputs, produced = {}, {}
    for threads in (1, 4):
        out = tmp_path / f"{preset}_t{threads}.csv"
        code = main(["preset", preset, "--threads", str(threads), "--out", str(out)])
        assert code == 0
        produced[threads] = sorted(tmp_path.glob(f"{preset}_t{threads}*.csv"))
        outputs[threads] = [path.read_bytes() for path in produced[threads]]
    identical = outputs[1] == outputs[4] and len(outputs[1]) >= 1
    golden = sorted(GOLDEN.glob(f"{preset}*.csv"))
    pinned = ([path.name for path in golden]
              == [path.name.replace("_t1", "") for path in produced[1]]
              and all(map(_matches_golden, produced[1], golden)))
    report(9, f"preset {preset} output is byte-identical across thread counts "
              "and matches tests/golden", identical and pinned,
           f"{len(outputs[1])} file(s)")
