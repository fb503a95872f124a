"""Configuration-driven experiment sweeps and data export.

A flat JSON document describes one sweep: the prepared state, protocol
configuration(s), noise grids, copy budgets, repetition count, and master
seed. ``run_figure`` executes the full parameter grid deterministically
(one Monte Carlo run per grid point) and returns named tables of rows;
``export_csv``/``export_json`` write them byte-stably. The "qfi" task
produces the variance-versus-normalization curves and the histogram of
realized normalization constants instead of tomography sweeps.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import ConfigError, ParameterError
from .metrics import norm_const_samples, qfi_pure
from .montecarlo import ExperimentPoint, run_points
from .states import PureState, standard_state

STATE_KINDS = ("ghz", "w", "dicke", "haar", "custom")
MODES = ("pure", "mixed")
CONFIG_CHOICES = ("C1", "C2", "both")
TASKS = ("tomography", "qfi")

RESULT_FIELDS = ("state", "mode", "config", "sigma_prep", "sigma_post",
                 "epsilon", "num_copies", "repetitions", "seed",
                 "mean_distance", "std_error", "error")
CURVE_FIELDS = ("norm_const", "variance_noiseless", "variance_noisy")
HIST_FIELDS = ("bin_left", "bin_right", "density")

# Keys accepted per task; anything else is rejected outright.
_COMMON_KEYS = {"task", "state_kind", "num_qubits", "dicke_excitations",
                "state_seed", "custom_amplitudes", "master_seed", "output_path"}
_TOMOGRAPHY_KEYS = _COMMON_KEYS | {
    "mode", "configuration", "sigma_prep", "sigma_post", "sigma_sweep",
    "epsilon", "epsilon_sweep", "copy_budgets", "repetitions",
}
# scalar noise key -> the sweep key that replaces it on every grid point
_SWEPT = {"sigma_prep": "sigma_sweep", "sigma_post": "sigma_sweep",
          "epsilon": "epsilon_sweep"}
_QFI_KEYS = _COMMON_KEYS | {"sigma_prep", "norm_samples", "norm_grid",
                            "histogram_bins"}


def _custom_state(pairs) -> PureState:
    return PureState(np.array([complex(re, im) for re, im in pairs]))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description with documented defaults applied."""

    task: str = "tomography"
    state_kind: str = "ghz"
    num_qubits: int = 3
    dicke_excitations: int | None = None
    state_seed: int = 0
    custom_amplitudes: tuple | None = None
    mode: str = "pure"
    configuration: str = "both"
    sigma_prep: float = 0.0
    sigma_post: float = 0.0
    sigma_sweep: tuple | None = None
    epsilon: float = 0.0
    epsilon_sweep: tuple | None = None
    copy_budgets: tuple = (1000,)
    repetitions: int = 50
    master_seed: int = 0
    output_path: str = "results.csv"
    norm_samples: int = 100000
    norm_grid: tuple = (0.5, 2.0, 151)
    histogram_bins: int = 40

    def state_label(self) -> str:
        if self.state_kind == "dicke":
            return f"dicke{self.num_qubits}e{self.dicke_excitations}"
        return f"{self.state_kind}{self.num_qubits}"

    def build_state(self) -> PureState:
        if self.state_kind == "custom":
            return _custom_state(self.custom_amplitudes)
        return standard_state(self.state_kind, self.num_qubits,
                              seed=self.state_seed,
                              excitations=self.dicke_excitations)

    def to_dict(self) -> dict:
        """Flat JSON-compatible document; only keys valid for the task."""
        allowed = _QFI_KEYS if self.task == "qfi" else _TOMOGRAPHY_KEYS
        doc = {}
        for entry in dataclass_fields(self):
            if entry.name not in allowed:
                continue
            if self.task == "tomography":
                if entry.name in ("epsilon", "epsilon_sweep") and self.mode == "pure":
                    continue
                if entry.name == "sigma_prep" and self.mode == "mixed":
                    continue
                # a sweep replaces its scalars, which the parser then rejects
                if entry.name in _SWEPT and getattr(self, _SWEPT[entry.name]) is not None:
                    continue
            value = getattr(self, entry.name)
            if value is None and entry.name in ("sigma_sweep", "epsilon_sweep",
                                               "dicke_excitations",
                                               "custom_amplitudes"):
                continue
            doc[entry.name] = list(value) if isinstance(value, tuple) else value
        return doc


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    # bool is an int subclass; JSON true/false must not pass as counts
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # JSON admits Infinity and NaN, which no sweep parameter can take
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _number_list(value, key: str, minimum=None, maximum=None) -> tuple:
    _require(isinstance(value, (list, tuple)) and len(value) > 0,
             f"{key} must be a nonempty list")
    out = []
    for item in value:
        _require(_is_number(item), f"{key} entries must be finite numbers")
        _require(minimum is None or item >= minimum, f"{key} entries must be >= {minimum}")
        _require(maximum is None or item <= maximum, f"{key} entries must be <= {maximum}")
        out.append(float(item))
    return tuple(out)


def parse_config(text: str) -> ExperimentConfig:
    """Strict parse of a flat JSON key-value document; unknown keys fail."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "configuration must be a JSON object")

    task = doc.get("task", "tomography")
    _require(task in TASKS, f"task must be one of {TASKS}")
    allowed = _QFI_KEYS if task == "qfi" else _TOMOGRAPHY_KEYS
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys for task {task!r}: {sorted(unknown)}")

    mode = doc.get("mode", "pure")
    if task == "tomography":
        _require(mode in MODES, f"mode must be one of {MODES}")
        if mode == "pure":
            _require("epsilon" not in doc and "epsilon_sweep" not in doc,
                     "epsilon applies to mixed mode only")
        else:
            _require("sigma_prep" not in doc,
                     "mixed-mode preparation noise is the epsilon channel; "
                     "sigma_prep applies to pure mode only")
        for scalar, sweep in _SWEPT.items():
            _require(scalar not in doc or sweep not in doc,
                     f"{sweep} replaces {scalar}; give one of them")

    values = {"task": task}

    state_kind = doc.get("state_kind", "ghz")
    _require(state_kind in STATE_KINDS, f"state_kind must be one of {STATE_KINDS}")
    values["state_kind"] = state_kind

    num_qubits = doc.get("num_qubits", 3)
    _require(_is_int(num_qubits) and num_qubits >= 1,
             "num_qubits must be a positive integer")
    values["num_qubits"] = num_qubits

    if state_kind == "dicke":
        exc_count = doc.get("dicke_excitations")
        _require(_is_int(exc_count) and 0 < exc_count < num_qubits,
                 "dicke_excitations must lie strictly between 0 and num_qubits")
        values["dicke_excitations"] = exc_count
    else:
        _require("dicke_excitations" not in doc,
                 "dicke_excitations applies to the dicke state only")

    if state_kind == "custom":
        amps = doc.get("custom_amplitudes")
        _require(isinstance(amps, list) and len(amps) == 2**num_qubits,
                 "custom_amplitudes must list one [re, im] pair per basis state")
        pairs = []
        for pair in amps:
            _require(isinstance(pair, list) and len(pair) == 2
                     and all(_is_number(x) for x in pair),
                     "custom_amplitudes entries must be [re, im] pairs of finite numbers")
            pairs.append((float(pair[0]), float(pair[1])))
        values["custom_amplitudes"] = tuple(pairs)
        try:
            _custom_state(values["custom_amplitudes"])
        except ParameterError as exc:
            raise ConfigError(f"custom_amplitudes: {exc}") from exc
    else:
        _require("custom_amplitudes" not in doc,
                 "custom_amplitudes applies to the custom state only")

    state_seed = doc.get("state_seed", 0)
    _require(_is_int(state_seed) and state_seed >= 0,
             "state_seed must be a nonnegative integer")
    values["state_seed"] = state_seed

    master_seed = doc.get("master_seed", 0)
    _require(_is_int(master_seed) and master_seed >= 0,
             "master_seed must be a nonnegative integer")
    values["master_seed"] = master_seed

    output_path = doc.get("output_path", "results.csv")
    _require(isinstance(output_path, str) and output_path,
             "output_path must be a nonempty string")
    values["output_path"] = output_path

    def grab_float(key, default, minimum=0.0, maximum=None):
        raw = doc.get(key, default)
        _require(_is_number(raw), f"{key} must be a finite number")
        _require(raw >= minimum, f"{key} must be >= {minimum}")
        if maximum is not None:
            _require(raw <= maximum, f"{key} must be <= {maximum}")
        return float(raw)

    if task == "qfi":
        values["sigma_prep"] = grab_float("sigma_prep", 0.1)
        norm_samples = doc.get("norm_samples", 100000)
        _require(_is_int(norm_samples) and norm_samples >= 1,
                 "norm_samples must be a positive integer")
        values["norm_samples"] = norm_samples
        grid = doc.get("norm_grid", [0.5, 2.0, 151])
        _require(isinstance(grid, list) and len(grid) == 3,
                 "norm_grid must be [low, high, points]")
        low, high, points = grid
        _require(_is_int(points) and points >= 2,
                 "norm_grid points must be an integer >= 2")
        _require(_is_number(low) and _is_number(high) and 0 < low < high,
                 "norm_grid needs finite 0 < low < high")
        values["norm_grid"] = (float(low), float(high), points)
        bins = doc.get("histogram_bins", 40)
        _require(_is_int(bins) and bins >= 1,
                 "histogram_bins must be a positive integer")
        values["histogram_bins"] = bins
        return ExperimentConfig(**values)

    values["mode"] = mode
    configuration = doc.get("configuration", "both")
    _require(configuration in CONFIG_CHOICES,
             f"configuration must be one of {CONFIG_CHOICES}")
    values["configuration"] = configuration

    values["sigma_prep"] = grab_float("sigma_prep", 0.0) if mode == "pure" else 0.0
    values["sigma_post"] = grab_float("sigma_post", 0.0)
    if "sigma_sweep" in doc:
        values["sigma_sweep"] = _number_list(doc["sigma_sweep"], "sigma_sweep",
                                             minimum=0.0)
    if mode == "mixed":
        values["epsilon"] = grab_float("epsilon", 0.0, maximum=1.0)
        if "epsilon_sweep" in doc:
            values["epsilon_sweep"] = _number_list(doc["epsilon_sweep"],
                                                   "epsilon_sweep",
                                                   minimum=0.0, maximum=1.0)

    budgets = doc.get("copy_budgets", [1000])
    _require(isinstance(budgets, list) and len(budgets) > 0,
             "copy_budgets must be a nonempty list")
    for n in budgets:
        _require(_is_int(n) and n >= 1,
                 "copy_budgets entries must be positive integers")
    values["copy_budgets"] = tuple(budgets)

    repetitions = doc.get("repetitions", 50)
    _require(_is_int(repetitions) and repetitions >= 1,
             "repetitions must be a positive integer")
    values["repetitions"] = repetitions

    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


@dataclass(frozen=True)
class ResultRow:
    state: str
    mode: str
    config: str
    sigma_prep: float
    sigma_post: float
    epsilon: float | None
    num_copies: int
    repetitions: int
    seed: int
    mean_distance: float | None
    std_error: float | None
    error: str = ""

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in RESULT_FIELDS}


class FigureRunError(RuntimeError):
    """A grid point failed; ``rows`` holds partial results plus a marker row."""

    def __init__(self, message: str, rows: list):
        super().__init__(message)
        self.rows = rows


def _grid(config: ExperimentConfig):
    """Deterministic grid order: configuration, sigma, epsilon, copies."""
    configurations = (("C1", "C2") if config.configuration == "both"
                      else (config.configuration,))
    if config.sigma_sweep is not None:
        if config.mode == "pure":
            # pure-state sweeps drive preparation and postselection with one
            # shared noise level; set sigma_prep/sigma_post, with no sweep,
            # for asymmetry
            sigmas = [(value, value) for value in config.sigma_sweep]
        else:
            sigmas = [(0.0, value) for value in config.sigma_sweep]
    else:
        sigmas = [(config.sigma_prep, config.sigma_post)]
    if config.mode == "mixed":
        epsilons = list(config.epsilon_sweep or (config.epsilon,))
    else:
        epsilons = [None]
    for configuration in configurations:
        for sigma_prep, sigma_post in sigmas:
            for epsilon in epsilons:
                for num_copies in config.copy_budgets:
                    yield configuration, sigma_prep, sigma_post, epsilon, num_copies


def run_figure(config: ExperimentConfig, threads: int = 1) -> dict:
    """Execute the configured sweep; returns named tables of row dicts."""
    if threads < 1:
        raise ParameterError("threads must be positive")
    if config.task == "qfi":
        return _run_qfi(config)
    state = config.build_state()
    label = config.state_label()
    grid = list(enumerate(_grid(config)))
    # built as consumed, so a serial sweep holds one point's invariants at a time
    points = (
        ExperimentPoint(
            mode=config.mode,
            config=configuration,
            state=state,
            num_copies=copies,
            repetitions=config.repetitions,
            seed_entropy=(config.master_seed, index),
            sigma_prep=s_prep,
            sigma_post=s_post,
            epsilon=0.0 if eps is None else eps,
        )
        for index, (configuration, s_prep, s_post, eps, copies) in grid
    )
    rows = []
    # no more workers than repetitions: under fork, all of them start at the
    # first task
    workers = min(threads, len(grid) * config.repetitions)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        results = run_points(points, workers, executor=pool)
        for index, (configuration, s_prep, s_post, eps, copies) in grid:
            base = dict(state=label, mode=config.mode, config=configuration,
                        sigma_prep=s_prep, sigma_post=s_post, epsilon=eps,
                        num_copies=copies, repetitions=config.repetitions,
                        seed=config.master_seed)
            try:
                result = next(results)
            except Exception as exc:
                rows.append(ResultRow(**base, mean_distance=None, std_error=None,
                                      error=f"{type(exc).__name__}: {exc}").to_dict())
                raise FigureRunError(f"grid point {index} failed: {exc}", rows) from exc
            rows.append(ResultRow(**base, mean_distance=result.mean,
                                  std_error=result.std_error).to_dict())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return {"results": rows}


def _run_qfi(config: ExperimentConfig) -> dict:
    state = config.build_state()
    total = qfi_pure(state).total
    low, high, points = config.norm_grid
    curves = [
        {"norm_const": float(x),
         "variance_noiseless": 1.0 / total,
         "variance_noisy": float(x) ** 2 / total}
        for x in np.linspace(low, high, points)
    ]
    rng = np.random.default_rng(np.random.SeedSequence((config.master_seed,)))
    samples = norm_const_samples(state, config.sigma_prep, config.norm_samples, rng)
    density, edges = np.histogram(samples, bins=config.histogram_bins,
                                  range=(low, high), density=True)
    histogram = [
        {"bin_left": float(edges[i]), "bin_right": float(edges[i + 1]),
         "density": float(density[i])}
        for i in range(len(density))
    ]
    return {"curves": curves, "histogram": histogram}


def table_fieldnames(name: str) -> tuple:
    if name == "curves":
        return CURVE_FIELDS
    if name == "histogram":
        return HIST_FIELDS
    return RESULT_FIELDS


def _format_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def export_csv(rows, fieldnames, path):
    """Header plus one line per row; '.' decimal separator, LF terminator."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row.get(name)) for name in fieldnames])


def export_json(rows, fieldnames, path):
    """The same table as an array of objects."""
    payload = [{name: row.get(name) for name in fieldnames} for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
