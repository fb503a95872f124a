"""Configuration-driven experiment sweeps and data export.

A flat JSON document describes one sweep: the prepared state, protocol
configuration(s), noise grids, copy budgets, repetition count, and master
seed. ``ExperimentConfig`` holds every default and every value rule, so a
config built in Python or by ``dataclasses.replace`` is held to the same
rules as a parsed one; ``parse_config`` adds only the rules that need the
document itself (unknown, null and conflicting keys). Both reject each noise
key the mode does not take; the engine's ``noise_keys`` and the sweeps that
replace them decide which it takes, for grid points and rows too. A qfi
config takes no mode: it is held to its task's keys first. ``_points`` forms
the sweep's grid points once; ``run_figure`` runs them deterministically
(one Monte Carlo run per point) and returns named tables of rows;
``export_csv``/``export_json`` write them byte-stably. The "qfi" task
produces the variance-versus-normalization curves and the histogram of
realized normalization constants instead of tomography sweeps.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import ConfigError, DegenerateDataError, ParameterError
from .metrics import norm_const_samples, qfi_pure
from .montecarlo import MODES, ExperimentPoint, _is_count, noise_keys, run_points
from .pure_protocol import CONFIGURATIONS
from .states import PureState, standard_state

STATE_KINDS = ("ghz", "w", "dicke", "haar", "custom")
CONFIG_CHOICES = CONFIGURATIONS + ("both",)

RESULT_FIELDS = ("state", "mode", "config", "sigma_prep", "sigma_post",
                 "epsilon", "num_copies", "repetitions", "seed",
                 "mean_distance", "std_error", "error")
CURVE_FIELDS = ("norm_const", "variance_noiseless", "variance_noisy")
HIST_FIELDS = ("bin_left", "bin_right", "density")

# Keys accepted per task; anything else is rejected outright.
_COMMON_KEYS = {"task", "state_kind", "num_qubits", "dicke_excitations",
                "state_seed", "custom_amplitudes", "master_seed", "output_path"}
_TASK_KEYS = {
    "tomography": _COMMON_KEYS | {
        "mode", "configuration", "sigma_prep", "sigma_post", "sigma_sweep",
        "epsilon", "epsilon_sweep", "copy_budgets", "repetitions",
    },
    "qfi": _COMMON_KEYS | {"sigma_prep", "norm_samples", "norm_grid",
                           "histogram_bins"},
}
TASKS = tuple(_TASK_KEYS)
# The qfi task samples normalization constants at this preparation noise
# unless the config gives sigma_prep; tomography's default is 0.
QFI_SIGMA_PREP = 0.1
# scalar noise key -> the sweep key that replaces it on every grid point
_SWEPT = {"sigma_prep": "sigma_sweep", "sigma_post": "sigma_sweep",
          "epsilon": "epsilon_sweep"}


def _custom_state(pairs) -> PureState:
    return PureState(np.array([complex(re, im) for re, im in pairs]))


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _is_number(value) -> bool:
    # JSON admits Infinity, NaN and integers beyond the float range, which
    # no sweep parameter can take
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _foreign(mode: str) -> list:
    """The noise keys, then sweeps, that ``mode`` does not take: all but
    its noise_keys and the sweeps that replace them."""
    taken = noise_keys(mode) + tuple(_SWEPT[key] for key in noise_keys(mode))
    return [key for key in (*_SWEPT, *dict.fromkeys(_SWEPT.values())) if key not in taken]


def _number(value, key: str, maximum=None) -> float:
    _require(_is_number(value), f"{key} must be a finite number")
    _require(value >= 0, f"{key} must be >= 0")
    _require(maximum is None or value <= maximum, f"{key} must be <= {maximum}")
    return float(value)


def _nonempty(value, key: str) -> tuple:
    _require(isinstance(value, (list, tuple)) and len(value) > 0,
             f"{key} must be a nonempty list")
    return tuple(value)


def _amplitudes(value, num_qubits: int) -> tuple:
    _require(isinstance(value, (list, tuple)) and len(value) == 2**num_qubits,
             "custom_amplitudes must list one [re, im] pair per basis state")
    _require(all(isinstance(pair, (list, tuple)) and len(pair) == 2
                 and all(_is_number(x) for x in pair) for pair in value),
             "custom_amplitudes entries must be [re, im] pairs of finite numbers")
    pairs = tuple((float(re), float(im)) for re, im in value)
    try:
        _custom_state(pairs)
    except ParameterError as exc:
        raise ConfigError(f"custom_amplitudes: {exc}") from exc
    return pairs


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description; each field's default is the documented one.

    Construction applies every value rule, however the config is built
    (parsed, in Python, or by ``dataclasses.replace``), and stores lists as
    tuples, noise levels as floats, counts as Python ints. Raises ``ConfigError``.
    """

    task: str = "tomography"
    state_kind: str = "ghz"
    num_qubits: int = 3
    dicke_excitations: int | None = None
    state_seed: int = 0
    custom_amplitudes: tuple | None = None
    mode: str = "pure"
    configuration: str = "both"
    sigma_prep: float | None = None      # None: the task's default
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

    def __post_init__(self):
        def store(key, value):
            object.__setattr__(self, key, value)

        _require(self.task in TASKS, f"task must be one of {TASKS}")
        defaults = _DEFAULTS[self.task]
        if self.sigma_prep is None:
            store("sigma_prep", defaults["sigma_prep"])
        _require(self.state_kind in STATE_KINDS,
                 f"state_kind must be one of {STATE_KINDS}")
        _require(self.mode in MODES, f"mode must be one of {MODES}")
        _require(self.configuration in CONFIG_CHOICES,
                 f"configuration must be one of {CONFIG_CHOICES}")
        for key, minimum in (("num_qubits", 1), ("state_seed", 0),
                             ("master_seed", 0), ("repetitions", 1),
                             ("norm_samples", 1), ("histogram_bins", 1)):
            value = getattr(self, key)
            _require(_is_count(value) and value >= minimum,
                     f"{key} must be an integer >= {minimum}")
            store(key, int(value))
        # the state's 2**n complex128 amplitudes need a byte count NumPy can
        # index: n <= 58 where np.intp has 64 bits
        most = (np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize).bit_length() - 1
        _require(self.num_qubits <= most, f"num_qubits must be at most {most}")
        _require(isinstance(self.output_path, str) and self.output_path,
                 "output_path must be a nonempty string")

        if self.state_kind == "dicke":
            count = self.dicke_excitations
            _require(_is_count(count) and 0 < count < self.num_qubits,
                     "dicke_excitations must lie strictly between 0 and num_qubits")
            store("dicke_excitations", int(count))
        else:
            _require(self.dicke_excitations is None,
                     "dicke_excitations applies to the dicke state only")
        _require(self.state_kind != "w" or self.num_qubits >= 2,
                 "the w state needs num_qubits >= 2")
        if self.state_kind == "custom":
            store("custom_amplitudes",
                  _amplitudes(self.custom_amplitudes, self.num_qubits))
        else:
            _require(self.custom_amplitudes is None,
                     "custom_amplitudes applies to the custom state only")

        for key, maximum in (("sigma_prep", None), ("sigma_post", None),
                             ("epsilon", 1.0)):
            store(key, _number(getattr(self, key), key, maximum))
        for key, maximum in (("sigma_sweep", None), ("epsilon_sweep", 1.0)):
            if getattr(self, key) is not None:
                store(key, tuple(_number(value, f"{key} entries", maximum)
                                 for value in _nonempty(getattr(self, key), key)))
        budgets = _nonempty(self.copy_budgets, "copy_budgets")
        _require(all(_is_count(n) and 1 <= int(n) <= np.iinfo(np.int64).max for n in budgets),
                 "copy_budgets entries must be positive integers below 2**63")
        store("copy_budgets", tuple(map(int, budgets)))
        _require(isinstance(self.norm_grid, (list, tuple)) and len(self.norm_grid) == 3,
                 "norm_grid must be [low, high, points]")
        low, high, points = self.norm_grid
        _require(_is_count(points) and points >= 2,
                 "norm_grid points must be an integer >= 2")
        _require(_is_number(low) and _is_number(high) and 0 < low < high,
                 "norm_grid needs finite 0 < low < high")
        store("norm_grid", (float(low), float(high), int(points)))

        # to_dict drops the keys of the other task, so they keep their
        # defaults: a qfi config meets the mode rules at the default mode
        stray = [key for key, default in defaults.items()
                 if key not in _TASK_KEYS[self.task] and getattr(self, key) != default]
        _require(not stray, f"{stray} do not apply to task {self.task!r}")
        for key in _foreign(self.mode):
            _require(getattr(self, key) == defaults[key],
                     f"{key} does not apply to {self.mode} mode")
        # the keys the mode does not take hold their defaults, 0 in tomography
        for scalar, sweep in _SWEPT.items():
            _require(getattr(self, sweep) is None or getattr(self, scalar) == 0.0,
                     f"{sweep} replaces {scalar}; leave {scalar} at 0")

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
        """Flat JSON-compatible document: the task's keys that differ from
        their defaults, so ``parse_config`` gives back an equal config."""
        doc = {}
        for key, default in _DEFAULTS[self.task].items():
            value = getattr(self, key)
            if key in _TASK_KEYS[self.task] and value != default:
                doc[key] = list(value) if isinstance(value, tuple) else value
        return doc


# task -> the value each field takes when it is not given
_DEFAULTS = {
    task: {entry.name: entry.default for entry in dataclass_fields(ExperimentConfig)}
    | {"sigma_prep": QFI_SIGMA_PREP if task == "qfi" else 0.0}
    for task in TASKS
}


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, rejecting a key given twice, which
    ``json.loads`` would otherwise resolve silently to its last value."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    _require(not repeated, f"keys given more than once: {repeated}")
    return dict(pairs)


def parse_config(text: str) -> ExperimentConfig:
    """Strict parse of a flat JSON key-value document; unknown keys fail.

    Value rules belong to ``ExperimentConfig``; this adds the rules that
    need the document: no repeated, unknown or null key, no noise key the
    mode does not take and no scalar beside the sweep that replaces it,
    even at 0.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "configuration must be a JSON object")

    task = doc.get("task", ExperimentConfig.task)
    _require(task in TASKS, f"task must be one of {TASKS}")
    unknown = doc.keys() - _TASK_KEYS[task]
    _require(not unknown, f"unknown keys for task {task!r}: {sorted(unknown)}")
    nulls = sorted(key for key, value in doc.items() if value is None)
    _require(not nulls, f"keys must not be null: {nulls}")

    config = ExperimentConfig(**doc)
    for key in _foreign(config.mode):
        _require(key not in doc, f"{key} does not apply to {config.mode} mode")
    for scalar, sweep in _SWEPT.items():
        _require(scalar not in doc or sweep not in doc,
                 f"{sweep} replaces {scalar}; give one of them")
    return config


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"configuration is not UTF-8 text: {exc}") from exc
    return parse_config(text)


class FigureRunError(RuntimeError):
    """A grid point failed; ``rows`` holds partial results plus a marker row."""

    def __init__(self, message: str, rows: list):
        super().__init__(message)
        self.rows = rows


def _points(config: ExperimentConfig) -> list:
    """The sweep's grid points in order: configuration, sigma, epsilon,
    copies. Point ``index`` draws from the entropy (master_seed, index)."""
    configurations = (("C1", "C2") if config.configuration == "both"
                      else (config.configuration,))
    # A sweep value sets the noise keys it replaces that the mode takes, so
    # pure sigma sweeps drive preparation and postselection alike (give the
    # scalars for asymmetry); every other noise key keeps its scalar.
    scalars = {key: getattr(config, key) for key in _SWEPT}
    sweeps = [[{key: value for key in noise_keys(config.mode) if _SWEPT[key] == sweep}
               for value in getattr(config, sweep) or ()] or [{}]
              for sweep in dict.fromkeys(_SWEPT.values())]
    grid = itertools.product(configurations, *sweeps, config.copy_budgets)
    state = config.build_state()
    return [ExperimentPoint(mode=config.mode, config=configuration, state=state,
                            num_copies=copies, repetitions=config.repetitions,
                            seed_entropy=(config.master_seed, index),
                            **(scalars | sigma | epsilon))
            for index, (configuration, sigma, epsilon, copies) in enumerate(grid)]


def run_figure(config: ExperimentConfig, threads: int = 1) -> dict:
    """Execute the configured sweep; returns named tables of row dicts,
    each row's parameters read from its point of ``_points``."""
    if not (_is_count(threads) and threads >= 1):
        raise ParameterError("threads must be a positive integer")
    if config.task == "qfi":
        return _run_qfi(config)
    points = _points(config)
    label = config.state_label()
    rows = []
    with contextlib.closing(run_points(points, threads)) as results:
        for index, point in enumerate(points):
            base = dict(state=label, mode=point.mode, config=point.config,
                        sigma_prep=point.sigma_prep, sigma_post=point.sigma_post,
                        epsilon=point.epsilon if "epsilon" in noise_keys(point.mode) else None,
                        num_copies=point.num_copies, repetitions=point.repetitions,
                        seed=config.master_seed)
            try:
                result = next(results)
            except Exception as exc:
                rows.append({**base, "mean_distance": None, "std_error": None,
                             "error": f"{type(exc).__name__}: {exc}"})
                raise FigureRunError(f"grid point {index} failed: {exc}", rows) from exc
            rows.append({**base, "mean_distance": result.mean,
                         "std_error": result.std_error, "error": ""})
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
    if not np.any((low <= samples) & (samples <= high)):    # else every density is 0 / 0
        raise DegenerateDataError(f"no sampled normalization constant lies in norm_grid "
                                  f"[{low}, {high}]; they span [{samples.min()}, {samples.max()}]")
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


def export_csv(rows, fieldnames, path):
    """Header plus one line per row; '.' decimal separator, LF terminator.
    A missing or None cell is written empty, a float by its repr."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([row.get(name) for name in fieldnames] for row in rows)


def export_json(rows, fieldnames, path):
    """The same table as an array of objects."""
    payload = [{name: row.get(name) for name in fieldnames} for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
