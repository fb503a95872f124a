import dataclasses
import itertools
import json
import multiprocessing
import os
import re

import numpy as np
import pytest

import dsmsim.montecarlo as montecarlo
from dsmsim.cli import PRESETS, load_preset
from dsmsim.errors import ConfigError, DegenerateNoiseError, ParameterError
from dsmsim.experiments import (
    CURVE_FIELDS,
    QFI_SIGMA_PREP,
    RESULT_FIELDS,
    STATE_KINDS,
    ExperimentConfig,
    FigureRunError,
    _points,
    export_csv,
    export_json,
    parse_config,
    run_figure,
)
from dsmsim.sampling import BATCH_COPIES


def test_minimal_document_gets_defaults():
    config = parse_config("{}")
    assert config.repetitions == 50
    assert config.mode == "pure"
    assert config.configuration == "both"
    assert config.copy_budgets == (1000,)
    assert config.state_kind == "ghz"
    assert config == ExperimentConfig()
    assert parse_config('{"task": "qfi"}').sigma_prep == QFI_SIGMA_PREP


def test_qfi_sigma_prep_default_is_the_tasks():
    built = ExperimentConfig(task="qfi")
    assert built.sigma_prep == QFI_SIGMA_PREP
    assert built == parse_config('{"task": "qfi"}')
    assert built.to_dict() == {"task": "qfi"}
    explicit = ExperimentConfig(task="qfi", sigma_prep=0)
    assert explicit.sigma_prep == 0.0
    assert explicit == parse_config('{"task": "qfi", "sigma_prep": 0}')
    assert explicit.to_dict() == {"task": "qfi", "sigma_prep": 0.0}
    assert ExperimentConfig().sigma_prep == 0.0
    assert ExperimentConfig(mode="mixed").to_dict() == {"mode": "mixed"}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config('{"shots": 100}')
    with pytest.raises(ConfigError):
        parse_config('{"task": "qfi", "copy_budgets": [10]}')


def test_epsilon_rejected_in_pure_mode():
    with pytest.raises(ConfigError):
        parse_config('{"mode": "pure", "epsilon": 0.5}')
    with pytest.raises(ConfigError):
        parse_config('{"mode": "pure", "epsilon_sweep": [0.1]}')


def test_sigma_prep_rejected_in_mixed_mode():
    with pytest.raises(ConfigError):
        parse_config('{"mode": "mixed", "sigma_prep": 0.1}')
    config = parse_config('{"mode": "mixed", "epsilon": 0.3, "sigma_post": 0.1}')
    assert config.epsilon == 0.3


# each scalar noise key -> the sweep that replaces it
NOISE_SWEEPS = {"sigma_prep": "sigma_sweep", "sigma_post": "sigma_sweep",
                "epsilon": "epsilon_sweep"}


@pytest.mark.parametrize("key", [*NOISE_SWEEPS, "sigma_sweep", "epsilon_sweep"])
@pytest.mark.parametrize("mode", montecarlo.MODES)
def test_noise_keys_follow_the_protocol_table(mode, key):
    """A mode takes sigma_post (every batch draws its detector biases at
    it), its protocol's preparation noise, and the sweeps that replace
    them. Every other noise key is rejected by name, also beside its sweep,
    by the config, the document and (scalars) the grid point alike."""
    taken = {"sigma_post", montecarlo._PROTOCOLS[mode].prep_noise}
    taken |= {NOISE_SWEEPS[scalar] for scalar in taken}
    scalar = key in NOISE_SWEEPS
    value = 0.2 if scalar else (0.2,)

    def point(**levels):
        return montecarlo.ExperimentPoint(
            mode=mode, config="C1", state=ExperimentConfig().build_state(),
            num_copies=10, repetitions=1, seed_entropy=(0,), **levels)

    if key in taken:
        config = ExperimentConfig(mode=mode, **{key: value})
        assert parse_config(json.dumps({"mode": mode, key: value})) == config
        if scalar:
            assert getattr(point(**{key: value}), key) == value
        return
    message = f"^{key} does not apply to {mode} mode$"
    given = [{key: value}] + ([{key: value, NOISE_SWEEPS[key]: (0.1,)}] if scalar else [])
    for fields in given:
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(mode=mode, **fields)
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"mode": mode, **fields}))
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps({"mode": mode, key: 0 if scalar else [0.0]}))
    if scalar:
        with pytest.raises(ParameterError, match=message):
            point(**{key: value})


@pytest.mark.parametrize("fields", [
    dict(state_kind="dicke", num_qubits=3, dicke_excitations=1,
         master_seed=7, repetitions=5, copy_budgets=(10, 20)),
    dict(state_kind="haar", num_qubits=2, state_seed=2),
    dict(task="qfi", norm_samples=100, norm_grid=(0.5, 2.0, 11), histogram_bins=8),
], ids=["tomography", "haar", "qfi"])
def test_numpy_integers_stored_as_python_ints(fields):
    def numpy(value):
        if isinstance(value, tuple):
            return tuple(map(numpy, value))
        return np.int64(value) if isinstance(value, int) else value

    config = ExperimentConfig(**{key: numpy(value) for key, value in fields.items()})
    assert config == ExperimentConfig(**fields)
    assert parse_config(json.dumps(config.to_dict())) == config


@pytest.mark.parametrize("doc", [
    '{"mode": "thermal"}',
    '{"configuration": "C3"}',
    '{"copy_budgets": []}',
    '{"copy_budgets": [0]}',
    '{"repetitions": 0}',
    '{"sigma_sweep": []}',
    '{"sigma_sweep": [-0.1]}',
    '{"mode": "mixed", "epsilon": 1.5}',
    '{"state_kind": "dicke"}',
    '{"state_kind": "ghz", "dicke_excitations": 1}',
    '{"num_qubits": 0}',
    '{"state_kind": "custom"}',
    '{"num_qubits": true}',
    '{"num_qubits": 59, "copy_budgets": [100], "repetitions": 1}',
    '{"repetitions": true}',
    '{"master_seed": -3}',
    '{"copy_budgets": [true]}',
    '{"copy_budgets": [100000000000000000000], "num_qubits": 1, "repetitions": 1}',
    '{"copy_budgets": [9223372036854775808]}',
    '{"sigma_post": Infinity}',
    '{"sigma_sweep": [Infinity]}',
    '{"task": "qfi", "norm_grid": [0.5, Infinity, 10]}',
    '{"state_kind": "custom", "num_qubits": 1, "custom_amplitudes": [[true, 0], [0, 0]]}',
    '{"state_kind": "custom", "num_qubits": 1, "custom_amplitudes": [[Infinity, 0], [0, 0]]}',
    '{"state_kind": "custom", "num_qubits": 1, "custom_amplitudes": [[NaN, 0], [1, 0]]}',
    '{"state_kind": "custom", "num_qubits": 1, "custom_amplitudes": [[1, 0], [1, 0]]}',
    'not json',
    '[1, 2]',
    '{"sigma_prep": 0.3, "sigma_sweep": [0.0]}',
    '{"sigma_post": 0.2, "sigma_sweep": [0.0]}',
    '{"mode": "mixed", "epsilon": 0.1, "epsilon_sweep": [0.0]}',
    '{"sigma_sweep": null}',
    '{"state_kind": "w", "num_qubits": 1}',
    '{"repetitions": 5, "repetitions": 7}',
    pytest.param('{"sigma_post": 1%s}' % ("0" * 400), id="sigma_post-beyond-float"),
])
def test_invalid_documents_rejected(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("build", [
    lambda: ExperimentConfig(sigma_sweep=(0.0,), sigma_post=0.3),
    lambda: dataclasses.replace(parse_config("{}"), repetitions=0),
    lambda: ExperimentConfig(mode="mixed", sigma_prep=0.2),
    lambda: ExperimentConfig(task="qfi", copy_budgets=(10,)),
    lambda: ExperimentConfig(copy_budgets=(2**63,)),
    lambda: ExperimentConfig(num_qubits=59),
    lambda: ExperimentConfig(repetitions=True),
    lambda: ExperimentConfig(repetitions=np.bool_(True)),
    lambda: ExperimentConfig(copy_budgets=(np.bool_(True),)),
], ids=["scalar-beside-sweep", "replace-repetitions", "mixed-sigma-prep",
        "other-task-key", "copy-budget-beyond-int64", "state-beyond-intp",
        "bool-repetitions", "numpy-bool-repetitions", "numpy-bool-copy-budget"])
def test_direct_construction_held_to_document_rules(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("fields,stray", [
    (dict(mode="mixed", sigma_prep=0.3), "mode"),
    (dict(sigma_sweep=(0.1,), sigma_prep=0.3), "sigma_sweep"),
], ids=["mixed-sigma-prep", "sweep-beside-sigma-prep"])
def test_qfi_config_meets_no_mode_rule(fields, stray):
    """qfi takes no mode and no sweep, so a qfi config that gives one is
    told so, not that the sigma_prep qfi reads breaks a mode rule."""
    message = re.escape(f"{stray} does not apply to task 'qfi'")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(task="qfi", **fields)


CUSTOM3 = ((1.0, 0.0),) + ((0.0, 0.0),) * 7
# each state kind's own key -> (the kind, a value it accepts)
KIND_KEYS = {"dicke_excitations": ("dicke", 1), "state_seed": ("haar", 2),
             "custom_amplitudes": ("custom", CUSTOM3)}
# the keys a state kind needs
KIND_FIELDS = {"dicke": {"dicke_excitations": 1}, "custom": {"custom_amplitudes": CUSTOM3}}


@pytest.mark.parametrize("kind", STATE_KINDS)
@pytest.mark.parametrize("key", KIND_KEYS)
def test_kind_keys_apply_to_their_kind_only(key, kind):
    owner, value = KIND_KEYS[key]
    fields = KIND_FIELDS.get(kind, {}) | {"state_kind": kind, key: value}
    if kind == owner:
        config = ExperimentConfig(**fields)
        assert getattr(config, key) == value
        assert parse_config(json.dumps(fields)) == config
        return
    message = f"^{key} does not apply to the {kind} state$"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**fields)
    for given in [value] + ([0] if key == "state_seed" else []):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(fields | {key: given}))


def _error(build):
    try:
        build()
    except ConfigError as exc:
        return str(exc)
    return None


def test_unread_keys_meet_one_rule_built_and_parsed():
    """In every tomography mode and state kind, for each kind key, noise key
    and sweep, alone or (a noise key) beside its sweep: construction raises
    iff a given key is unread and off its default, the document iff a given
    key is unread, and when both raise they say the same."""
    defaults = ExperimentConfig()
    for mode, kind in itertools.product(montecarlo.MODES, STATE_KINDS):
        taken = {"sigma_post", montecarlo._PROTOCOLS[mode].prep_noise}
        unread = {key for key, (owner, _) in KIND_KEYS.items() if owner != kind}
        unread |= {*NOISE_SWEEPS, *NOISE_SWEEPS.values()}
        unread -= taken | {NOISE_SWEEPS[key] for key in taken}
        givens = [{key: value} for key, (_, value) in KIND_KEYS.items()] + [{"state_seed": 0}]
        givens += [{sweep: (0.2,)} for sweep in ("sigma_sweep", "epsilon_sweep")]
        for key, level in itertools.product(NOISE_SWEEPS, (0.2, 0)):
            givens += [{key: level}, {key: level, NOISE_SWEEPS[key]: (0.1,)}]
        for given in givens:
            fields = KIND_FIELDS.get(kind, {}) | {"state_kind": kind, "mode": mode} | given
            replaced = {key for key in taken if NOISE_SWEEPS[key] in given}
            off_default = {key for key, value in given.items() if value != getattr(defaults, key)}
            built = _error(lambda: ExperimentConfig(**fields))
            parsed = _error(lambda: parse_config(json.dumps(fields)))
            assert (built is not None) == bool(off_default & (unread | replaced)), (fields, built)
            assert (parsed is not None) == bool(given.keys() & (unread | replaced)), (fields, parsed)
            assert built is None or parsed is None or built == parsed, fields


def test_dicke_rows_carry_the_state_label():
    config = ExperimentConfig(state_kind="dicke", num_qubits=3, dicke_excitations=1,
                              configuration="C2", copy_budgets=(100,), repetitions=2)
    assert config.state_label() == "dicke3e1"
    assert [row["state"] for row in run_figure(config)["results"]] == ["dicke3e1"]


def test_round_trip_identity():
    configs = [parse_config(doc) for doc in (
        '{"state_kind": "w", "sigma_sweep": [0.0, 0.1], "copy_budgets": [10, 20]}',
        '{"mode": "mixed", "epsilon_sweep": [0.0, 1.0], "sigma_post": 0.05}',
        '{"task": "qfi", "sigma_prep": 0.2, "histogram_bins": 10}',
        '{"task": "qfi", "sigma_prep": 0}',
        '{"state_kind": "dicke", "dicke_excitations": 2, "num_qubits": 3}',
    )]
    configs += [load_preset(name) for name in PRESETS]
    configs.append(load_preset("fig2", full_scale=True))
    for config in configs:
        assert parse_config(json.dumps(config.to_dict())) == config


def test_custom_amplitudes_state():
    amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    config = parse_config(json.dumps(
        {"state_kind": "custom", "num_qubits": 2, "custom_amplitudes": amps}))
    state = config.build_state()
    assert state.amps[0] == 1.0 + 0.0j
    assert config.state_label() == "custom2"


def test_grid_row_count_and_order():
    config = parse_config(json.dumps({
        "num_qubits": 2,
        "sigma_sweep": [0.0, 0.01, 0.1],
        "copy_budgets": [60, 120, 240, 480],
        "repetitions": 2,
        "master_seed": 5,
    }))
    tables = run_figure(config)
    rows = tables["results"]
    assert len(rows) == 24
    assert [row["config"] for row in rows[:12]] == ["C1"] * 12
    assert [row["num_copies"] for row in rows[:4]] == [60, 120, 240, 480]
    assert rows[0]["sigma_prep"] == rows[0]["sigma_post"] == 0.0
    assert all(row["epsilon"] is None for row in rows)
    assert all(0.0 <= row["mean_distance"] <= 1.0 for row in rows)
    assert all(row["std_error"] >= 0.0 for row in rows)
    assert all(row["error"] == "" for row in rows)


@pytest.mark.parametrize("mode", ["mixed", "pure"])
def test_points_order_entropy_and_rows(mode):
    """_points forms each grid point once, in configuration, sigma, epsilon,
    copies order, point ``index`` on the entropy (master_seed, index), and
    every row's parameter columns are its point's fields."""
    if mode == "mixed":
        config = parse_config(json.dumps({
            "mode": "mixed", "num_qubits": 2, "configuration": "both",
            "sigma_sweep": [0.0, 0.05], "epsilon_sweep": [0.1, 0.4],
            "copy_budgets": [200, 400], "repetitions": 2, "master_seed": 13}))
        grid = [(configuration, 0.0, sigma, epsilon, copies)
                for configuration in ("C1", "C2") for sigma in (0.0, 0.05)
                for epsilon in (0.1, 0.4) for copies in (200, 400)]
    else:
        # asymmetric scalar noise: with no sweep, one (sigma_prep, sigma_post)
        config = parse_config(json.dumps({
            "num_qubits": 2, "configuration": "both", "sigma_prep": 0.02,
            "sigma_post": 0.07, "copy_budgets": [200, 400], "repetitions": 2,
            "master_seed": 13}))
        grid = [(configuration, 0.02, 0.07, 0.0, copies)
                for configuration in ("C1", "C2") for copies in (200, 400)]
    points = _points(config)
    assert [(point.config, point.sigma_prep, point.sigma_post, point.epsilon,
             point.num_copies) for point in points] == grid
    assert [point.seed_entropy for point in points] == [(13, i) for i in range(len(grid))]
    assert all(point.state is points[0].state for point in points)
    assert {(point.mode, point.repetitions) for point in points} == {(mode, 2)}

    rows = run_figure(config)["results"]
    assert [row["mean_distance"] for row in rows] == [
        result.mean for result in montecarlo.run_points(points)]
    for row, point in zip(rows, points, strict=True):
        columns = dict(state="ghz2", mode=point.mode, config=point.config,
                       sigma_prep=point.sigma_prep, sigma_post=point.sigma_post,
                       epsilon=point.epsilon if mode == "mixed" else None,
                       num_copies=point.num_copies, repetitions=point.repetitions,
                       seed=point.seed_entropy[0], error="")
        assert {key: row[key] for key in columns} == columns


def test_mixed_grid_uses_epsilon_sweep():
    config = parse_config(json.dumps({
        "mode": "mixed",
        "num_qubits": 2,
        "configuration": "C1",
        "sigma_sweep": [0.0, 0.05],
        "epsilon_sweep": [0.0, 0.5, 1.0],
        "copy_budgets": [96],
        "repetitions": 2,
    }))
    rows = run_figure(config)["results"]
    assert len(rows) == 6
    assert {row["epsilon"] for row in rows} == {0.0, 0.5, 1.0}
    assert all(row["sigma_prep"] == 0.0 for row in rows)


def test_eleven_by_eleven_grid_shape():
    config = parse_config(json.dumps({
        "mode": "mixed",
        "num_qubits": 2,
        "configuration": "both",
        "sigma_sweep": [round(0.01 * i, 2) for i in range(11)],
        "epsilon_sweep": [round(0.1 * i, 1) for i in range(11)],
        "copy_budgets": [48],
        "repetitions": 1,
    }))
    rows = run_figure(config)["results"]
    assert len(rows) == 121 * 2


def test_failed_grid_point_flushes_partial_rows(monkeypatch):
    config = parse_config(json.dumps({
        "num_qubits": 2, "configuration": "C1",
        "copy_budgets": [50, 60, 70], "repetitions": 1,
    }))
    real = montecarlo._batch

    def flaky(batch):
        if any(point.seed_entropy[1] == 2 for point, _, _ in batch):
            raise RuntimeError("worker exploded")
        return real(batch)

    monkeypatch.setattr(montecarlo, "_batch", flaky)
    with pytest.raises(FigureRunError) as excinfo:
        run_figure(config)
    rows = excinfo.value.rows
    assert len(rows) == 3
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    assert "worker exploded" in rows[2]["error"]
    assert rows[2]["mean_distance"] is None


def test_failure_rows_independent_of_workers():
    # sigma 2.0 makes 1 + kappa <= 0 detector draws, which fail a later
    # point. On 1 worker each case runs as one batch, so the failing point
    # shares a batch with the points before it: case 1's batch spans both
    # copy budgets. More workers cap each batch at their share of the
    # repetitions, which cuts it into near-equal parts.
    cases = [
        ({"num_qubits": 2, "configuration": "C1",
          "sigma_sweep": [0.0, 0.05, 2.0, 0.0], "copy_budgets": [50, 60],
          "repetitions": 3, "master_seed": 5},
         "grid point 4 failed", "DegenerateDataError"),
        ({"mode": "mixed", "num_qubits": 2, "configuration": "C1",
          "sigma_sweep": [0.0, 2.0], "epsilon_sweep": [0.1, 0.3],
          "copy_budgets": [50], "repetitions": 3, "master_seed": 5},
         "grid point 2 failed", "DegenerateNoiseError"),
    ]
    for doc, message, error in cases:
        config = parse_config(json.dumps(doc))
        failures = []
        for threads in (1, 2, 3):
            with pytest.raises(FigureRunError) as excinfo:
                run_figure(config, threads=threads)
            failures.append((str(excinfo.value), excinfo.value.rows))
        assert failures[0][0].startswith(message)
        assert error in failures[0][1][-1]["error"]
        assert failures[1] == failures[0] and failures[2] == failures[0]


@pytest.mark.parametrize("sigma", [1e160, 1e308])
def test_overflowing_preparation_noise_names_the_norm(sigma):
    config = parse_config(json.dumps({"num_qubits": 2, "configuration": "C2",
                                      "sigma_prep": sigma, "copy_budgets": [100],
                                      "repetitions": 1}))
    # the draw's norm overflows on purpose
    with np.errstate(over="ignore"), pytest.raises(FigureRunError) as excinfo:
        run_figure(config)
    assert isinstance(excinfo.value.__cause__, DegenerateNoiseError)
    assert "perturbed state has norm inf" in excinfo.value.rows[0]["error"]


def _per_repetition_results(config, rows) -> list:
    """(mean, std_error) of every row from lone repetitions of its grid point."""
    state = config.build_state()
    results = []
    for index, row in enumerate(rows):
        point = montecarlo.ExperimentPoint(
            mode=config.mode, config=row["config"], state=state,
            num_copies=row["num_copies"], repetitions=config.repetitions,
            seed_entropy=(config.master_seed, index), sigma_prep=row["sigma_prep"],
            sigma_post=row["sigma_post"], epsilon=row["epsilon"] or 0.0)
        distances = [montecarlo._batch([(point, rep, rep + 1)])[0][0]
                     for rep in range(config.repetitions)]
        result = montecarlo.RunResult(distances=np.array(distances))
        results.append((result.mean, result.std_error))
    return results


@pytest.mark.parametrize("mode", ["pure", "mixed"])
def test_batches_across_points_match_lone_repetitions(mode, monkeypatch):
    batches = []
    real = montecarlo._batch

    def spy(batch):
        batches.append([(point.num_copies, start, stop) for point, start, stop in batch])
        return real(batch)

    monkeypatch.setattr(montecarlo, "_batch", spy)
    # d = 4, C1: 12 settings, so 300 copies (25 per setting) are counted in
    # slot blocks and 13,000 (1,084 per setting) in chunks; a batch that
    # spans both budgets holds both sampler layouts
    assert -(-300 // 12) <= BATCH_COPIES < -(-13000 // 12)
    for budgets in ([300], [300, 13000]):
        doc = {"mode": mode, "num_qubits": 2, "configuration": "both",
               "sigma_sweep": [0.0, 0.02, 0.05], "copy_budgets": budgets,
               "repetitions": 3, "master_seed": 11}
        if mode == "mixed":
            doc["epsilon_sweep"] = [0.0, 0.5]
        config = parse_config(json.dumps(doc))
        points_per_config = (6 if mode == "mixed" else 3) * len(budgets)
        # d = 4: a batch of b repetitions holds b * 3d(2d + 1) = 108 b cells
        split, whole = 2 * 108, 1 << 20
        for cells in (split, whole):
            monkeypatch.setattr(montecarlo, "BATCH_CELLS", cells)
            batches.clear()
            serial = run_figure(config)["results"]
            if cells == split:
                # batches of 2 repetitions split every 3-repetition point, and
                # some hold the tail of one point and the head of the next
                assert max(sum(stop - start for _, start, stop in batch)
                           for batch in batches) == 2
                assert any(len(batch) == 2 for batch in batches)
            else:
                # one batch per configuration spans all of its points, at
                # every copy budget
                assert [len(batch) for batch in batches] == [points_per_config] * 2
                assert all({copies for copies, _, _ in batch} == set(budgets)
                           for batch in batches)
            expected = _per_repetition_results(config, serial)
            assert [(row["mean_distance"], row["std_error"]) for row in serial] == expected
            assert run_figure(config, threads=3)["results"] == serial


def _record_helpers(monkeypatch, cpus) -> tuple:
    """On a machine of ``cpus`` usable CPUs, start no helper process and
    record how many each multi-worker sweep asks for, so this process
    claims every batch itself: returns (helper counts, batches run)."""
    started, batches = [], []
    real = montecarlo._distances

    def spy(batch):
        batches.append(batch)
        return real(batch)

    monkeypatch.setattr(montecarlo, "_start_helpers",
                        lambda helpers, number, context, args: started.append(number))
    monkeypatch.setattr(montecarlo, "_distances", spy)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    return started, batches


def test_pool_capped_at_repetition_count(monkeypatch):
    started, batches = _record_helpers(monkeypatch, cpus=64)
    doc = json.dumps({"num_qubits": 2, "configuration": "C2",
                      "copy_budgets": [40, 80], "repetitions": 3})
    pooled = run_figure(parse_config(doc), threads=32)
    # 6 workers: this process and 5 helpers, one batch each
    assert started == [5] and len(batches) == 6
    assert pooled == run_figure(parse_config(doc))
    # and at the batch count: 5 repetitions in shares of ceil(5 / 4) = 2 make
    # 3 batches (2, 2, 1), so a fourth worker would get no batch
    started, batches = _record_helpers(monkeypatch, cpus=64)
    doc = json.dumps({"num_qubits": 2, "configuration": "C2",
                      "copy_budgets": [40], "repetitions": 5})
    pooled = run_figure(parse_config(doc), threads=4)
    assert started == [2] and len(batches) == 3
    assert pooled == run_figure(parse_config(doc))


def test_pool_capped_at_usable_cpus(monkeypatch):
    started, _ = _record_helpers(monkeypatch, cpus=3)
    config = parse_config(json.dumps({"num_qubits": 2, "configuration": "C2",
                                      "copy_budgets": [40, 80], "repetitions": 4}))
    assert run_figure(config, threads=5000) == run_figure(config)
    point = montecarlo.ExperimentPoint(mode="pure", config="C1",
                                       state=config.build_state(), num_copies=60,
                                       repetitions=5, seed_entropy=(3,))
    assert (montecarlo.run_repetitions(point, threads=5000).distances.tolist()
            == montecarlo.run_repetitions(point).distances.tolist())
    assert started == [2, 2]


def test_batches_bounded_by_each_workers_share(monkeypatch):
    """One pass bounds every batch by the BATCH_CELLS cap and by each
    worker's share of the sweep's repetitions, ceil(total / workers)."""
    started, batches = _record_helpers(monkeypatch, cpus=2)

    def sizes():
        return [sum(stop - start for _, start, stop in batch) for batch in batches]

    state = parse_config(json.dumps({"num_qubits": 2})).build_state()
    # two runs, C1 and C2, of 40 and 4 repetitions: a share of 22 cuts the
    # first run in two, so both workers get a batch
    points = [montecarlo.ExperimentPoint(mode="pure", config=config, state=state,
                                         num_copies=100, repetitions=reps,
                                         seed_entropy=(index,), sigma_prep=0.05)
              for index, (config, reps) in enumerate([("C1", 40), ("C2", 4)])]
    pooled = [result.distances.tolist() for result in montecarlo.run_points(points, 2)]
    assert sizes() == [22, 18, 4] and started == [1]
    assert pooled == [result.distances.tolist() for result in montecarlo.run_points(points)]

    # fig4 at 4 repetitions: 484 per configuration, well above a share, so
    # the cap of 80 d = 8 repetitions alone cuts each run
    config = dataclasses.replace(load_preset("fig4"), repetitions=4)
    tables = {}
    for threads in (1, 2):
        batches.clear()
        tables[threads] = run_figure(config, threads=threads)
        assert sizes() == ([80] * 6 + [4]) * 2
    assert tables[2] == tables[1]


def test_pool_shut_down_once_with_cancel(monkeypatch):
    """Whether a run on real helper processes completes, fails or is closed
    early, no helper outlives it."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)

    def leaves_no_process(run):
        run()
        return multiprocessing.active_children() == []

    small = parse_config(json.dumps({"num_qubits": 2, "configuration": "C2",
                                     "copy_budgets": [40, 80], "repetitions": 2}))
    assert leaves_no_process(lambda: run_figure(small, threads=2))

    # sigma 0.4 draws a 1 + kappa <= 0 detector bias at grid point 1
    failing = parse_config(json.dumps({"configuration": "C1", "sigma_sweep": [0.0, 0.4],
                                       "repetitions": 20}))

    def fail():
        with pytest.raises(FigureRunError, match="grid point 1 failed"):
            run_figure(failing, threads=2)

    assert leaves_no_process(fail)

    points = [montecarlo.ExperimentPoint(mode="pure", config="C2", state=small.build_state(),
                                         num_copies=40, repetitions=2, seed_entropy=(index,))
              for index in range(3)]

    def close_early():
        results = montecarlo.run_points(points, 2)
        next(results)
        results.close()

    assert leaves_no_process(close_early)
    five = dataclasses.replace(points[0], repetitions=5)
    assert leaves_no_process(lambda: montecarlo.run_repetitions(five, threads=5000))


def test_one_worker_builds_no_pool(monkeypatch):
    """A sweep that comes down to one worker runs its batches in this
    process and starts no helper: asked for one, capped at one usable CPU
    or at one repetition, or given no points."""
    config = parse_config(json.dumps({"num_qubits": 2, "configuration": "C2",
                                      "copy_budgets": [40, 80], "repetitions": 2}))
    point = montecarlo.ExperimentPoint(mode="pure", config="C2", state=config.build_state(),
                                       num_copies=40, repetitions=1, seed_entropy=(0,))
    for cpus, runs in [(4, [lambda: run_figure(config),
                            lambda: montecarlo.run_repetitions(point, threads=4),
                            lambda: list(montecarlo.run_points([], 4))]),
                       (1, [lambda: run_figure(config, threads=4)])]:
        started, _ = _record_helpers(monkeypatch, cpus=cpus)
        for run in runs:
            run()
        assert started == []


def test_usable_cpus_without_affinity(monkeypatch):
    assert 1 <= montecarlo._usable_cpus() <= os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert montecarlo._usable_cpus() == 7


def test_nonpositive_threads_rejected():
    config = parse_config(json.dumps({"num_qubits": 1, "copy_budgets": [20],
                                      "repetitions": 1}))
    # counts only: a float or a bool is not a worker count
    for threads in (0, -2, 2.0, 1.5, True):
        with pytest.raises(ParameterError, match="threads must be a positive integer"):
            run_figure(config, threads=threads)
        with pytest.raises(ParameterError, match="threads must be a positive integer"):
            next(montecarlo.run_points([], threads))


def test_fewer_points_than_workers():
    doc = json.dumps({"num_qubits": 2, "configuration": "C2",
                      "copy_budgets": [40, 80], "repetitions": 7, "master_seed": 4})
    assert run_figure(parse_config(doc), threads=5) == run_figure(parse_config(doc))


def test_determinism_of_run_figure():
    doc = json.dumps({"num_qubits": 2, "configuration": "C2",
                      "copy_budgets": [300], "repetitions": 3, "master_seed": 9})
    first = run_figure(parse_config(doc))
    second = run_figure(parse_config(doc), threads=3)
    assert first == second


def test_qfi_task_tables():
    config = parse_config(json.dumps({
        "task": "qfi", "state_kind": "haar", "num_qubits": 3, "state_seed": 7,
        "sigma_prep": 0.1, "norm_samples": 20000,
        "norm_grid": [0.5, 2.0, 16], "histogram_bins": 12, "master_seed": 3,
    }))
    tables = run_figure(config)
    curves, hist = tables["curves"], tables["histogram"]
    assert len(curves) == 16
    assert all(row["variance_noiseless"] == pytest.approx(1 / 28) for row in curves)
    assert curves[0]["variance_noisy"] == pytest.approx(0.25 / 28)
    assert curves[-1]["variance_noisy"] == pytest.approx(4.0 / 28)
    assert len(hist) == 12
    widths = [row["bin_right"] - row["bin_left"] for row in hist]
    mass = sum(row["density"] * w for row, w in zip(hist, widths))
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert run_figure(config) == tables


def test_csv_export_shapes(tmp_path):
    path = tmp_path / "table.csv"
    export_csv([], RESULT_FIELDS, path)
    assert path.read_text() == ",".join(RESULT_FIELDS) + "\n"
    row = {name: None for name in RESULT_FIELDS}
    row.update(state="ghz3", mode="pure", config="C1", sigma_prep=0.0,
               sigma_post=0.0, num_copies=10, repetitions=1, seed=0,
               mean_distance=0.25, std_error=0.0, error="")
    export_csv([row], RESULT_FIELDS, path)
    text = path.read_text()
    assert len(text.splitlines()) == 2
    assert ",,," not in text.splitlines()[0]
    assert text.splitlines()[1].split(",")[RESULT_FIELDS.index("epsilon")] == ""


def test_csv_quotes_error_messages(tmp_path):
    row = {name: "" for name in RESULT_FIELDS}
    row["error"] = 'ValueError: bad value, with "quotes"'
    path = tmp_path / "err.csv"
    export_csv([row], RESULT_FIELDS, path)
    import csv as csv_module
    with open(path, newline="") as handle:
        parsed = list(csv_module.DictReader(handle))
    assert parsed[0]["error"] == row["error"]


def test_exports_are_byte_stable(tmp_path):
    rows = [{"norm_const": 0.5, "variance_noiseless": 1 / 28, "variance_noisy": 0.25 / 28}]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(rows, CURVE_FIELDS, a)
    export_csv(rows, CURVE_FIELDS, b)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    export_json(rows, CURVE_FIELDS, ja)
    export_json(rows, CURVE_FIELDS, jb)
    assert ja.read_bytes() == jb.read_bytes()
    assert json.loads(ja.read_text())[0]["norm_const"] == 0.5
