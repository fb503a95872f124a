import json

import pytest

from dsmsim.cli import load_preset, main, output_paths

TINY = {
    "state_kind": "ghz",
    "num_qubits": 2,
    "mode": "pure",
    "configuration": "C2",
    "copy_budgets": [200],
    "repetitions": 3,
    "master_seed": 40,
    "output_path": "tiny.csv",
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def test_validate_accepts_good_config(tiny_config, capsys):
    assert main(["validate", str(tiny_config)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "pure", "epsilon": 0.2}')
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file_is_validation_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 1


def test_run_writes_csv(tiny_config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("state,mode,config")
    assert len(lines) == 2
    assert "wrote 1 rows" in capsys.readouterr().out


def test_run_respects_config_output_path(tiny_config, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(tiny_config)]) == 0
    assert (tmp_path / "tiny.csv").exists()


def test_run_json_output(tiny_config, tmp_path):
    out = tmp_path / "out.json"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["config"] == "C2"
    assert rows[0]["epsilon"] is None


def test_negative_seed_is_validation_error(tiny_config, tmp_path):
    out = tmp_path / "neg.csv"
    assert main(["run", str(tiny_config), "--seed", "-1", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_nonpositive_threads_is_validation_error(tiny_config, tmp_path, capsys, threads):
    out = tmp_path / "threads.csv"
    assert main(["run", str(tiny_config), "--threads", threads, "--out", str(out)]) == 1
    assert "error: --threads must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_changes_results(tiny_config, tmp_path):
    base, other, repeat = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    main(["run", str(tiny_config), "--out", str(base)])
    main(["run", str(tiny_config), "--out", str(other), "--seed", "41"])
    main(["run", str(tiny_config), "--out", str(repeat), "--seed", "40"])
    assert base.read_bytes() != other.read_bytes()
    assert base.read_bytes() == repeat.read_bytes()


def test_threads_do_not_change_bytes(tiny_config, tmp_path):
    one, four = tmp_path / "one.csv", tmp_path / "four.csv"
    main(["run", str(tiny_config), "--out", str(one), "--threads", "1"])
    main(["run", str(tiny_config), "--out", str(four), "--threads", "4"])
    assert one.read_bytes() == four.read_bytes()


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_presets_parse(name):
    config = load_preset(name)
    assert config.master_seed != 0
    if name == "fig6":
        assert config.task == "qfi"
    else:
        assert config.configuration == "both"


def test_fig2_full_scale_extends_budget():
    desk = load_preset("fig2")
    full = load_preset("fig2", full_scale=True)
    assert max(desk.copy_budgets) == 100000
    assert max(full.copy_budgets) == 1000000
    assert full.copy_budgets[:-1] == desk.copy_budgets


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6"])
def test_full_scale_rejected_outside_fig2(name, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["preset", name, "--full-scale", "--out", str(out)]) == 1
    assert "--full-scale" in capsys.readouterr().err
    assert not out.exists()


def test_multi_table_output_paths(tmp_path):
    paths = output_paths(str(tmp_path / "fig6.csv"), ("curves", "histogram"))
    assert paths["curves"].name == "fig6_curves.csv"
    assert paths["histogram"].name == "fig6_histogram.csv"
    single = output_paths(str(tmp_path / "fig2.csv"), ("results",))
    assert single["results"].name == "fig2.csv"


def test_qfi_preset_runs_small(tmp_path):
    config_path = tmp_path / "qfi.json"
    config_path.write_text(json.dumps({
        "task": "qfi", "state_kind": "haar", "num_qubits": 3,
        "norm_samples": 5000, "norm_grid": [0.5, 2.0, 6],
        "histogram_bins": 8, "master_seed": 2, "output_path": "qfi.csv",
    }))
    out = tmp_path / "qfi.csv"
    assert main(["run", str(config_path), "--out", str(out)]) == 0
    curves = (tmp_path / "qfi_curves.csv").read_text().splitlines()
    assert curves[0] == "norm_const,variance_noiseless,variance_noisy"
    assert len(curves) == 7
    assert (tmp_path / "qfi_histogram.csv").exists()
