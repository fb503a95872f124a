import json

import pytest

from dsmsim.cli import load_preset, main, output_paths
from dsmsim.errors import ConfigError

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


def test_json_suffix_ignores_case(tiny_config, tmp_path):
    out = tmp_path / "out.JSON"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())[0]["config"] == "C2"


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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_config_is_validation_error(tmp_path, capsys, command):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["run", "tiny.json", "--threads", "abc"], 1),
    (["preset", "fig9"], 1),
    ([], 1),
    (["--help"], 0),
], ids=["threads-not-int", "unknown-preset", "no-subcommand", "help"])
def test_command_line_exit_codes(capsys, argv, code):
    assert main(argv) == code
    assert ("error:" in capsys.readouterr().err) == bool(code)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_rejected_before_the_sweep(tiny_config, tmp_path, capsys,
                                                  monkeypatch, where):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("dsmsim.cli.run_figure", no_sweep)
    if where == "missing-directory":
        out, message = tmp_path / "nodir" / "x.csv", "does not exist"
    else:
        out, message = tmp_path, "is a directory"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [tiny_config]


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


@pytest.mark.parametrize("sampled", [
    {"sigma_prep": 0.0, "norm_samples": 1000, "norm_grid": [1.5, 2.0, 11]},
    {"sigma_prep": 5.0},
])
def test_qfi_samples_outside_norm_grid_fail_without_a_table(tmp_path, capsys, sampled):
    """With no sampled constant inside norm_grid the histogram would hold 0 / 0
    densities: the run exits 2 with one error line naming norm_grid and the
    samples' range, and writes no table."""
    config_path = tmp_path / "qfi.json"
    config_path.write_text(json.dumps({"task": "qfi", **sampled}))
    assert main(["run", str(config_path), "--out", str(tmp_path / "qfi.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "norm_grid" in err[0] and "span [" in err[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["qfi.json"]


def test_failing_sweep_writes_partial_rows_and_exits_2(tmp_path, capsys):
    """sigma 0.4 draws a 1 + kappa <= 0 detector bias at grid point 1: the
    run writes point 0's row and the error row, and names the point on one
    stderr line."""
    config_path = tmp_path / "failing.json"
    config_path.write_text(json.dumps(
        {"configuration": "C1", "sigma_sweep": [0.0, 0.4], "repetitions": 20}))
    out = tmp_path / "failing.csv"
    assert main(["run", str(config_path), "--out", str(out)]) == 2
    header, *rows = out.read_text().splitlines()
    fields = header.split(",")
    rows = [dict(zip(fields, row.split(","))) for row in rows]
    assert [row["sigma_prep"] for row in rows] == ["0.0", "0.4"]
    assert rows[0]["error"] == "" and rows[0]["mean_distance"] != ""
    assert rows[1]["error"].startswith("DegenerateNoiseError: ")
    assert rows[1]["mean_distance"] == ""
    assert capsys.readouterr().err == (
        "error: grid point 1 failed: postselection noise produced 1 + kappa <= 0\n")


def test_unknown_preset_name_rejected():
    with pytest.raises(ConfigError, match="^unknown preset 'fig9'"):
        load_preset("fig9")
