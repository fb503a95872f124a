"""Command-line experiment runner.

Subcommands: ``run`` executes a JSON sweep configuration, ``preset`` runs
one of the packaged figure configurations, ``validate`` checks a
configuration without running it. Exit codes: 0 success, 1 validation
error (a malformed command line included), 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .experiments import (
    ExperimentConfig,
    FigureRunError,
    export_csv,
    export_json,
    load_config,
    parse_config,
    run_figure,
    table_fieldnames,
)

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6")
FULL_SCALE_BUDGET = 1_000_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmsim",
        description="Direct state measurement simulation under SPAM noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the configuration's master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="workers (at least 1, at most the usable "
                            "CPUs): this process and one helper process per "
                            "further worker, each claiming the next batch of "
                            "Monte Carlo repetitions, which span consecutive "
                            "grid points with the same mode, configuration "
                            "and dimension. 1 runs in this process alone; on "
                            "more, every worker, this process included, runs "
                            "BLAS on one thread, so they do not "
                            "oversubscribe the CPUs")
        p.add_argument("--out", type=str, default=None,
                       help="output path (.csv or .json); overrides the "
                            "configuration's output_path")

    run = sub.add_parser("run", help="run a sweep configuration file")
    run.add_argument("config", type=str)
    add_run_options(run)

    preset = sub.add_parser("preset", help="run a packaged figure preset")
    preset.add_argument("name", choices=PRESETS)
    preset.add_argument("--full-scale", action="store_true",
                        help="extend the copy budget to the full-scale value "
                             "(fig2 only)")
    add_run_options(preset)

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("config", type=str)
    return parser


def load_preset(name: str, full_scale: bool = False) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    if full_scale and name != "fig2":
        raise ConfigError("--full-scale applies to the fig2 preset only")
    text = resources.files("dsmsim").joinpath(f"presets/{name}.json").read_text("utf-8")
    config = parse_config(text)
    if full_scale:
        config = dataclasses.replace(
            config, copy_budgets=config.copy_budgets + (FULL_SCALE_BUDGET,))
    return config


def output_paths(out, tables) -> dict:
    """One file per table; single-table runs write exactly to ``out``."""
    base = Path(out)
    if len(tables) == 1:
        return {next(iter(tables)): base}
    stem, suffix = base.stem, base.suffix or ".csv"
    return {name: base.with_name(f"{stem}_{name}{suffix}") for name in tables}


def _write_tables(tables: dict, out: Path):
    paths = output_paths(out, tables)
    for name, rows in tables.items():
        path = paths[name]
        writer = export_json if path.suffix.lower() == ".json" else export_csv
        writer(rows, table_fieldnames(name), path)
        print(f"wrote {len(rows)} rows to {path}")


def _execute(config: ExperimentConfig, out: Path, threads: int) -> int:
    try:
        tables = run_figure(config, threads=threads)
    except FigureRunError as exc:
        _write_tables({"results": exc.rows}, out)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_tables(tables, out)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line, a validation error
        # here, and 0 after --help
        return 1 if exc.code else 0
    try:
        if args.command == "validate":
            load_config(args.config)
            print(f"{args.config}: OK")
            return 0
        if args.command == "run":
            config = load_config(args.config)
        else:
            config = load_preset(args.name, full_scale=args.full_scale)
        if args.seed is not None:
            config = dataclasses.replace(config, master_seed=args.seed)
        if args.threads < 1:
            raise ConfigError("--threads must be positive")
        # checked before the sweep, which may run for hours
        out = Path(args.out or config.output_path)
        if out.is_dir():
            raise ConfigError(f"output path {out} is a directory")
        if not out.parent.is_dir():
            raise ConfigError(f"output directory {out.parent} does not exist")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _execute(config, out, args.threads)
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
