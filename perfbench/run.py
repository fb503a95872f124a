"""Sweep benchmark for dsmsim: end-to-end figure time and a per-layer trace.

A closed loop: this script starts one sweep process at a time
(perfbench/sweep.py), waits for it, checks its table, and starts the next
until ``--seconds`` are spent. Each sweep runs the public ``run_figure`` and
``export_csv`` on one workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

With ``--trace 0`` it reports the end-to-end metrics of the workload's own
sweeps. With ``--trace 1`` it alternates untraced and traced sweeps (traced
ones always on one worker) and reports the per-layer metrics; PER_LAYER below
names the end-to-end metric each one should move, and on which workload.

Every sweep of a run uses the same seed, so every table of a run must be
byte-identical: traced or not, one worker or two. The run fails (exit 1,
``"correct": false``) when that or any other output check fails. Each result
is also appended, with its provenance, to .perfbench/runs.jsonl for
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sweep import ROOT, SRC, WORKLOADS

SWEEP = Path(__file__).resolve().with_name("sweep.py")
OUT = ROOT / ".perfbench"
SWEEP_TIMEOUT_S = 150
# Times are reported at the reference speed: the machine speed at which
# sweep.reference_kernel takes this long. Every sweep process times the
# kernel right before and after its sweep, and a run scales the median of
# its times by REFERENCE_S over the kernel's median time in the same
# processes. On a shared host the speed drifts by tens of percent over
# seconds to minutes; the scaling cancels most of that drift, which a median
# over one run cannot.
REFERENCE_S = 0.2
SETUP_SAMPLES = 9
# pure GHZ3 at sigma = 0: distance ~ copies^(-1/2). C1 flattens it to about
# -0.44, since 1e3 copies over 24 settings leave few copies per setting; at 4
# repetitions a fitted slope scatters by about 0.025 around that.
SLOPE_RANGE = (-0.7, -0.3)

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("copies_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (metric, unit, better, end-to-end metric it should move, workload that shows it)
PER_LAYER = [
    ("montecarlo.reps", "count", "higher", "wall_s", "all"),
    ("montecarlo.rep_p50_ms", "ms", "lower", "wall_s", "all"),
    ("montecarlo.rep_p99_ms", "ms", "lower", "wall_s", "all"),
    ("montecarlo.rep_self_s", "s", "lower", "wall_s", "mixed-grid"),
    ("montecarlo.build_dist_s", "s", "lower", "wall_s", "mixed-grid"),
    ("montecarlo.build_dist.calls", "count", "lower", "wall_s", "mixed-grid"),
    ("montecarlo.estimate_s", "s", "lower", "wall_s", "mixed-grid"),
    ("montecarlo.cell_calls", "count", "lower", "wall_s", "mixed-grid"),
    ("sampling.self_s", "s", "lower", "wall_s copies_per_s peak_rss_mb", "pure-fullscale"),
    ("sampling.calls", "count", "lower", "wall_s copies_per_s", "pure-fullscale"),
    ("sampling.copies", "count", "higher", "copies_per_s", "pure-fullscale"),
    ("sampling.ns_per_copy", "ns", "lower", "wall_s copies_per_s", "pure-fullscale"),
    ("sampling.postselected_frac", "ratio", "higher", "none (physics ratio)", "all"),
    ("noise.self_s", "s", "lower", "wall_s", "mixed-grid"),
    ("states.self_s", "s", "lower", "wall_s", "mixed-grid"),
    ("mixed_protocol.tables_s", "s", "lower", "wall_s", "mixed-grid"),
    ("mixed_protocol.reconstruct_s", "s", "lower", "wall_s", "mixed-grid"),
    ("mixed_protocol.physicalize_s", "s", "lower", "wall_s", "mixed-grid"),
    ("pure_protocol.reconstruct_s", "s", "lower", "wall_s", "pure-fullscale"),
    ("metrics.distance_s", "s", "lower", "wall_s", "all"),
    ("experiments.outside_s", "s", "lower", "wall_s", "mixed-grid-2w"),
    ("experiments.tasks", "count", "lower", "wall_s", "mixed-grid-2w"),
    ("experiments.task_bytes", "B", "lower", "wall_s", "mixed-grid-2w"),
    ("experiments.parallel_eff", "ratio", "higher", "wall_s", "mixed-grid-2w"),
    ("trace.overhead_frac", "ratio", "lower", "none", "all"),
]

# per-layer metric -> tracer layer whose self time it reports
SELF_TIME = {
    "montecarlo.rep_self_s": "montecarlo.rep",
    "montecarlo.build_dist_s": "montecarlo.build_dist",
    "montecarlo.estimate_s": "montecarlo.estimate",
    "sampling.self_s": "sampling",
    "noise.self_s": "noise",
    "states.self_s": "states",
    "mixed_protocol.tables_s": "mixed_protocol.tables",
    "mixed_protocol.reconstruct_s": "mixed_protocol.reconstruct",
    "mixed_protocol.physicalize_s": "mixed_protocol.physicalize",
    "pure_protocol.reconstruct_s": "pure_protocol.reconstruct",
    "metrics.distance_s": "metrics.distance",
}


class BenchError(RuntimeError):
    """The harness could not run a sweep; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spawn(args: list[str]) -> dict:
    """Run one sweep process to completion; its last stdout line is JSON."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(SWEEP), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
    except BaseException:
        # the sweep's own pool workers share its process group
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"sweep {' '.join(args)} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["kernel_s"] = statistics.fmean(result["reference_s"])
    return result


def check_table(path: Path, workload: str) -> tuple[dict, list[str]]:
    """Row counts and copies of one result table, plus every check it fails."""
    data = path.read_bytes()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    problems = []
    failed = [row for row in rows if row["error"]]
    for row in failed:
        problems.append(f"grid point failed: {row['error']}")
    copies = 0
    for row in rows:
        if row["error"]:
            continue
        distance = float(row["mean_distance"])
        if not (math.isfinite(distance) and 0.0 <= distance <= 1.0):
            problems.append(f"mean_distance {row['mean_distance']} not in [0, 1]")
        copies += int(row["num_copies"]) * int(row["repetitions"])
    if workload == "pure-fullscale" and not failed:
        problems += check_scaling(rows)
    info = {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows),
            "failed": len(failed), "copies": copies}
    return info, problems


def check_scaling(rows) -> list[str]:
    """Noise-free distance falls with copies, log-log slope near -1/2."""
    problems = []
    for config in sorted({row["config"] for row in rows}):
        points = sorted((int(row["num_copies"]), float(row["mean_distance"]))
                        for row in rows
                        if row["config"] == config and float(row["sigma_prep"]) == 0.0
                        and float(row["sigma_post"]) == 0.0)
        means = [mean for _, mean in points]
        if any(later >= earlier for earlier, later in zip(means, means[1:])):
            problems.append(f"{config} sigma=0 distance does not fall with copies: {means}")
            continue
        slope = statistics.linear_regression(
            [math.log10(copies) for copies, _ in points],
            [math.log10(mean) for mean in means]).slope
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            problems.append(f"{config} sigma=0 log-log slope {slope:.3f} "
                            f"outside {SLOPE_RANGE}")
    return problems


def schedule(workers: int, trace: bool):
    """Sweeps run once first, and the cycle repeated until time is up."""
    if not trace:
        first = [(1, None)] if workers > 1 else []  # the one-worker reference table
        return first, [(workers, None)]
    cycle = [(workers, None)]
    if workers > 1:
        cycle += [(1, None), (1, "full"), (workers, "experiments")]
    else:
        cycle += [(1, "full")]
    return [], cycle


def run_workload(name: str, seed, seconds: float, trace: bool,
                 repetitions=None, min_cycles: int = 2) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    table = OUT / f"{name}.csv"
    common = ["--workload", name, "--out", str(table)]
    if seed is not None:
        common += ["--seed", str(seed)]
    if repetitions is not None:
        common += ["--repetitions", str(repetitions)]
    sweeps, spawns, problems, hashes = [], [], [], set()

    def sweep(workers, level):
        args = common + ["--workers", str(workers)]
        result = spawn(args + (["--trace", level] if level else []))
        info, found = check_table(table, name)
        result.update(info, workers=workers, level=level)
        sweeps.append(result)
        problems.extend(found)
        hashes.add(info["sha256"])

    spawn(common + ["--setup-only"])  # byte-compile and warm the page cache
    deadline = time.monotonic() + seconds
    first, cycle = schedule(workload.workers, trace)
    for kind in first:
        sweep(*kind)
    cycles = 0
    while True:
        began = time.monotonic()
        for kind in cycle:
            sweep(*kind)
        cycles += 1
        now = time.monotonic()
        if cycles >= min_cycles and now + (now - began) > deadline:
            break
    spawns += sweeps
    while not trace and len(spawns) < SETUP_SAMPLES:
        spawns.append(spawn(common + ["--setup-only"]))
    if len(hashes) > 1:
        problems.append(f"tables differ between sweeps of one seed: {sorted(hashes)}")

    shares = {}
    if trace:
        metrics, shares = layer_metrics(sweeps, workload.workers)
    else:
        metrics = end_to_end_metrics(
            [s for s in sweeps if s["workers"] == workload.workers], spawns)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(s["rows"] for s in sweeps),
        "failed": sum(s["failed"] for s in sweeps),
        "sweeps": len(sweeps),
        "kernel_s": [s["kernel_s"] for s in spawns],
        "tables_sha256": sorted(hashes),
        "provenance": provenance(sweeps),
        "absent": sorted({fn for s in sweeps if s["trace"] for fn in s["trace"]["absent"]}),
        "metrics": metrics,
        "shares": shares,
    }


def at_reference(values: list[float], group: list[dict]) -> float:
    """Median of times measured in ``group``'s processes, at the reference speed."""
    return median(values) * REFERENCE_S / median([s["kernel_s"] for s in group])


def end_to_end_metrics(timed: list[dict], spawns: list[dict]) -> dict:
    walls = [s["wall_s"] for s in timed]
    setups = [s["setup_s"] for s in spawns]
    wall = at_reference(walls, timed)
    return {
        "wall_s": (wall, walls),
        "copies_per_s": (median([s["copies"] for s in timed]) / wall, None),
        "setup_s": (at_reference(setups, spawns), setups),
        "peak_rss_mb": (median([s["rss_kb"] / 1024 for s in timed]), None),
    }


def layer_metrics(sweeps: list[dict], workers: int) -> dict:
    """Per-layer numbers of a traced run, times at the reference speed."""
    def wall(w, level):
        group = [s for s in sweeps if s["workers"] == w and s["level"] == level]
        return at_reference([s["wall_s"] for s in group], group)

    full = [s for s in sweeps if s["level"] == "full"]
    pool = [s for s in sweeps if s["level"] == ("experiments" if workers > 1 else "full")]

    def med(fn, group=full):
        return median([fn(s["trace"]) for s in group])

    def self_s(layer, group=full):
        return at_reference([s["trace"]["self_s"].get(layer, 0.0) for s in group], group)

    rep_ms = sorted(ms for s in full for ms in s["trace"]["rep_ms"])
    to_reference = at_reference([1.0], full)
    copies = sum(s["trace"]["copies"] for s in full)
    sampled = med(lambda t: t["copies"])
    traced_wall = wall(1, "full")
    metrics = {
        "montecarlo.reps": med(lambda t: len(t["rep_ms"])),
        "montecarlo.rep_p50_ms": percentile(rep_ms, 0.50) * to_reference,
        "montecarlo.rep_p99_ms": percentile(rep_ms, 0.99) * to_reference,
        "montecarlo.build_dist.calls": med(lambda t: t["calls"].get("montecarlo.build_dist", 0)),
        "montecarlo.cell_calls": med(lambda t: t["cells"]),
        "sampling.calls": med(lambda t: t["calls"].get("sampling", 0)),
        "sampling.copies": sampled,
        "sampling.ns_per_copy": 1e9 * self_s("sampling") / sampled if sampled else 0.0,
        "sampling.postselected_frac": (sum(s["trace"]["kept"] for s in full) / copies
                                       if copies else 0.0),
        "experiments.outside_s": self_s("experiments.run_figure", pool),
        "experiments.tasks": med(lambda t: t["tasks"], pool),
        "experiments.task_bytes": med(lambda t: t["task_bytes"], pool),
        "experiments.parallel_eff": wall(1, None) / (workers * wall(workers, None)),
        "trace.overhead_frac": traced_wall / wall(1, None) - 1.0,
    }
    metrics |= {metric: self_s(layer) for metric, layer in SELF_TIME.items()}
    layers = sorted({layer for s in full for layer in s["trace"]["self_s"]})
    shares = {layer: self_s(layer) / traced_wall for layer in layers}
    return {name: (metrics[name], None) for name, *_ in PER_LAYER}, shares


def percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package source, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(sweeps: list[dict]) -> dict:
    backends = sorted({s["backend"] for s in sweeps})
    if len(backends) != 1:
        raise BenchError(f"sweeps of one run used different backends: {backends}")
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": sweeps[0]["numpy"],
        "nproc": os.cpu_count(),
        "backend": backends[0],
    }


def report(result: dict):
    """Human-readable lines; the JSON result line is printed by main."""
    name = result["workload"]
    print(f"[{name}] seed={result['seed']} trace={int(result['trace'])} "
          f"sweeps={result['sweeps']} provenance={json.dumps(result['provenance'])}")
    print(f"[{name}] failed_frac = {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} grid points)")
    kernel = result["kernel_s"]
    print(f"[{name}] reference kernel: median {median(kernel):.4g} s, range "
          f"{min(kernel):.4g}..{max(kernel):.4g} s; times are scaled to {REFERENCE_S} s")
    for sha in result["tables_sha256"]:
        print(f"[{name}] table sha256 {sha}")
    for problem in result["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}")
    for absent in result["absent"]:
        print(f"[{name}] absent at this commit: {absent}")
    if result["trace"]:
        units = {metric: (unit, moves, on) for metric, unit, _, moves, on in PER_LAYER}
        for metric, (value, _) in result["metrics"].items():
            if metric in units:
                unit, moves, on = units[metric]
                print(f"[{name}] {metric} = {value:.6g} {unit}  (moves {moves}; shown on {on})")
        print(f"[{name}] self-time share of the traced sweep:")
        for layer, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
            print(f"[{name}]   {layer:32s} {100 * share:5.1f}%")
        return
    units = {metric: unit for metric, unit, _ in END_TO_END}
    for metric, (value, samples) in result["metrics"].items():
        spread = ""
        if samples:
            q1, q3 = quartiles(samples)
            spread = (f"  (unscaled, {len(samples)} samples: median {median(samples):.4g}, "
                      f"quartiles {q1:.4g}..{q3:.4g})")
        print(f"[{name}] {metric} = {value:.6g} {units[metric]}{spread}")


def finish(result: dict):
    """Print the report and append the run record."""
    report(result)
    record = dict(result, metrics={k: v for k, (v, _) in result["metrics"].items()},
                  samples={k: v for k, (_, v) in result["metrics"].items() if v})
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def metric_units(trace: bool) -> dict:
    specs = PER_LAYER if trace else END_TO_END
    return {name: unit for name, unit, *_ in specs}


def result_line(results: list[dict], trace: bool) -> dict:
    units = metric_units(trace)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, (value, _) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = all(result["correct"] for result in results)
    return {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics if correct else {},
    }


def self_test() -> int:
    """Harness checks at one repetition per grid point; exits nonzero on failure."""
    import compare
    from tracer import Tracer

    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from sweep.WORKLOADS")
    for w in spec["workloads"]:
        if w["name"] in WORKLOADS and w["why"] != WORKLOADS[w["name"]].why:
            failures.append(f"BENCHMARK.json why of {w['name']} differs from sweep.WORKLOADS")
    for key, specs in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [tuple(s[:3]) for s in specs]:
            failures.append(f"BENCHMARK.json {key} differs from run.py")

    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    tracer._patch("dsmsim.montecarlo", "no_such_layer_function", tracer.counted)
    if tracer.absent != ["dsmsim.montecarlo.no_such_layer_function"] or tracer.summary()["copies"]:
        failures.append("a missing layer function is not reported as absent")

    try:
        compare.check_backends([{"provenance": {"backend": "numpy"}},
                                {"provenance": {"backend": "compiled"}}])
        failures.append("compare accepted runs with different backends")
    except compare.CompareError:
        pass

    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, None, 0, trace, repetitions=1, min_cycles=1)
            report(result)
            line = result_line([result], trace)
            values = [m["value"] for m in line["metrics"].values()]
            if (not line["correct"] or set(line["metrics"]) != set(metric_units(trace))
                    or not all(math.isfinite(v) for v in values)):
                failures.append(f"{name} trace={int(trace)}: {result['problems'] or line}")
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the preset's master_seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops the sweep it is waiting for (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "dsmsim" / "__init__.py").is_file():
        print(f"error: no dsmsim package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            finish(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = result_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
