"""Compare two sets of benchmark runs, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE/.perfbench/runs.jsonl CHANGE/.perfbench/runs.jsonl

Reads the run records perfbench/run.py appends, groups them by workload and
trace mode, and prints each metric's median and quartiles on both sides and
the change's median as a share of the base's. An end-to-end metric that got
worse by more than its BENCHMARK.json bound is marked REGRESSION (exit 1).
Runs made on different sampling backends are refused (exit 2): the backend
alone moves pure-fullscale by more than any bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class CompareError(RuntimeError):
    pass


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_backends(records: list[dict]):
    backends = {record["provenance"]["backend"] for record in records}
    if len(backends) > 1:
        raise CompareError(f"runs used different sampling backends: {sorted(backends)}")


def summarize(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.4g}..{q3:.4g}] (n={len(values)})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    try:
        check_backends(base + change)
    except CompareError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text("utf-8"))
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups = defaultdict(lambda: (defaultdict(list), defaultdict(list)))
    for side, records in enumerate((base, change)):
        for record in records:
            if not record["correct"]:
                continue
            values = groups[(record["workload"], record["trace"])][side]
            for name, value in record["metrics"].items():
                values[name].append(value)
    regressions = 0
    for (workload, trace), (before, after) in sorted(groups.items()):
        print(f"== {workload} trace={int(trace)}")
        for name in sorted(set(before) & set(after)):
            old, new = statistics.median(before[name]), statistics.median(after[name])
            rule = rules.get(name, {})
            share = new / old if old else float("nan")
            worse = (share - 1) if rule.get("better") == "lower" else (1 - share)
            flag = ""
            if "bound" in rule and worse > rule["bound"]:
                flag = "  REGRESSION"
                regressions += 1
            print(f"  {name:32s} {summarize(before[name])} -> {summarize(after[name])}"
                  f"  x{share:.3f}{flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
