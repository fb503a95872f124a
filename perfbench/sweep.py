"""One benchmark sweep in a fresh process.

Imports dsmsim from the checkout's ``src``, loads the workload's preset,
then runs ``run_figure`` and writes the result table with ``export_csv``.
Prints one JSON line: when set-up ended, the sweep's wall time, the
reference kernel's time before and after it, the sweep's peak resident
memory, provenance, and the trace summary when traced.

    python3 perfbench/sweep.py --workload mixed-grid --out TABLE.csv \
        [--seed N] [--repetitions N] [--trace experiments|full] [--setup-only]

``run.py`` starts one of these per sweep, so every sweep pays interpreter
start-up, import and config load, and its memory peak is its own.
"""

import argparse
import dataclasses
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_CALLS = 6000


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str
    full_scale: bool
    repetitions: int
    workers: int
    why: str


# Repetitions are cut from the presets' 50 so a sweep takes seconds; every
# grid is kept whole.
WORKLOADS = {
    "mixed-grid": Workload(
        "fig4", False, 4, 1,
        "fig4 grid, 242 mixed GHZ3 points at 1e3 copies: per-repetition Python "
        "overhead dominates and sampling is about a tenth"),
    "pure-fullscale": Workload(
        "fig2", True, 4, 1,
        "fig2 --full-scale, 24 pure GHZ3 points up to 1e6 copies: per-copy "
        "sampling dominates and holds million-variate arrays"),
    "mixed-grid-2w": Workload(
        "fig4", False, 4, 2,
        "mixed-grid on 2 worker processes: one pool task per repetition, so "
        "pickling and dispatch show; mixed-grid is its bypass"),
}


def reference_kernel(_=None) -> float:
    """Wall time of fixed NumPy and Python work that does not use dsmsim.

    It stands for the machine's speed at the moment it runs: small-matrix
    linear algebra, cumulative sums, searches and dict updates, the same
    kind of work as a repetition.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((16, 8, 8)) + 1j * rng.standard_normal((16, 8, 8))
    mats = blocks @ blocks.conj().transpose(0, 2, 1)
    start = time.perf_counter()
    acc, cells = 0.0, {}
    for i in range(REFERENCE_CALLS):
        mat = mats[i % 16]
        cdf = np.cumsum(np.abs(np.linalg.eigvalsh(mat)))
        acc += float(np.searchsorted(cdf / cdf[-1], 0.5)) + float(np.trace(mat).real)
        cells[i % 35] = cells.get(i % 35, 0.0) + acc
    return time.perf_counter() - start


def reference_time(workers: int) -> float:
    """reference_kernel run at once in ``workers`` processes; the slowest time.

    A sweep on two workers is as slow as the slower processor, which a
    kernel on one processor does not see: on a shared host one processor can
    be slowed while the other is not.
    """
    if workers == 1:
        return reference_kernel()
    pool = multiprocessing.get_context("fork").Pool(workers - 1)
    try:
        others = pool.map_async(reference_kernel, range(workers - 1))
        mine = reference_kernel()
        return max(mine, *others.get())
    finally:
        pool.close()
        pool.join()


def backend_name() -> str:
    try:
        from dsmsim import sampling
    except ImportError:
        return "numpy"
    # Without the compiled kernel switch only the NumPy path exists.
    return getattr(sampling, "DEFAULT_BACKEND", "numpy")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="master_seed override (default: the preset's)")
    parser.add_argument("--repetitions", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", choices=("experiments", "full"), default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import dsmsim

    if not Path(dsmsim.__file__).resolve().is_relative_to(SRC):
        print(f"dsmsim imported from {dsmsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from dsmsim.cli import load_preset
    from dsmsim.experiments import FigureRunError, export_csv, run_figure, table_fieldnames

    workload = WORKLOADS[args.workload]
    config = load_preset(workload.preset, full_scale=workload.full_scale)
    changes = {"repetitions": args.repetitions or workload.repetitions}
    if args.seed is not None:
        changes["master_seed"] = args.seed
    config = dataclasses.replace(config, **changes)
    ready = time.monotonic()
    workers = args.workers or workload.workers
    before = reference_time(workers)
    if args.setup_only:
        print(json.dumps({"ready": ready, "reference_s": [before]}))
        return 0

    tracer = None
    export = export_csv
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(args.trace)
        run_figure = tracer.wrap("experiments.run_figure", run_figure)
        export = tracer.wrap("experiments.export", export_csv)

    start = time.perf_counter()
    try:
        rows = run_figure(config, threads=workers)["results"]
    except FigureRunError as exc:
        rows = exc.rows
    export(rows, table_fieldnames("results"), args.out)
    wall = time.perf_counter() - start
    # read before the kernel's helper process of the second reading ends
    rss_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if workers > 1 else resource.RUSAGE_SELF).ru_maxrss
    after = reference_time(workers)
    import numpy

    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "reference_s": [before, after],
        "rss_kb": rss_kb,
        "numpy": numpy.__version__,
        "backend": backend_name(),
        "trace": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
