"""Outside-in spans around dsmsim's layer functions.

Each layer function is replaced, for the life of one sweep process, in the
namespace of the module that calls it: the repetition stages as
``dsmsim.montecarlo`` imports them, ``run_repetitions`` and the process pool
as ``dsmsim.experiments`` imports them. No file of the package changes. A
function that is not there at some commit is listed as absent and its layer
reads zero, so the same harness measures before and after a refactor.

Spans stay in memory as (layer, start, end, parent) and are reduced when the
sweep ends. A layer's self time is its span time minus the time of the spans
it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

EXPERIMENTS = "dsmsim.experiments"
MONTECARLO = "dsmsim.montecarlo"

# (module whose namespace holds the name, name, layer)
EXPERIMENT_SPANS = [
    (EXPERIMENTS, "run_repetitions", "experiments.run_repetitions"),
]
STAGE_SPANS = [
    (MONTECARLO, "run_single_repetition", "montecarlo.rep"),
    (MONTECARLO, "build_outcome_distribution", "montecarlo.build_dist"),
    (MONTECARLO, "estimate_pure_probabilities", "montecarlo.estimate"),
    (MONTECARLO, "estimate_lambda_tables", "montecarlo.estimate"),
    (MONTECARLO, "sample_counts", "sampling"),
    (MONTECARLO, "perturb_pure_state", "noise"),
    (MONTECARLO, "sample_kappas", "noise"),
    (MONTECARLO, "white_noise_channel", "noise"),
    (MONTECARLO, "make_conjugate_state", "states"),
    (MONTECARLO, "conjugate_family", "states"),
    (MONTECARLO, "conditional_tables", "mixed_protocol.tables"),
    (MONTECARLO, "reconstruct_mixed_c1", "mixed_protocol.reconstruct"),
    (MONTECARLO, "reconstruct_mixed_c2", "mixed_protocol.reconstruct"),
    (MONTECARLO, "physicalize", "mixed_protocol.physicalize"),
    (MONTECARLO, "reconstruct_pure", "pure_protocol.reconstruct"),
    (MONTECARLO, "trace_distance_pure", "metrics.distance"),
    (MONTECARLO, "trace_distance_mixed", "metrics.distance"),
]
# Per-cell constructions inside the repetition loop: counted, not timed.
CELL_COUNTS = [
    (MONTECARLO, "PauliProbabilities"),
    (MONTECARLO, "pauli_probabilities"),
    (MONTECARLO, "lambda_from_pauli"),
]
LEVELS = ("experiments", "full")


class Tracer:
    """Span and count recorder for one sweep."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.cells = 0
        self.sampled = []
        self.task_bytes = []
        self.tasks = 0
        self.absent = []

    def wrap(self, layer: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (layer, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.cells += 1
            return fn(*args, **kwargs)

        return counting

    def _patch(self, module_name: str, name: str, make):
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            self.absent.append(f"{module_name}.{name}")
            return
        setattr(module, name, make(getattr(module, name)))

    def install(self, level: str):
        """Wrap the experiments layer, plus every repetition stage for "full"."""
        if level not in LEVELS:
            raise ValueError(f"trace level must be one of {LEVELS}")
        for module_name, name, layer in EXPERIMENT_SPANS:
            self._patch(module_name, name, functools.partial(self.wrap, layer))
        self._patch(EXPERIMENTS, "ProcessPoolExecutor", self._counting_pool)
        if level == "experiments":
            return
        for module_name, name, layer in STAGE_SPANS:
            on_result = self.sampled.append if layer == "sampling" else None
            self._patch(module_name, name,
                        functools.partial(self.wrap, layer, on_result=on_result))
        for module_name, name in CELL_COUNTS:
            self._patch(module_name, name, self.counted)

    def _counting_pool(self, _original):
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            """Counts each task sent to a worker and the pickled bytes both ways."""

            def submit(self, fn, /, *args, **kwargs):
                tracer.tasks += 1
                tracer.task_bytes.append(len(pickle.dumps((fn, args, kwargs))))
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(
                    lambda done: tracer.task_bytes.append(
                        len(pickle.dumps(done.result()))))
                return future

        return CountingPool

    def summary(self) -> dict:
        """Self time and calls per layer, plus the repetition times and counts."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls = Counter(), Counter()
        rep_ms = []
        for (layer, start, end, _), inner in zip(self.spans, child_time):
            self_s[layer] += end - start - inner
            calls[layer] += 1
            if layer == "montecarlo.rep":
                rep_ms.append((end - start) * 1e3)
        copies = sum(int(counts.sum()) for counts in self.sampled)
        # the trailing outcome of every setting is the failed postselection
        kept = sum(int(counts[:-1].sum()) for counts in self.sampled)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "rep_ms": rep_ms,
            "cells": self.cells,
            "copies": copies,
            "kept": kept,
            "tasks": self.tasks,
            "task_bytes": sum(self.task_bytes),
            "absent": self.absent,
        }
