"""Outside-in layer trace for the homcount benchmark.

The tracer replaces homcount's public functions, as seen by their callers,
with wrappers that record a span (name, parent, start, end) and a few
counters. Spans live in memory and are written out once the run ends. A
wrapper records nothing while the tracer is inactive, so setup and output
checks (which call the same functions) stay out of the figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

HOM_FUNCS = ("hom_tree", "hom_cycle", "hom_treedec", "hom_brute")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end)
        self.counts: Counter = Counter()
        self.fold_flops: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace `module.attr` by a span-recording wrapper."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end)
            tracer.counts[name] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        from homcount import datasets, embedding, evaluate

        hom_mod = sys.modules["homcount.hom"]  # `homcount.hom` is the function

        def count_hom(args, kwargs, hv):
            self.counts["hom.exact" if hv.mode == "exact" else "hom.real"] += 1
            if hv.promoted:
                self.counts["hom.promoted"] += 1

        for fn in HOM_FUNCS:
            self.wrap(hom_mod, fn, f"hom.{fn}", count_hom)
        self.wrap(hom_mod, "nice_decomposition", "patterns.nice_decomposition")
        self.wrap(embedding, "resolve_family", "patterns.resolve_family")

        def count_cells(args, kwargs, matrix):
            self.counts["embedding.cells"] += matrix.values.size

        self.wrap(embedding, "embed", "embedding.embed", count_cells)
        self.wrap(evaluate, "embed", "embedding.embed", count_cells)
        self.wrap(datasets, "parse_tud", "datasets.parse_tud")

        train_sig = inspect.signature(evaluate.train_classifier)

        def count_flops(args, kwargs, model):
            # Two (n x d) by (d x c) matrix products per epoch; the
            # elementwise softmax and update terms are left out.
            bound = train_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            n, d = bound.arguments["x"].shape
            c = model.weights.shape[1]
            self.fold_flops.append(4.0 * n * d * c * bound.arguments["hyper"].epochs)

        self.wrap(evaluate, "stratified_kfold", "evaluate.stratified_kfold")
        self.wrap(evaluate, "fit_standardizer", "embedding.fit_standardizer")
        self.wrap(evaluate, "apply_standardizer", "embedding.apply_standardizer")
        self.wrap(evaluate, "train_classifier", "evaluate.train_classifier", count_flops)
        self.wrap(evaluate, "predict", "evaluate.predict")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def mark(self) -> tuple[int, Counter, int]:
        """Position to measure one traced operation from."""
        return len(self.spans), self.counts.copy(), len(self.fold_flops)

    def layer_metrics(self, mark: tuple[int, Counter, int]) -> dict[str, float]:
        """Per-layer figures for the spans and counts recorded since `mark`."""
        first, counts_before, flops_first = mark
        spans = self.spans[first:]
        counts = self.counts - counts_before
        busy: Counter = Counter()
        for _, _, name, start, end in spans:
            busy[name] += end - start
        fold_ms = sorted(
            1000.0 * (end - start)
            for _, _, name, start, end in spans
            if name == "evaluate.train_classifier"
        )
        train_s = busy["evaluate.train_classifier"]
        gflop = sum(self.fold_flops[flops_first:]) / 1e9
        hom_s = sum(busy[f"hom.{fn}"] for fn in HOM_FUNCS)
        m = {
            "evaluate.train_s": train_s,
            "evaluate.train_fold_ms_p50": _quantile(fold_ms, 0.5),
            "evaluate.train_fold_ms_p90": _quantile(fold_ms, 0.9),
            "evaluate.folds": counts["evaluate.train_classifier"],
            "evaluate.train_gflop_computed": gflop,
            "evaluate.train_gflop_per_s": gflop / train_s if train_s > 0 else 0.0,
            "evaluate.kfold_s": busy["evaluate.stratified_kfold"],
            "evaluate.predict_s": busy["evaluate.predict"],
            "embedding.standardize_s": busy["embedding.fit_standardizer"]
            + busy["embedding.apply_standardizer"],
            "hom.cycle_s": busy["hom.hom_cycle"],
            "hom.cycle_calls": counts["hom.hom_cycle"],
            "hom.tree_s": busy["hom.hom_tree"],
            "hom.tree_calls": counts["hom.hom_tree"],
            "hom.treedec_s": busy["hom.hom_treedec"],
            "hom.treedec_calls": counts["hom.hom_treedec"],
            "hom.brute_calls": counts["hom.hom_brute"],
            "hom.exact_calls": counts["hom.exact"],
            "hom.real_calls": counts["hom.real"],
            "hom.promoted": counts["hom.promoted"],
            "patterns.decomp_s": busy["patterns.nice_decomposition"],
            "patterns.decomp_calls": counts["patterns.nice_decomposition"],
            "patterns.catalog_s": busy["patterns.resolve_family"],
            "embedding.embed_s": busy["embedding.embed"],
            "embedding.cells": counts["embedding.cells"],
            "embedding.dispatch_self_s": busy["embedding.embed"]
            - busy["patterns.resolve_family"]
            - busy["patterns.nice_decomposition"]
            - hom_s,
            "datasets.parse_s": busy["datasets.parse_tud"],
        }
        return m

    def write(self, path: Path) -> None:
        """Write every recorded span, times relative to the first one."""
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            {"id": s, "parent": p, "name": n, "start_s": a - t0, "end_s": b - t0}
            for s, p, n, a, b in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n")


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(m[k] for m in per_op) for k in per_op[0]}


# Unit of every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "evaluate.train_s": "s",
    "evaluate.train_fold_ms_p50": "ms",
    "evaluate.train_fold_ms_p90": "ms",
    "evaluate.folds": "count",
    "evaluate.train_gflop_computed": "GFLOP",
    "evaluate.train_gflop_per_s": "GFLOP/s",
    "evaluate.kfold_s": "s",
    "evaluate.predict_s": "s",
    "embedding.standardize_s": "s",
    "hom.cycle_s": "s",
    "hom.cycle_calls": "count",
    "hom.tree_s": "s",
    "hom.tree_calls": "count",
    "hom.treedec_s": "s",
    "hom.treedec_calls": "count",
    "hom.brute_calls": "count",
    "hom.exact_calls": "count",
    "hom.real_calls": "count",
    "hom.promoted": "count",
    "patterns.decomp_s": "s",
    "patterns.decomp_calls": "count",
    "patterns.catalog_s": "s",
    "embedding.embed_s": "s",
    "embedding.cells": "count",
    "embedding.dispatch_self_s": "s",
    "datasets.parse_s": "s",
    "datasets.gen_s": "s",
    "trace.overhead_s": "s",
}
