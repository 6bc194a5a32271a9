"""The benchmark's workloads: inputs made from a seed, the timed call into
homcount's public API, and the checks of its outputs.

Every module attribute is looked up at call time (`embedding.embed`, not a
name imported once), so the layer trace sees the calls it wraps.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from homcount import datasets, embedding, evaluate, patterns
from homcount.graphs import Graph

hom_mod = sys.modules["homcount.hom"]  # `homcount.hom` is the function

# Input sizes. "full" is what the benchmark measures; "tiny" only proves
# that each workload and its checks run.
SIZES = {
    "full": {
        "csl_copies": 15, "cv_k": 10, "cv_repeats": 10,
        "labeled_total": 100, "cells_per_family": 12,
    },
    "tiny": {
        "csl_copies": 4, "cv_k": 2, "cv_repeats": 1,
        "labeled_total": 12, "cells_per_family": 4,
    },
}
LABEL_WEIGHTS = (0.55, 0.25, 0.12, 0.08)  # skewed node-label frequencies
REAL_RTOL = 1e-9
REFERENCE_FOLDS = 10  # csl-cv folds retrained sequentially as the reference


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, size, workdir) -> inputs
    run: Callable  # (inputs) -> output; the timed call
    check: Callable  # (inputs, outputs) -> (attempted, failed)
    sizes: Callable  # (inputs) -> dict of input sizes for the record
    # (inputs, output) -> the part of an output the check needs, taken right
    # after each call so that peak memory does not grow with the call count
    digest: Callable = lambda inp, out: out


# ---------------------------------------------------------------------------
# csl-cv: the paper's headline experiment, dominated by classifier training


def _csl_setup(seed: int, size: dict, workdir: Path) -> dict:
    bundle = datasets.gen_csl(copies_per_class=size["csl_copies"], seed=seed)
    return {"bundle": bundle, "seed": seed, "k": size["cv_k"], "repeats": size["cv_repeats"]}


def _csl_run(inp: dict):
    return evaluate.cross_validate(
        inp["bundle"], "cycles:8", k=inp["k"], seed=inp["seed"], repeats=inp["repeats"]
    )


def reference_fold_accuracies(inp: dict, folds: list[int]) -> dict[int, float]:
    """Accuracies of the given folds (index repeat * k + fold) from a plain
    sequential loop over the per-fold public calls: the reference that any
    batched or reordered CV must reproduce bit for bit."""
    bundle, k = inp["bundle"], inp["k"]
    matrix = embedding.embed(bundle, "cycles:8")
    labels = np.asarray(bundle.labels, dtype=np.int64)
    accuracies = {}
    for r in sorted({f // k for f in folds}):
        seed = evaluate._fold_seed(inp["seed"], r)
        splits = evaluate.stratified_kfold(bundle.labels, k=k, seed=seed)
        for f in sorted(f for f in folds if f // k == r):
            train_idx, test_idx = splits[f % k]
            scaler = embedding.fit_standardizer(matrix, rows=train_idx)
            scaled = embedding.apply_standardizer(matrix, scaler)
            model = evaluate.train_classifier(
                scaled.values[train_idx], labels[train_idx], bundle.num_classes
            )
            pred = evaluate.predict(model, scaled.values[test_idx])
            accuracies[f] = float(np.mean(pred == labels[test_idx]))
    return accuracies


def check_folds(num_folds: int, reference: dict[int, float], reports: list) -> tuple[int, int]:
    """One operation per fold of each report. A fold fails unless its
    accuracy is 1.0 (cycles:8 separates every CSL class) and, where the
    reference has it, equals the reference. A report of None stands for a
    timed call that raised."""
    attempted = failed = 0
    for report in reports:
        got = list(report.fold_accuracies) if report is not None else []
        got += [None] * (num_folds - len(got))
        attempted += len(got)
        failed += sum(1 for f, g in enumerate(got) if not g == reference.get(f, g) == 1.0)
    return attempted, failed


def _csl_check(inp: dict, reports: list) -> tuple[int, int]:
    num_folds = inp["k"] * inp["repeats"]
    sample = random.Random(inp["seed"]).sample(range(num_folds), min(REFERENCE_FOLDS, num_folds))
    return check_folds(num_folds, reference_fold_accuracies(inp, sample), reports)


def _csl_sizes(inp: dict) -> dict:
    b = inp["bundle"]
    return {"graphs": len(b.graphs), "vertices_per_graph": b.graphs[0].num_vertices,
            "k": inp["k"], "repeats": inp["repeats"], "family": "cycles:8"}


# ---------------------------------------------------------------------------
# labeled-embed: TU parse plus weighted counting under label encoders

LABELED_FAMILIES = ("cycles:6", "trees:6")
LABELED_NAME = "LABELED"


def gen_labeled(seed: int, total: int, n_range: tuple[int, int] = (10, 30)):
    """Molecule-like labeled graphs: a random recursive spanning tree plus
    1-3 ring-closing edges, with four skewed one-hot node labels.

    Vertex counts and ring counts follow a fixed pattern shuffled by the
    seed, so every seed asks for the same amount of work. The class is 0
    for one ring and 1 for more.
    """
    rng = random.Random(seed)
    lo, hi = n_range
    shapes = [(lo + i % (hi - lo + 1), 1 + i % 3) for i in range(total)]
    rng.shuffle(shapes)
    graphs, labels, features = [], [], []
    for n, rings in shapes:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < n - 1 + rings:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        node_labels = rng.choices(range(len(LABEL_WEIGHTS)), LABEL_WEIGHTS, k=n)
        onehot = np.zeros((n, len(LABEL_WEIGHTS)))
        onehot[np.arange(n), node_labels] = 1.0
        graphs.append(Graph(n, sorted(edges)))
        labels.append(0 if rings == 1 else 1)
        features.append(onehot)
    # Every label occurs, so the parsed one-hot width is always four.
    for lab in range(len(LABEL_WEIGHTS)):
        features[lab][0] = np.eye(len(LABEL_WEIGHTS))[lab]
    return datasets.DatasetBundle(LABELED_NAME, graphs, labels, features)


def _labeled_setup(seed: int, size: dict, workdir: Path) -> dict:
    bundle = gen_labeled(seed, total=size["labeled_total"])
    datasets.write_tud(bundle, workdir)
    return {"bundle": bundle, "dir": workdir, "seed": seed, "cells": size["cells_per_family"]}


def _labeled_run(inp: dict) -> tuple:
    parsed = datasets.parse_tud(inp["dir"], LABELED_NAME)
    return parsed, [embedding.embed(parsed, fam) for fam in LABELED_FAMILIES]


def same_bundle(a, b) -> bool:
    return (
        a.graphs == b.graphs
        and a.labels == b.labels
        and len(a.features) == len(b.features)
        and all(np.array_equal(x, y) for x, y in zip(a.features, b.features))
    )


def _labeled_sizes(inp: dict) -> dict:
    graphs = inp["bundle"].graphs
    ns = [g.num_vertices for g in graphs]
    return {"graphs": len(ns), "vertices_min": min(ns), "vertices_max": max(ns),
            "vertices_total": sum(ns), "edges_total": sum(g.num_edges for g in graphs),
            "families": list(LABELED_FAMILIES)}


def _labeled_digest(inp: dict, out: tuple) -> tuple:
    parsed, mats = out
    return same_bundle(parsed, inp["bundle"]), mats


def _labeled_check(inp: dict, outputs: list) -> tuple[int, int]:
    # One operation per parse: the parsed bundle must equal the written one.
    outputs = [out or (False, None) for out in outputs]
    failed = sum(1 for parsed_ok, _ in outputs if not parsed_ok)
    plan = sample_cells(inp["bundle"], LABELED_FAMILIES, inp["seed"], inp["cells"])
    attempted, cell_failed = check_cells(inp["bundle"], plan, [m for _, m in outputs])
    return attempted + len(outputs), failed + cell_failed


# ---------------------------------------------------------------------------
# embedding cell checks


def _induced(g: Graph, keep: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(keep), edges)


def oracle(pattern, graph: Graph, weights) -> tuple[float, bool]:
    """(value, exact) of one cell, by a different public algorithm than the
    one `hom` dispatches to: `hom_brute` where its guard allows, otherwise
    `hom_treedec` for tree and exact cycle cells.

    Weighted cycle cells are the ones `hom` already counts with
    `hom_treedec`. With 0/1 weights such a count equals the plain count into
    the subgraph induced by the weight-one vertices, which `hom_brute` or the
    exact mode of `hom_treedec` then counts.
    """
    f = pattern.graph
    guard = hom_mod.BRUTE_FORCE_GUARD
    exact = weights is None
    if graph.num_vertices ** f.num_vertices <= guard:
        return float(hom_mod.hom_brute(f, graph, weights=weights)), exact
    td = patterns.nice_decomposition(pattern)
    if pattern.family != "cycle" or exact:
        return float(hom_mod.hom_treedec(f, td, graph, weights=weights)), exact
    if any(w not in (0.0, 1.0) for w in weights):
        raise ValueError("no independent algorithm for this weighted cycle cell")
    sub = _induced(graph, [v for v, w in enumerate(weights) if w == 1.0])
    if sub.num_vertices ** f.num_vertices <= guard:
        return float(hom_mod.hom_brute(f, sub)), False
    return float(hom_mod.hom_treedec(f, td, sub)), False


def cell_matches(got: float, expected: float, exact: bool) -> bool:
    if exact:
        return got == expected
    return abs(got - expected) <= REAL_RTOL * abs(expected)


def sample_cells(bundle, families, seed: int, per_family: int) -> list[tuple]:
    """A seeded sample of cells with their expected values:
    (family index, row, column, pattern index, encoder label, expected),
    where expected is None when the oracle raised."""
    rng = random.Random(seed)
    phis = embedding.default_phi_set(bundle)
    plan = []
    for fi, fam in enumerate(families):
        pats = patterns.resolve_family(fam)
        for _ in range(per_family):
            i = rng.randrange(len(bundle.graphs))
            j = rng.randrange(len(pats) * len(phis))
            pi, qi = divmod(j, len(phis))
            phi = phis[qi]
            weights = None
            if phi.kind != "constant_one":
                weights = [phi(row) for row in bundle.features[i]]
            try:
                expected = oracle(pats[pi], bundle.graphs[i], weights)
            except Exception as exc:  # an oracle error fails the cell, not the run
                print(f"oracle failed on cell ({fam}, {i}, {j}): {exc}", file=sys.stderr)
                expected = None
            plan.append((fi, i, j, pi, phi.label(), expected))
    return plan


def check_cells(bundle, plan: list[tuple], outputs: list) -> tuple[int, int]:
    """Compare every output with the sampled cells of `plan`.

    `outputs` holds, per timed call, one embedding matrix per family (None
    when the call raised). One operation is one sampled cell of one output.
    A cell fails on a value mismatch, on wrong column metadata or matrix
    shape, and when its oracle raised.
    """
    attempted = failed = 0
    for mats in outputs:
        for fi, i, j, pi, label, expected in plan:
            attempted += 1
            m = mats[fi] if mats and fi < len(mats) else None
            ok = (
                expected is not None
                and m is not None
                and m.values.shape == (len(bundle.graphs), len(m.column_meta))
                and j < len(m.column_meta)
                and m.column_meta[j].pattern_index == pi
                and m.column_meta[j].phi == label
                and cell_matches(float(m.values[i, j]), *expected)
            )
            failed += not ok
    return attempted, failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("csl-cv", _csl_setup, _csl_run, _csl_check, _csl_sizes),
        Workload("labeled-embed", _labeled_setup, _labeled_run, _labeled_check,
                 _labeled_sizes, _labeled_digest),
    )
}
