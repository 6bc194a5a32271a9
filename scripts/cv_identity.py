"""Fingerprint the embeddings, fold results and trained weights of the fixed
cross-validation workloads.

Runs CSL/{cycles:8, cycles:32}, bipartite/{cycles:8, trees:6} and
Paulus/{cycles:8, trees:6, trees:8} as 10x10 `cross_validate` at seed 0,
once with training limited to one CPU and once to two. Paulus/trees:8 trains
a (2, 189, 47) stack on the gathered rows, but all Paulus graphs share one
embedding row, so every standardized feature is 0.0: the line covers the
wide buffers and the bias, not how BLAS rounds a wide product. CSL/cycles:32
does: it trains a (2, 135, 31) stack of real-valued standardized features
with 10 distinct rows per fold on the gathered rows, above the width of
about 30 features where BLAS rounds the two product layouts apart. For each
workload it prints one tab-separated line:

1. the workload;
2. and 3. the sha256 of its fold accuracies (as float hex) and
   `config["epochs_run"]`, for 1 and for 2 CPUs;
4. the sha256 of `embed(bundle, family)`'s value bytes and column metadata,
   with density off and then on;
5. and 6. the sha256 of the trained weights and biases of every distinct
   training problem, for 1 and for 2 CPUs. Each record pairs the bytes of a
   fold's training rows and labels with its weights, and each distinct
   record counts once, so the digest depends neither on how folds are
   stacked or cut over CPUs nor on how many folds share a problem, and it
   changes with the weights even where the fold accuracies do not;
7. and 8. the `layer_seconds` of both runs.

Two more lines give column 4 for the labeled graphs of perfbench's
`labeled-embed` workload (`gen_labeled(0, 100)` with cycles:6 and trees:6
under the default encoders), with "-" in the CV columns. One-hot label
weights keep every weighted sum an integer, so those lines cannot see a
change in summation order. The next three lines therefore embed
`gen_labeled(0, 30)` under one affine encoder with non-integer weights:
with cycles:6, with trees:6 (the one line on weighted trees) and with the
custom non-tree patterns K4, the diamond, the bowtie and the banner.

The next line gives column 4 for 20 seeded dense graphs, G(n, 0.9) with
n from 40 to 60, under cycles:14. Every one of their chains of adjacency
powers passes both the 2**53 and the 2**62 bound before A^14, which no
other line reaches.

The next line gives column 4 for one Paulus graph per class (14 strongly
regular graphs on 25 vertices) under the single pattern kbip:3,3, K3,3,
the treewidth-3 pattern that separates them where trees and cycles do not.
It is the one line that runs the decomposition DP at width 3 on dense
graphs, and it takes about 8 seconds of the run.

The next line, `codes`, gives in column 4 the sha256 of the canonical
codes alone: those of cycles:32 and kbip:3,3, of the four custom non-trees
above, of C9 and three disjoint triangles, and of one Paulus graph per
class. Every other line hashes the codes with the values, so a change
that moves codes but no count shows on this line and on the lines whose
catalog holds a moved code.

The line after it, `decomps`, gives in column 4 the sha256 of
`treewidth_exact`'s (width, elimination order) and of
`nice_decomposition`'s bags, children and node kinds for C3 to C8,
kbip:3,3, the four custom non-trees above and the Petersen graph, so a
change that moves an elimination order or a bag shows here even where no
count moves.

The last line, `twins`, gives in column 4 the sha256 of `twin_reduce`'s
adjacency tuples and weight bytes for 200 seeded weighted graphs with
planted twins, twins of twins, isolated vertices and zero weights, and for
the star with 2,000 leaves. Its weights are non-integer, so the line sees
the order in which a class adds its weights as well as which vertices
survive. It reads the same for the one-pass reduction as for the pairwise
loop it replaced.

Lines that moved by design: the exact codes from the
individualization-refinement search (every size, in place of the 8-vertex
search and a colour-refinement signature above it) moved column 4 of
csl/cycles:32 and dense/cycles:14, whose C9 to C32 and C9 to C14 used to
read `g{k}m{k}:wl[0x{k}]`. Every count, C3 to C8, K3,3, every tree and
the four custom non-trees kept their bytes, so no other line moved.

A revision and this checkout give the same embeddings, fold results and
weights exactly when the first six columns match. `scripts/identity_diff.sh
[REV]` runs this script on both (REV defaults to HEAD) and prints the diff
of those columns, nothing when they match:

    scripts/identity_diff.sh HEAD~1    # the parent commit against this checkout

Run from the repository root; it takes about 30 seconds on two cores.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from homcount import embedding, evaluate  # noqa: E402
from homcount.datasets import DatasetBundle, gen_bipartite_er, gen_csl, load_paulus  # noqa: E402
from homcount.graphs import FeaturedGraph, Graph, disjoint_union, twin_reduce  # noqa: E402
from homcount.hom import PhiFunction  # noqa: E402
from homcount.patterns import (  # noqa: E402
    custom_pattern,
    cycle_graph,
    nice_decomposition,
    resolve_family,
    treewidth_exact,
)
from workloads import LABELED_FAMILIES, gen_labeled  # noqa: E402

WORKLOADS = [
    ("csl", gen_csl, "cycles:8"),
    ("csl", gen_csl, "cycles:32"),
    ("bipartite", gen_bipartite_er, "cycles:8"),
    ("bipartite", gen_bipartite_er, "trees:6"),
    ("paulus", load_paulus, "cycles:8"),
    ("paulus", load_paulus, "trees:6"),
    ("paulus", load_paulus, "trees:8"),
]

# real-valued vertex weights: every label weighs a non-integer, one negative
AFFINE = PhiFunction.affine([0.37, -0.61, 1.13, 0.29], bias=0.05)
# Labeled so that the diamond (shared edge 0-1), the bowtie (center 0) and
# the banner (C4 0-1-4-2 with leaf 3) decompose with a join node, whose
# left table fixes the order of the later forget sums. Swapping the join
# arms changes the banner's column in the low bits.
NON_TREES = {
    "K4": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "diamond": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "bowtie": Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    "banner": Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)]),
}


def dense_graphs(seed: int = 0, count: int = 20) -> DatasetBundle:
    """`count` graphs G(n, 0.9), n drawn from 40..60."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(40, 60)
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9]))
    return DatasetBundle("dense", graphs, [0] * count)


def twin_graphs(seed: int = 0, count: int = 200) -> list[FeaturedGraph]:
    """`count` weighted graphs on up to 14 vertices: G(n, 0.4) plus planted
    twins (of any vertex, planted ones included) and isolated vertices,
    each weight 0.0 or drawn from [0, 1), then the star with 2,000 leaves."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)
        nbhds = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    nbhds[u].add(v)
                    nbhds[v].add(u)
        while len(nbhds) < 14 and rng.random() < 0.7:
            new = set(nbhds[rng.randrange(len(nbhds))]) if rng.random() < 0.8 else set()
            for u in new:
                nbhds[u].add(len(nbhds))
            nbhds.append(new)
        g = Graph(len(nbhds), [(u, v) for u in range(len(nbhds)) for v in nbhds[u] if u < v])
        weights = [[rng.choice((0.0, rng.random(), rng.random()))] for _ in nbhds]
        out.append(FeaturedGraph.unchecked(g, weights))
    star = Graph(2001, [(0, v) for v in range(1, 2001)])
    return out + [FeaturedGraph.unchecked(star, [[0.1]] * 2001)]


def fingerprint(report: evaluate.CVReport) -> str:
    record = {
        "fold_accuracies": [a.hex() for a in report.fold_accuracies],
        "epochs_run": report.config["epochs_run"],
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def embedding_digest(bundle, family, phi_set=None) -> str:
    h = hashlib.sha256()
    for density in (False, True):
        m = embedding.embed(bundle, family, phi_set=phi_set, density=density)
        h.update(m.values.tobytes())
        h.update(json.dumps([asdict(c) for c in m.column_meta]).encode())
    return h.hexdigest()


def recording(train, records: list):
    """`train`, the stacked trainer, appending (rows digest, weights digest)
    for each fold it trains to `records`."""

    def train_and_record(x, y, *args, **kwargs):
        trained = train(x, y, *args, **kwargs)
        w, b = trained[:2]
        for j in range(len(x)):
            rows = hashlib.sha256(x[j].tobytes() + y[j].tobytes()).hexdigest()
            records.append((rows, hashlib.sha256(w[j].tobytes() + b[j].tobytes()).hexdigest()))
        return trained

    return train_and_record


def main() -> None:
    train_stack = evaluate._train_stack
    for name, make, family in WORKLOADS:
        bundle = make(seed=0)
        folds, weights, times = [], [], []
        for cpus in (1, 2):
            records: list = []
            evaluate._usable_cpus = lambda: cpus
            evaluate._train_stack = recording(train_stack, records)
            report = evaluate.cross_validate(bundle, family, k=10, seed=0, repeats=10)
            folds.append(fingerprint(report))
            weights.append(hashlib.sha256(json.dumps(sorted(set(records))).encode()).hexdigest())
            times.append({key: round(s, 3) for key, s in report.layer_seconds.items()})
        evaluate._train_stack = train_stack
        line = [f"{name}/{family}", *folds, embedding_digest(bundle, family), *weights]
        print("\t".join(line + [json.dumps(t) for t in times]), flush=True)
    labeled = gen_labeled(0, 100)
    for family in LABELED_FAMILIES:
        line = [f"labeled/{family}", "-", "-", embedding_digest(labeled, family), "-", "-"]
        print("\t".join(line), flush=True)
    small = gen_labeled(0, 30)
    real_families = {
        "cycles:6": "cycles:6",
        "trees:6": "trees:6",
        "+".join(NON_TREES): [custom_pattern(g) for g in NON_TREES.values()],
    }
    for name, family in real_families.items():
        digest = embedding_digest(small, family, phi_set=[AFFINE])
        print("\t".join([f"labeled-affine/{name}", "-", "-", digest, "-", "-"]), flush=True)
    digest = embedding_digest(dense_graphs(), "cycles:14")
    print("\t".join(["dense/cycles:14", "-", "-", digest, "-", "-"]), flush=True)
    paulus14 = load_paulus(copies_per_class=1, seed=0)
    digest = embedding_digest(paulus14, "kbip:3,3")
    print("\t".join(["paulus14/kbip:3,3", "-", "-", digest, "-", "-"]), flush=True)
    catalogs = resolve_family("cycles:32") + resolve_family("kbip:3,3")
    graphs = [*NON_TREES.values(), cycle_graph(9), disjoint_union(*[cycle_graph(3)] * 3),
              *paulus14.graphs]
    codes = [p.canonical_code for p in catalogs + [custom_pattern(g) for g in graphs]]
    digest = hashlib.sha256(json.dumps(codes).encode()).hexdigest()
    print("\t".join(["codes", "-", "-", digest, "-", "-"]), flush=True)
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    kbip = catalogs[-1].graph
    records = []
    for g in [*map(cycle_graph, range(3, 9)), kbip, *NON_TREES.values(), petersen]:
        td = nice_decomposition(custom_pattern(g))
        bags = [sorted(b) for b in td.bags]
        records.append([treewidth_exact(g), bags, td.children, td.node_kind])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    print("\t".join(["decomps", "-", "-", digest, "-", "-"]), flush=True)
    h = hashlib.sha256()
    for fg in twin_graphs():
        reduced = twin_reduce(fg)
        h.update(repr(reduced.graph.adjacency).encode() + reduced.features.tobytes())
    print("\t".join(["twins", "-", "-", h.hexdigest(), "-", "-"]), flush=True)


if __name__ == "__main__":
    main()
