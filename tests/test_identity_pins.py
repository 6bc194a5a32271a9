"""The `codes`, `decomps` and `twins` lines of `scripts/cv_identity.py` as
Tier-1 pins: each test builds that line's inputs the way the script does and
asserts the sha256 it prints. None of the three runs BLAS, so no machine can
move them; a change that moves one moved a canonical code, an elimination
order, a bag or a twin reduction."""

import hashlib
import json
import random

from homcount.datasets import load_paulus
from homcount.graphs import FeaturedGraph, Graph, disjoint_union, twin_reduce
from homcount.patterns import (
    custom_pattern,
    cycle_graph,
    nice_decomposition,
    resolve_family,
    treewidth_exact,
)

# the script's four custom non-trees, labeled as it labels them
NON_TREES = [
    Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # K4
    Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),  # diamond
    Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),  # bowtie
    Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)]),  # banner
]
PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def twin_graphs(seed: int = 0, count: int = 200) -> list[FeaturedGraph]:
    """The script's `twin_graphs`: G(n, 0.4) plus planted twins and isolated
    vertices, each weight 0.0 or drawn from [0, 1), then the 2,000-leaf star."""
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


def test_codes_line():
    catalogs = resolve_family("cycles:32") + resolve_family("kbip:3,3")
    graphs = [*NON_TREES, cycle_graph(9), disjoint_union(*[cycle_graph(3)] * 3),
              *load_paulus(copies_per_class=1, seed=0).graphs]
    codes = [p.canonical_code for p in catalogs + [custom_pattern(g) for g in graphs]]
    digest = "3319f3083ccfa51b10871e1b42276c518dab7841137f3023ed36c28b12cff5b8"
    assert hashlib.sha256(json.dumps(codes).encode()).hexdigest() == digest


def test_decomps_line():
    kbip = resolve_family("kbip:3,3")[0].graph
    records = []
    for g in [*map(cycle_graph, range(3, 9)), kbip, *NON_TREES, PETERSEN]:
        td = nice_decomposition(custom_pattern(g))
        records.append([treewidth_exact(g), [sorted(b) for b in td.bags], td.children,
                        td.node_kind])
    digest = "1f33e0e836540beceaa1fd8dfe83fb6a4185094eb45d61846a160a02f2bab74b"
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


def test_twins_line():
    h = hashlib.sha256()
    for fg in twin_graphs():
        reduced = twin_reduce(fg)
        h.update(repr(reduced.graph.adjacency).encode() + reduced.features.tobytes())
    assert h.hexdigest() == "bfd3e951a391477e140b93afa89629bcb5689a8f7dd041a648a7cbe0b46cc275"
