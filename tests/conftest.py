"""Shared helpers: independent oracles and seeded random graph builders."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from homcount.evaluate import Hyper
from homcount.graphs import FeaturedGraph, Graph

FIXTURES = Path(__file__).parent / "fixtures"


def naive_hom(f: Graph, g: Graph, weights=None):
    """Definition-level oracle: enumerate every map V(F) -> V(G).

    Independent of the library's counting code paths (no pruning, no DP);
    only suitable for tiny inputs.
    """
    nf, ng = f.num_vertices, g.num_vertices
    edges = list(f.edges())
    total = 0 if weights is None else 0.0
    for image in itertools.product(range(ng), repeat=nf):
        if all(g.has_edge(image[u], image[v]) for u, v in edges):
            if weights is None:
                total += 1
            else:
                prod = 1.0
                for u in range(nf):
                    prod *= weights[image[u]]
                total += prod
    return total


def reference_train(x, y, num_classes, hyper=Hyper()):
    """Oracle trainer: one fold, one plain 2-D gradient-descent loop.

    The library trains folds as a stacked program. Its results equal this
    loop's bit for bit at the shapes the tests use (up to 13 features):
    from about 30 features on, BLAS rounds the library's scores W^T X^T and
    this loop's X W differently in the low bits. Returns (weights, bias,
    epochs run).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = x.shape
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    for epoch in range(hyper.epochs):
        z = x @ w + b
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        err = (p - onehot) / n
        gw = x.T @ err + hyper.l2 * w
        gb = err.sum(axis=0)
        norm = np.sqrt((gw * gw).sum() + (gb * gb).sum())
        if norm < 1e-15:
            return w, b, epoch
        scale = hyper.lr / norm
        w -= scale * gw
        b -= scale * gb
    return w, b, hyper.epochs


def reference_treedec(fg: Graph, td, g: Graph, weights=None):
    """Oracle decomposition DP: every introduce node scans all of V(G).

    The library's DP takes an introduced vertex's candidates from the
    target neighbours of a bag neighbour's image. Candidates ascend either
    way, so its tables, and every weighted sum, equal this scan's bit for
    bit. Returns the raw total: an int unweighted, a float weighted.
    """
    ng = g.num_vertices
    exact = weights is None
    w = [1] * ng if exact else list(weights)
    one = 1 if exact else 1.0
    kids = td.children
    tables = {}
    bag_order = [tuple(sorted(bag)) for bag in td.bags]
    amat = [set(a) for a in g.adjacency]
    for t, kind in enumerate(td.node_kind):
        if kind == "leaf":
            tables[t] = {(): one}
            continue
        if kind == "join":
            left = tables.pop(kids[t][0])
            right = tables.pop(kids[t][1])
            if len(left) > len(right):
                left, right = right, left
            tables[t] = {a: lv * right[a] for a, lv in left.items() if a in right}
            continue
        child = kids[t][0]
        ctab = tables.pop(child)
        cbag = bag_order[child]
        nbag = bag_order[t]
        new = {}
        if kind == "introduce":
            (v,) = set(nbag) - set(cbag)
            pos = nbag.index(v)
            check = [cbag.index(u) for u in fg.adjacency[v] if u in td.bags[child]]
            for a, val in ctab.items():
                for gv in range(ng):
                    if all(a[ci] in amat[gv] for ci in check):
                        new[a[:pos] + (gv,) + a[pos:]] = val
        else:  # forget
            (v,) = set(cbag) - set(nbag)
            pos = cbag.index(v)
            for a, val in ctab.items():
                gv = a[pos]
                key = a[:pos] + a[pos + 1 :]
                if key in new:
                    new[key] += val * w[gv]
                else:
                    new[key] = val * w[gv]
        tables[t] = new
    return tables[len(td.bags) - 1].get((), 0 if exact else 0.0)


def reference_twin_reduce(fg: FeaturedGraph) -> FeaturedGraph:
    """Oracle twin reduction: drop every zero-weight vertex, else contract
    the lexicographically smallest twin pair, and rebuild the graph after
    each step until neither applies. The library reduces in one pass over
    neighbourhood classes; its graph and weight bytes equal this loop's."""
    g = fg.graph
    weights = fg.features[:, 0].copy()

    def drop(g, weights, gone):
        keep = [v for v in range(g.num_vertices) if v not in gone]
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [(relabel[u], relabel[v]) for u, v in g.edges() if u not in gone and v not in gone]
        return Graph(len(keep), edges), weights[keep]

    while True:
        zeros = {v for v in range(g.num_vertices) if weights[v] == 0.0}
        if zeros:
            g, weights = drop(g, weights, zeros)
            continue
        first: dict[tuple[int, ...], int] = {}
        pair = None
        for v in range(g.num_vertices):
            s = g.adjacency[v]
            if s in first:
                if pair is None or (first[s], v) < pair:
                    pair = (first[s], v)
            else:
                first[s] = v
        if pair is None:
            break
        u, v = pair
        weights = weights.copy()
        weights[u] += weights[v]
        g, weights = drop(g, weights, {v})
    return FeaturedGraph.unchecked(g, weights.reshape(-1, 1))


def random_simple_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = random_simple_graph(rng, n, p)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return g


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return False
    n = a.num_vertices
    edges_a = set(a.edges())
    for perm in itertools.permutations(range(n)):
        if all(
            b.has_edge(perm[u], perm[v]) for u, v in edges_a
        ):
            # edge counts match, so edge-preserving bijection = isomorphism
            return True
    return False


def graphs_up_to_iso(max_n: int) -> list[Graph]:
    """One representative per isomorphism class, 1..max_n vertices."""
    reps: list[Graph] = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            if not any(
                r.num_vertices == n and brute_isomorphic(g, r) for r in reps
            ):
                reps.append(g)
    return reps


@pytest.fixture(scope="session")
def small_graph_atlas() -> list[Graph]:
    atlas = graphs_up_to_iso(4)
    assert len(atlas) == 1 + 2 + 4 + 11
    return atlas
