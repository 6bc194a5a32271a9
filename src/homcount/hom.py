"""Homomorphism counting by four interchangeable algorithms.

`hom_brute` enumerates every vertex map and serves as the oracle. `hom_tree`
is the linear-time dynamic program for tree patterns, `hom_cycle` counts
closed walks through adjacency-matrix powers, and `hom_treedec` runs the
bounded-treewidth dynamic program over a nice tree decomposition. All four
agree exactly in integer mode.

Unweighted counts are exact integers; values at or above 2**128 are demoted
to floats and flagged. Weighted values are double precision throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .graphs import FeaturedGraph, Graph
from .patterns import Pattern, TreeDecomposition, nice_decomposition, validate_decomposition

BRUTE_FORCE_GUARD = 10**8
EXACT_LIMIT = 1 << 128


@dataclass(frozen=True)
class PhiFunction:
    """Vertex-feature encoder: constant one, a coordinate, or an affine map."""

    kind: str  # constant_one | coordinate | affine
    index: int = 0
    weights: tuple[float, ...] = ()
    bias: float = 0.0

    @classmethod
    def constant_one(cls) -> "PhiFunction":
        return cls("constant_one")

    @classmethod
    def coordinate(cls, i: int) -> "PhiFunction":
        return cls("coordinate", index=i)

    @classmethod
    def affine(cls, weights: Sequence[float], bias: float = 0.0) -> "PhiFunction":
        return cls("affine", weights=tuple(float(w) for w in weights), bias=float(bias))

    def __call__(self, row: np.ndarray) -> float:
        if self.kind == "constant_one":
            return 1.0
        if self.kind == "coordinate":
            if self.index >= len(row):
                raise ValueError(
                    f"coordinate {self.index} out of range for feature dimension {len(row)}"
                )
            return float(row[self.index])
        if self.kind == "affine":
            if len(self.weights) != len(row):
                raise ValueError("affine weights do not match feature dimension")
            value = float(np.dot(self.weights, row)) + self.bias
            if not math.isfinite(value):
                raise ValueError("affine encoder produced a non-finite value")
            return value
        raise ValueError(f"unknown encoder kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "constant_one":
            return "1"
        if self.kind == "coordinate":
            return f"x[{self.index}]"
        return f"affine({list(self.weights)},{self.bias})"


@dataclass(frozen=True)
class HomValue:
    """A homomorphism count: exact integer or double-precision real."""

    value: Union[int, float]
    mode: str  # exact | real
    promoted: bool = False

    def __float__(self) -> float:
        return float(self.value)


def _finish_exact(total: int) -> HomValue:
    if total >= EXACT_LIMIT:
        return HomValue(float(total), "real", promoted=True)
    return HomValue(total, "exact")


def _pattern_graph(f: Union[Pattern, Graph]) -> Graph:
    return f.graph if isinstance(f, Pattern) else f


def _resolve_weights(
    g: Graph, x: Optional[np.ndarray], phi: Optional[PhiFunction]
) -> Optional[list[float]]:
    """Per-target-vertex weights, or None when counting is exact (all ones)."""
    if phi is None or phi.kind == "constant_one":
        return None
    rows = x if x is not None else np.zeros((g.num_vertices, 0))
    return [phi(rows[v]) for v in range(g.num_vertices)]


def _as_features(target: Union[Graph, FeaturedGraph]) -> tuple[Graph, Optional[np.ndarray]]:
    if isinstance(target, FeaturedGraph):
        return target.graph, target.features
    return target, None


# ---------------------------------------------------------------------------
# brute force (the oracle)


def hom_brute(
    f: Union[Pattern, Graph],
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
    weights: Optional[Sequence[float]] = None,
) -> HomValue:
    """Count homomorphisms by enumerating all vertex maps.

    Backtracks over pattern vertices in index order, checking edges into the
    assigned prefix, which enumerates exactly the edge-preserving maps.
    """
    fg = _pattern_graph(f)
    g, x = _as_features(g)
    if weights is None:
        weights = _resolve_weights(g, x, phi)
    nf, ng = fg.num_vertices, g.num_vertices
    if nf > 0 and ng == 0:
        return HomValue(0, "exact") if weights is None else HomValue(0.0, "real")
    if ng**nf > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force guard exceeded: {ng}^{nf} maps")
    back_neighbors = [[u for u in fg.adjacency[v] if u < v] for v in range(nf)]
    adj = g.neighbor_sets
    image = [0] * nf
    if weights is None:
        total = 0

        def count(v: int) -> None:
            nonlocal total
            if v == nf:
                total += 1
                return
            for gv in range(ng):
                if all(gv in adj[image[u]] for u in back_neighbors[v]):
                    image[v] = gv
                    count(v + 1)

        count(0)
        return _finish_exact(total)

    w = list(weights)
    acc = 0.0

    def count_w(v: int, prod: float) -> None:
        nonlocal acc
        if v == nf:
            acc += prod
            return
        for gv in range(ng):
            if w[gv] != 0.0 and all(gv in adj[image[u]] for u in back_neighbors[v]):
                image[v] = gv
                count_w(v + 1, prod * w[gv])

    count_w(0, 1.0)
    return HomValue(acc, "real")


# ---------------------------------------------------------------------------
# linear-time tree dynamic program


def _rooted_tree_order(fg: Graph, root: int = 0) -> list[tuple[int, int]]:
    """(vertex, parent) pairs in a bottom-up processing order."""
    order = [(root, -1)]
    seen = {root}
    i = 0
    while i < len(order):
        v, _ = order[i]
        i += 1
        for c in fg.adjacency[v]:
            if c not in seen:
                seen.add(c)
                order.append((c, v))
    if len(order) != fg.num_vertices:
        raise ValueError("tree pattern must be connected")
    return order


def _is_tree_graph(fg: Graph) -> bool:
    if fg.num_vertices == 0 or fg.num_edges != fg.num_vertices - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in fg.adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == fg.num_vertices


def hom_tree(
    f: Union[Pattern, Graph],
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
    weights: Optional[Sequence[float]] = None,
) -> HomValue:
    """Tree-pattern homomorphism count in O(|V(F)| * (|V(G)| + |E(G)|)).

    Processes a rooted orientation of the tree bottom-up: each vertex starts
    from the per-target weights and absorbs, for every child, the sums of the
    child's table over target neighborhoods. Implemented iteratively so deep
    path patterns cannot hit the recursion limit.
    """
    fg = _pattern_graph(f)
    if not _is_tree_graph(fg):
        raise ValueError("hom_tree requires a tree pattern")
    g, x = _as_features(g)
    if weights is None:
        weights = _resolve_weights(g, x, phi)
    ng = g.num_vertices
    if ng == 0:
        return HomValue(0, "exact") if weights is None else HomValue(0.0, "real")
    exact = weights is None
    base = [1] * ng if exact else list(weights)
    order = _rooted_tree_order(fg)
    table: dict[int, list] = {}
    for v, parent in reversed(order):
        vec = list(base)
        for c in fg.adjacency[v]:
            if c == parent:
                continue
            child = table.pop(c)
            for gv in range(ng):
                s = 0 if exact else 0.0
                for h in g.adjacency[gv]:
                    s += child[h]
                vec[gv] *= s
        table[v] = vec
    total = sum(table[order[0][0]])
    return _finish_exact(total) if exact else HomValue(float(total), "real")


# ---------------------------------------------------------------------------
# cycles via closed walks


def _trace_power(g: Graph, k: int) -> int:
    """Exact trace of the k-th adjacency power (closed walks of length k)."""
    a = g.adjacency_matrix()
    if g.num_vertices == 0:
        return 0
    max_degree = max(1, int(a.sum(axis=1).max()))
    p = a
    obj = None
    for _ in range(k - 1):
        if obj is None:
            if int(p.max()) * max_degree < (1 << 62):
                p = p @ a
            else:
                obj = p.astype(object) @ a.astype(object)
        else:
            obj = obj @ a.astype(object)
    final = obj if obj is not None else p
    # Each diagonal entry fits int64 but their sum need not: add as Python ints.
    return sum(map(int, final.diagonal()))


def hom_cycle(k: int, g: Graph) -> HomValue:
    """Cycle-pattern count as the trace of the k-th adjacency power.

    k = 2 is the edge-pattern surrogate: tr(A^2) = 2|E|.
    """
    if k < 2:
        raise ValueError("cycle length must be at least 2")
    return _finish_exact(_trace_power(g, k))


# ---------------------------------------------------------------------------
# bounded-treewidth dynamic program


def hom_treedec(
    f: Union[Pattern, Graph],
    td: TreeDecomposition,
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
    weights: Optional[Sequence[float]] = None,
) -> HomValue:
    """Homomorphism count via bottom-up tables over a nice decomposition.

    Tables map bag assignments to partial sums. Introduce nodes check pattern
    edges inside the bag, forget nodes sum a vertex out, join nodes multiply
    matching assignments. Vertex weights are applied at the forget step, the
    single point where each pattern vertex leaves scope, so no assignment is
    weighted twice and no division is needed at joins.
    """
    fg = _pattern_graph(f)
    validate_decomposition(td, fg)
    g, x = _as_features(g)
    if weights is None:
        weights = _resolve_weights(g, x, phi)
    ng = g.num_vertices
    exact = weights is None
    if ng == 0:
        if fg.num_vertices == 0:
            return HomValue(1, "exact") if exact else HomValue(1.0, "real")
        return HomValue(0, "exact") if exact else HomValue(0.0, "real")
    w = None if exact else list(weights)
    one = 1 if exact else 1.0

    kids = td.children()
    topo = [td.root]
    i = 0
    while i < len(topo):
        t = topo[i]
        i += 1
        topo.extend(kids[t])

    tables: dict[int, dict[tuple[int, ...], object]] = {}
    bag_order: dict[int, tuple[int, ...]] = {t: tuple(sorted(td.bags[t])) for t in range(len(td.bags))}
    amat = g.neighbor_sets

    for t in reversed(topo):
        kind = td.node_kind[t]
        if kind == "leaf":
            tables[t] = {(): one}
            continue
        if kind == "join":
            left = tables.pop(kids[t][0])
            right = tables.pop(kids[t][1])
            if len(left) > len(right):
                left, right = right, left
            tables[t] = {
                a: lv * right[a] for a, lv in left.items() if a in right
            }
            continue
        child = kids[t][0]
        ctab = tables.pop(child)
        cbag = bag_order[child]
        nbag = bag_order[t]
        if kind == "introduce":
            (v,) = set(nbag) - set(cbag)
            pos = nbag.index(v)
            check = [
                cbag.index(u) for u in fg.adjacency[v] if u in td.bags[child]
            ]
            new: dict[tuple[int, ...], object] = {}
            for a, val in ctab.items():
                for gv in range(ng):
                    ok = True
                    for ci in check:
                        if a[ci] not in amat[gv]:
                            ok = False
                            break
                    if ok:
                        new[a[:pos] + (gv,) + a[pos:]] = val
            tables[t] = new
        else:  # forget
            (v,) = set(cbag) - set(nbag)
            pos = cbag.index(v)
            new = {}
            for a, val in ctab.items():
                gv = a[pos]
                key = a[:pos] + a[pos + 1 :]
                add = val if exact else val * w[gv]
                if key in new:
                    new[key] += add
                else:
                    new[key] = add
            tables[t] = new

    total = tables[td.root].get((), 0 if exact else 0.0)
    return _finish_exact(total) if exact else HomValue(float(total), "real")


# ---------------------------------------------------------------------------
# dispatch, densities, vectors


def hom(
    f: Pattern,
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
) -> HomValue:
    """Compute hom(F, G) by the cheapest applicable algorithm."""
    fg = _pattern_graph(f)
    graph, x = _as_features(g)
    weights = _resolve_weights(graph, x, phi)
    if _is_tree_graph(fg):
        return hom_tree(fg, graph, weights=weights)
    if isinstance(f, Pattern) and f.family == "cycle" and weights is None:
        return hom_cycle(f.size, graph)
    pattern = f if isinstance(f, Pattern) else Pattern(fg, "custom", fg.num_vertices, "")
    td = nice_decomposition(pattern)
    return hom_treedec(fg, td, graph, weights=weights)


def hom_density(f: Union[Pattern, Graph], g: Graph) -> float:
    """hom(F, G) / |V(G)| ** |V(F)|, the edge-preservation probability."""
    fg = _pattern_graph(f)
    if g.num_vertices < 1:
        raise ValueError("density needs a non-empty target graph")
    f_in = f if isinstance(f, Pattern) else Pattern(fg, "custom", fg.num_vertices, "")
    return float(hom(f_in, g)) / float(g.num_vertices**fg.num_vertices)


def hom_weighted_density(f: Union[Pattern, Graph], fg: FeaturedGraph) -> float:
    """Weighted density: weights normalized to sum one before counting."""
    if fg.feature_dim != 1:
        raise ValueError("weighted density requires scalar weights")
    total = float(fg.features[:, 0].sum())
    if total <= 0:
        raise ValueError("weighted density requires positive total weight")
    normalized = fg.features[:, 0] / total
    graph = _pattern_graph(f)
    f_in = f if isinstance(f, Pattern) else Pattern(graph, "custom", graph.num_vertices, "")
    if _is_tree_graph(graph):
        return float(hom_tree(graph, fg.graph, weights=list(normalized)))
    td = nice_decomposition(f_in)
    return float(hom_treedec(graph, td, fg.graph, weights=list(normalized)))


def hom_vector(
    patterns: Sequence[Pattern],
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
    density: bool = False,
) -> np.ndarray:
    """One coordinate per pattern, in catalog order."""
    graph, _ = _as_features(g)
    out = np.empty(len(patterns), dtype=np.float64)
    for i, p in enumerate(patterns):
        value = float(hom(p, g, phi=phi))
        if density:
            value /= float(graph.num_vertices ** p.graph.num_vertices)
        out[i] = value
    return out
