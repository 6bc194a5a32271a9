"""Homomorphism counting by four interchangeable algorithms.

`hom_brute` enumerates every vertex map and serves as the oracle. `hom_tree`
is the linear-time dynamic program for tree patterns, `hom_cycle` counts
closed walks through adjacency-matrix powers, and `hom_treedec` runs the
bounded-treewidth dynamic program over a nice tree decomposition. All four
agree exactly in integer mode.

The kernels count into a plain `Graph` under an optional list of per-vertex
weights, one per vertex, or a ValueError; without one, every vertex weighs
one and the count is exact. Only the column engine behind `hom`,
`hom_vector` and `embed` turns an encoder into weights.

Unweighted counts are exact ints (flagged floats from 2**128), weighted ones
doubles. Only `_as_float` makes a count a double; it raises ValueError past
the float64 range. `embed` flags each column where float64 rounded a count,
and `hom_vector` warns, naming the coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .graphs import FeaturedGraph, Graph, adjacency_stack, rooted_order, union_arcs
from .patterns import (
    Pattern,
    TreeDecomposition,
    _is_cycle,
    _is_tree,
    nice_decomposition,
    validate_decomposition,
)

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
            if not 0 <= self.index < len(row):
                raise ValueError(
                    f"coordinate {self.index} out of range for feature dimension {len(row)}"
                )
            return float(row[self.index])
        if self.kind == "affine":
            if len(self.weights) != len(row):
                raise ValueError("affine weights do not match feature dimension")
            with np.errstate(over="ignore"):  # an overflow is the named error below
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


def _as_float(total: Union[int, float]) -> float:
    """A count as a double, or ValueError past the float64 range."""
    try:
        value = float(total)
    except OverflowError:  # an int that rounds to 2**1024 or more
        value = math.inf
    if math.isfinite(value):  # a weighted sum may have overflowed to inf or NaN
        return value
    raise ValueError("homomorphism count exceeds the float64 range")


def _finish(total: Union[int, float], exact: bool) -> HomValue:
    """A kernel's sum as a HomValue: weighted sums are real, and exact ones
    at or above EXACT_LIMIT are demoted to a flagged float."""
    if exact and total < EXACT_LIMIT:
        return HomValue(total, "exact")
    return HomValue(_as_float(total), "real", promoted=exact)


def _check_weights(weights: Optional[Sequence[float]], g: Graph) -> None:
    """ValueError unless `weights` is None or holds one weight per vertex of `g`."""
    if weights is not None and len(weights) != g.num_vertices:
        raise ValueError(f"{len(weights)} weights for a target of {g.num_vertices} vertices")


def _pattern_graph(f: Union[Pattern, Graph]) -> Graph:
    return f.graph if isinstance(f, Pattern) else f


# ---------------------------------------------------------------------------
# brute force (the oracle)


def hom_brute(
    f: Union[Pattern, Graph], g: Graph, weights: Optional[Sequence[float]] = None
) -> HomValue:
    """Count homomorphisms by enumerating all vertex maps.

    Backtracks over pattern vertices in index order, checking edges into the
    assigned prefix, which enumerates exactly the edge-preserving maps. Each
    map adds the product of its image weights; exact counts use unit weights.
    """
    fg = _pattern_graph(f)
    _check_weights(weights, g)
    nf, ng = fg.num_vertices, g.num_vertices
    if ng**nf > BRUTE_FORCE_GUARD:
        raise ValueError(f"brute force guard exceeded: {ng}^{nf} maps")
    exact = weights is None
    w = [1] * ng if exact else list(weights)
    back_neighbors = [[u for u in fg.adjacency[v] if u < v] for v in range(nf)]
    adj = [set(a) for a in g.adjacency]  # set membership, built once per call
    image = [0] * nf
    total = 0

    def count(v: int, prod) -> None:
        nonlocal total
        if v == nf:
            total += prod
            return
        for gv in range(ng):
            if w[gv] != 0 and all(gv in adj[image[u]] for u in back_neighbors[v]):
                image[v] = gv
                count(v + 1, prod * w[gv])

    count(0, 1)
    return _finish(total, exact)


# ---------------------------------------------------------------------------
# linear-time tree dynamic program


def hom_tree(
    f: Union[Pattern, Graph], g: Graph, weights: Optional[Sequence[float]] = None
) -> HomValue:
    """Tree-pattern homomorphism count in O(|V(F)| * (|V(G)| + |E(G)|)).

    Processes a rooted orientation of the tree bottom-up: each vertex starts
    from the per-target weights and absorbs, for every child, the sums of the
    child's table over target neighborhoods. Implemented iteratively so deep
    path patterns cannot hit the recursion limit.
    """
    fg = _pattern_graph(f)
    if not _is_tree(fg):
        raise ValueError("hom_tree requires a tree pattern")
    _check_weights(weights, g)
    return _finish(_tree_dp(fg, [g], None if weights is None else [weights])[0], weights is None)


def _tree_dp(
    fg: Graph, graphs: Sequence[Graph], weights: Optional[Sequence]
) -> list[Union[int, float]]:
    """`hom_tree`'s dynamic program, for a pattern known to be a tree, into
    every graph at once, under `weights[i]` for graph i or, if `weights` is
    None, unit weights. A table holds one entry per vertex of the graphs'
    disjoint union. A child's neighbourhood sums are one `np.add.at` over
    the union's arcs, which adds in index order, each vertex's neighbours in
    adjacency order, and one more by graph sums the root table. Unweighted
    entries and partial sums count maps of a subtree, so none exceeds
    n·Δ^(|V(F)| - 1), n and Δ the largest order and degree: the tables run
    on the rung of `_widen` that bound proves exact. Weighted tables are
    float64, and `_as_float` names an overflow to inf or NaN."""
    plan = [(v, [c for c in fg.adjacency[v] if c != parent])
            for v, parent in reversed(list(rooted_order(fg, 0)))]
    sizes = np.array([g.num_vertices for g in graphs], dtype=np.intp)
    graph_of = np.repeat(np.arange(len(graphs)), sizes)  # each union vertex's graph
    rows, heads = union_arcs(graphs)
    cols = heads + (np.cumsum(sizes) - sizes)[graph_of[rows]]  # heads in the union
    if weights is None:
        n, delta = int(sizes.max(initial=0)), int(np.bincount(rows).max(initial=0))
        base = _widen(np.ones(len(graph_of)), n * delta ** (len(plan) - 1))
    else:
        base = np.fromiter(chain.from_iterable(weights), np.float64, len(graph_of))
    tables: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for v, children in plan:
            tables[v] = base.copy()
            for c in children:
                s = np.zeros_like(base)
                np.add.at(s, rows, tables.pop(c)[cols])
                tables[v] *= s
        totals = np.zeros(len(graphs), base.dtype)
        np.add.at(totals, graph_of, tables[0])
    return list(map(int, totals.tolist())) if weights is None else totals.tolist()


# ---------------------------------------------------------------------------
# cycles via closed walks


# The largest (G, n, n) float64 stack of adjacency matrices `_walk_traces`
# builds. The chain keeps three stacks live (A, A^j, A^(j+1)), about 384 KB
# at this cap, so the peak memory of a bundle's chain does not grow with the
# bundle. On 150 CSL graphs (n = 41, 9 per stack) with cycles:8, each cap in
# a fresh process on a 2-core Xeon (2 MB L2 per core), it was the fastest
# cap tried: 16, 32, 64, 128, 256, 512 and 2048 KB took 9.1, 7.1, 5.5, 4.4,
# 5.9, 6.1 and 6.7 ms. Below 128 KB glibc serves an array from its heap;
# from 128 KB it maps fresh pages, until a freed large array raises that
# threshold.
_STACK_BYTES = 1 << 17


def _widen(x: np.ndarray, bound: int) -> np.ndarray:
    """`x` on the narrowest rung, no narrower than its own, that holds
    integers up to `bound` exactly: float64 below 2**53, int64 below 2**62,
    Python ints beyond. A float64 array passes through int64 on its way to
    Python ints, so its objects are ints and not floats."""
    if bound >= 1 << 53 and x.dtype == np.float64:
        x = x.astype(np.int64)
    if bound >= 1 << 62 and x.dtype == np.int64:
        x = x.astype(object)
    return x


def _walk_traces(graphs: Sequence[Graph], k: int) -> list[list[int]]:
    """Each graph's closed walks of every length up to k, tr(A^0), ...,
    tr(A^k), as exact Python ints, in the order of `graphs`; k >= 1.

    Graphs of one vertex count run together as a (G, n, n) stack of their
    adjacency matrices, cut so that no stack holds more than `_STACK_BYTES`
    of float64 (a single graph past the cap forms a stack of its own). A is
    symmetric, and so is every power of it, so with <X, Y> the sum of the
    entrywise products, tr(A^(2j)) = <A^j, A^j> and tr(A^(2j+1)) =
    <A^j, A^(j+1)>. The chain stops at A^ceil(k/2): ceil(k/2) - 1 products
    (3 for cycles:8, 15 for cycles:32), with two powers live at a time.

    Every entry of a power is a non-negative integer, and every product and
    inner product runs on the narrowest rung its bound proves exact
    (`_widen`): float64 below 2**53, int64 below 2**62, Python ints beyond.
    - Product P·A: each partial sum of (P·A)_ik, in any order, is at most
      the final entry, which is at most max(P)·Δ, Δ the largest degree in
      the stack.
    - Inner product <X, Y>: each of its n² terms X_ik·Y_ik is at most
      max(X)·max(Y), and each partial sum at most their total, so at most
      n²·max(X)·max(Y).
    Below 2**53 every term and partial sum is therefore an exact double,
    whatever summation order, blocking or FMA the BLAS uses, and below
    2**62 no int64 sum can overflow. The bounds are taken over the whole
    stack, so one graph can move its stack to a wider rung; every rung
    gives the same integers.
    """
    traces: list = [None] * len(graphs)
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_size.setdefault(g.num_vertices, []).append(i)
    for n, members in by_size.items():
        step = max(1, _STACK_BYTES // (8 * n * n)) if n else len(members)
        for s in range(0, len(members), step):
            part = members[s : s + step]
            for i, t in zip(part, _stack_traces([graphs[i] for i in part], n, k)):
                traces[i] = t
    return traces


def _stack_traces(graphs: Sequence[Graph], n: int, k: int) -> list[list[int]]:
    """`_walk_traces` for graphs that all have n vertices, as one stack."""
    m = len(graphs)
    a = adjacency_stack(graphs, n)
    delta = int(a.sum(axis=2).max(initial=0))  # the stack's largest degree

    def inner(x, y, bound):  # <x_g, y_g> for every g, as one batched (1, n²)·(n², 1) product
        x, y = _widen(x, bound), _widen(y, bound)
        return np.matmul(x.reshape(m, 1, n * n), y.reshape(m, n * n, 1)).reshape(m).tolist()

    columns = [[n] * m, [0] * m]  # tr(A^0) = n, tr(A) = 0: no self-loops
    p, top = a, 1  # A^j and its largest entry (every entry of A^1 is 0 or 1)
    while len(columns) <= k:  # the next length is 2j
        columns.append(inner(p, p, n * n * top * top))
        if len(columns) > k:
            break
        bound = top * delta
        p, a = _widen(p, bound), _widen(a, bound)
        q = p @ a
        q_top = int(q.max(initial=0))
        columns.append(inner(p, q, n * n * top * q_top))  # length 2j + 1
        p, top = q, q_top
    return [list(map(int, walks)) for walks in zip(*columns)]


def hom_cycle(k: int, g: Graph) -> HomValue:
    """Cycle-pattern count as the trace of the k-th adjacency power.

    k = 2 is the edge-pattern surrogate: tr(A^2) = 2|E|.
    """
    if k < 2:
        raise ValueError("cycle length must be at least 2")
    return _finish(_walk_traces([g], k)[0][k], True)


# ---------------------------------------------------------------------------
# bounded-treewidth dynamic program


def hom_treedec(
    f: Union[Pattern, Graph],
    td: TreeDecomposition,
    g: Graph,
    weights: Optional[Sequence[float]] = None,
) -> HomValue:
    """Homomorphism count via bottom-up tables over a nice decomposition.

    Tables map bag assignments to partial sums. The decomposition numbers
    its nodes bottom-up, so one pass in node order finds every child's table
    ready, and the last node, the root, holds the count. Introduce nodes
    extend each assignment by the new vertex v, forget nodes sum a vertex
    out, join nodes multiply matching assignments. When v has a neighbour u
    in the bag, its candidates are the target neighbours of u's image, and
    only v's other bag edges are checked, so an introduce node costs about
    |table|·Δ (Δ the maximum degree of G) instead of |table|·|V(G)|; a v
    with no bag neighbour, the first vertex of a component, ranges over all
    of V(G). Neighbour tuples are sorted, so candidates ascend as a scan of
    V(G) would: every table is built in the same order, every forget and
    join adds the same terms in the same order, and weighted counts keep
    every bit of the full scan's. Vertex weights are applied at the
    forget step, the single point where each pattern vertex leaves scope, so
    no assignment is weighted twice and no division is needed at joins.
    """
    fg = _pattern_graph(f)
    validate_decomposition(td, fg)
    _check_weights(weights, g)
    column = _treedec_dp(fg, td, [g], None if weights is None else [weights])
    return _finish(column[0], weights is None)


def _treedec_dp(
    fg: Graph, td: TreeDecomposition, graphs: Sequence[Graph], weights: Optional[Sequence]
) -> list[Union[int, float]]:
    """`hom_treedec`'s dynamic program, for a decomposition known to be
    valid for `fg`, as every one `nice_decomposition` returns is, into each
    graph in turn as `_tree_dp` does. Each node's kind, children, bag
    position and checked-neighbour positions are found once."""
    bag_order = [tuple(sorted(bag)) for bag in td.bags]
    plan = []
    for t, kind in enumerate(td.node_kind):
        kids, pos, check = td.children[t], None, []
        if kind == "introduce":
            (v,) = td.bags[t] - td.bags[kids[0]]
            pos = bag_order[t].index(v)
            check = [bag_order[kids[0]].index(u) for u in fg.adjacency[v] if u in td.bags[kids[0]]]
        elif kind == "forget":
            (v,) = td.bags[kids[0]] - td.bags[t]
            pos = bag_order[kids[0]].index(v)
        # Candidates ascend either way, which keeps every bit (see hom_treedec).
        plan.append((kind, kids, pos, check[0] if check else None, check[1:]))
    exact = weights is None
    column = []
    for i, g in enumerate(graphs):
        ng = g.num_vertices
        w = [1] * ng if exact else list(weights[i])
        amat = [set(a) for a in g.adjacency]  # set membership, built once per graph
        tables: dict[int, dict[tuple[int, ...], object]] = {}
        for t, (kind, kids, pos, first, rest) in enumerate(plan):
            new: dict[tuple[int, ...], object] = {}
            if kind == "leaf":
                new[()] = 1 if exact else 1.0
            elif kind == "join":
                left, right = tables.pop(kids[0]), tables.pop(kids[1])
                if len(left) > len(right):
                    left, right = right, left
                new = {a: lv * right[a] for a, lv in left.items() if a in right}
            elif kind == "introduce":
                for a, val in tables.pop(kids[0]).items():
                    for gv in range(ng) if first is None else g.adjacency[a[first]]:
                        for ci in rest:
                            if a[ci] not in amat[gv]:
                                break
                        else:
                            new[a[:pos] + (gv,) + a[pos:]] = val
            else:  # forget
                for a, val in tables.pop(kids[0]).items():
                    gv = a[pos]
                    key = a[:pos] + a[pos + 1 :]
                    if key in new:
                        new[key] += val * w[gv]
                    else:
                        new[key] = val * w[gv]
            tables[t] = new
        column.append(tables[len(td.bags) - 1].get((), 0 if exact else 0.0))
    return column


# ---------------------------------------------------------------------------
# dispatch, densities, vectors


def _count_columns(
    patterns: Sequence[Union[Pattern, Graph]],
    graphs: Sequence[Graph],
    features: Optional[Sequence[np.ndarray]],
    phis: Sequence[Optional[PhiFunction]],
) -> Iterator[tuple[int, list[Union[int, float]]]]:
    """hom(F, G) for each pattern F, each graph G (with its (n, p) block of
    `features` unless that is None) and each encoder q (None is the constant
    one), as (j, column) with j = pi * len(phis) + q for pattern pi: one count
    per graph, Python ints unweighted and floats weighted. The one dispatcher
    behind `hom`, `hom_vector` and `embed`, and the only place an encoder
    becomes vertex weights, once per graph. Each pattern is classified once,
    cycles by their graph, not their family name. Unweighted, cycles read one
    chain of powers shared by all graphs (`_walk_traces`), and K2 reads
    2|E|. Otherwise trees go to `_tree_dp` and all else to `_treedec_dp`,
    one call per column over every graph; neither re-checks its pattern.
    Encoders run in turn: one encoder's weights and one column at a time."""
    catalog = []
    for f in patterns:
        fg = _pattern_graph(f)
        kind = "cycle" if _is_cycle(fg) else "tree" if _is_tree(fg) else "treedec"
        pattern = f if isinstance(f, Pattern) else Pattern(fg, "custom", fg.num_vertices, "")
        catalog.append((fg, kind, pattern))
    longest = max((fg.num_vertices for fg, kind, _ in catalog if kind == "cycle"), default=0)
    for q, phi in enumerate(phis):
        exact = phi is None or phi.kind == "constant_one"  # every vertex weighs one
        traces = _walk_traces(graphs, longest) if exact and longest else []
        weights = None
        if not exact:  # a bare graph has no feature columns
            blocks = features or [np.zeros((g.num_vertices, 0)) for g in graphs]
            weights = [[phi(r) for r in x] for x in blocks]
        for pi, (fg, kind, pattern) in enumerate(catalog):
            if exact and kind == "cycle":
                column = [t[fg.num_vertices] for t in traces]
            elif exact and kind == "tree" and fg.num_vertices == 2:
                column = [2 * g.num_edges for g in graphs]
            elif kind == "tree":
                column = _tree_dp(fg, graphs, weights)
            else:
                column = _treedec_dp(fg, nice_decomposition(pattern), graphs, weights)
            yield pi * len(phis) + q, column


def hom(
    f: Union[Pattern, Graph],
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
) -> HomValue:
    """Compute hom(F, G) by the cheapest applicable algorithm; F may be a bare graph."""
    graph, x = (g.graph, [g.features]) if isinstance(g, FeaturedGraph) else (g, None)
    ((_, (total,)),) = _count_columns([f], [graph], x, [phi])
    return _finish(total, isinstance(total, int))  # unweighted counts are ints


def _to_density(count: float, f: Graph, g: Graph) -> float:
    """count / |V(G)| ** |V(F)| for pattern graph F and target graph G."""
    if g.num_vertices < 1:
        raise ValueError("density needs a non-empty target graph")
    size = g.num_vertices**f.num_vertices
    try:
        return count / float(size)
    except OverflowError:  # size is past the double range, the quotient need not be
        from fractions import Fraction  # loads decimal too, so only on this path

        return float(Fraction(count) / size)


def hom_density(f: Union[Pattern, Graph], g: Graph) -> float:
    """hom(F, G) / |V(G)| ** |V(F)|, the edge-preservation probability."""
    return _to_density(float(hom(f, g)), _pattern_graph(f), g)


def hom_weighted_density(f: Union[Pattern, Graph], fg: FeaturedGraph) -> float:
    """Weighted density: weights normalized to sum one before counting."""
    if fg.feature_dim != 1:
        raise ValueError("weighted density requires scalar weights")
    total = float(fg.features[:, 0].sum())
    if total <= 0:
        raise ValueError("weighted density requires positive total weight")
    normalized = fg.features[:, 0] / total
    weighted = FeaturedGraph.unchecked(fg.graph, normalized[:, None])
    return float(hom(f, weighted, phi=PhiFunction.coordinate(0)))


def hom_vector(
    patterns: Sequence[Union[Pattern, Graph]],
    g: Union[Graph, FeaturedGraph],
    phi: Optional[PhiFunction] = None,
    density: bool = False,
) -> np.ndarray:
    """One coordinate per pattern, in catalog order. An exact count that
    float64 cannot hold (some above 2**53) rounds to the nearest double, with
    a RuntimeWarning that names the rounded coordinates; `embed` flags such
    columns in `ColumnMeta.promoted` instead."""
    graph, x = (g.graph, [g.features]) if isinstance(g, FeaturedGraph) else (g, None)
    totals = [total for _, (total,) in _count_columns(patterns, [graph], x, [phi])]
    row = [_as_float(total) for total in totals]
    rounded = [i for i, (cell, total) in enumerate(zip(row, totals)) if cell != total]
    if rounded:
        warnings.warn(f"float64 rounded the exact counts of coordinates {rounded}",
                      RuntimeWarning, stacklevel=2)
    if density:
        row = [_to_density(v, _pattern_graph(f), graph) for v, f in zip(row, patterns)]
    return np.array(row, dtype=np.float64)
