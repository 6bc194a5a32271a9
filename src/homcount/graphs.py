"""Simple undirected graphs, vertex-featured graphs, and structural utilities.

Vertices are integers 0..n-1. Graphs are immutable after construction;
every transform returns a new value, so instances are safe to share
across threads.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class Graph:
    """Immutable simple undirected graph (no self-loops, no parallel edges).

    `adjacency[v]` is v's neighbours as a sorted tuple, the one neighbour
    representation a graph holds. Loops that test many edges build their
    own sets once per call.
    """

    __slots__ = ("num_vertices", "adjacency", "num_edges")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        sets: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices) or not (0 <= v < num_vertices):
                raise IndexError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}: graph is not simple")
            sets[u].add(v)
            sets[v].add(u)
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(s)) for s in sets))
        object.__setattr__(self, "num_edges", sum(len(s) for s in sets) // 2)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.num_vertices):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def adjacency_matrix(self) -> np.ndarray:
        return adjacency_stack([self], self.num_vertices)[0].astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def adjacency_stack(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """The float64 adjacency matrices of graphs on n vertices each, stacked
    as one (len(graphs), n, n) array."""
    nbrs = [nb for g in graphs for nb in g.adjacency]  # one row of the stack each
    degrees = list(map(len, nbrs))
    a = np.zeros((len(nbrs), n))
    u = np.repeat(np.arange(len(nbrs)), degrees)  # each row, deg times
    v = np.fromiter(chain.from_iterable(nbrs), np.intp, sum(degrees))  # its neighbours in turn
    a[u, v] = 1.0  # every arc, both directions
    return a.reshape(len(graphs), n, n)


def check_feature_range(features: np.ndarray) -> None:
    """Raise unless every feature entry is finite and lies in [0, 1]."""
    if not ((features >= 0.0) & (features <= 1.0)).all():  # NaN fails both
        raise ValueError("feature entries must lie in [0, 1]")


class FeaturedGraph:
    """A graph together with a per-vertex feature matrix of shape (n, p).

    Feature entries must be finite and lie in [0, 1] at construction
    (`check_feature_range`), in a read-only copy; internal transforms (twin
    reduction adds weights) bypass the check via `unchecked`, a read-only view.
    """

    __slots__ = ("graph", "features")

    def __init__(self, graph: Graph, features):
        feats = FeaturedGraph.unchecked(graph, np.array(features, dtype=np.float64)).features
        check_feature_range(feats)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "features", feats)

    @classmethod
    def unchecked(cls, graph: Graph, features) -> "FeaturedGraph":
        """Construct without the [0, 1] range check (shape is still validated)."""
        fg = cls.__new__(cls)
        feats = np.asarray(features, dtype=np.float64).view()
        if feats.ndim != 2 or feats.shape[0] != graph.num_vertices:
            raise ValueError(
                f"features must be 2-d with rows = num_vertices ({graph.num_vertices}), "
                f"got shape {feats.shape}"
            )
        feats.setflags(write=False)
        object.__setattr__(fg, "graph", graph)
        object.__setattr__(fg, "features", feats)
        return fg

    def __setattr__(self, name, value):
        raise AttributeError("FeaturedGraph is immutable")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeaturedGraph):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.features, other.features)

    def __repr__(self) -> str:
        return f"FeaturedGraph(n={self.graph.num_vertices}, p={self.feature_dim})"


def permute(g: Graph, sigma: Sequence[int]) -> Graph:
    """Relabel vertices: edge (u, v) becomes (sigma[u], sigma[v]). Raises
    unless sigma is a bijection on 0..n-1."""
    n = g.num_vertices
    if len(sigma) != n:
        raise ValueError(f"permutation length {len(sigma)} does not match {n} vertices")
    if sorted(sigma) != list(range(n)):
        raise ValueError("mapping is not a permutation of 0..n-1")
    return Graph(g.num_vertices, ((sigma[u], sigma[v]) for u, v in g.edges()))


def permute_featured(fg: FeaturedGraph, sigma: Sequence[int]) -> FeaturedGraph:
    """Relabel a featured graph; feature row of u moves to sigma[u]."""
    g = permute(fg.graph, sigma)  # checks sigma
    feats = np.empty_like(fg.features)
    feats[list(sigma)] = fg.features
    return FeaturedGraph.unchecked(g, feats)


def degree_sequence(g: Graph) -> list[int]:
    """Sorted (ascending) vertex degrees."""
    return sorted(len(a) for a in g.adjacency)


def rooted_order(g: Graph, root: int) -> Iterator[tuple[int, int]]:
    """(vertex, parent) pairs for the component of `root`, the root first
    with parent -1, each vertex after its parent.

    Vertices are listed as they are discovered by a depth-first search that
    scans the most recently discovered vertex next (LIFO), in adjacency
    order; reversed, the pairs visit every vertex after all its children.
    """
    yield root, -1
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
                yield v, u


def bipartite_coloring(g: Graph) -> Optional[list[int]]:
    """A proper 2-coloring (values 0/1) if one exists, else None."""
    color = [-1] * g.num_vertices
    for start in range(g.num_vertices):
        if color[start] == -1:
            for v, parent in rooted_order(g, start):
                color[v] = 0 if parent < 0 else 1 - color[parent]
    if any(color[u] == color[v] for u, v in g.edges()):
        return None
    return color


def is_bipartite(g: Graph) -> bool:
    """True iff g contains no odd cycle."""
    return bipartite_coloring(g) is not None


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertices of later graphs are shifted up."""
    total = sum(g.num_vertices for g in graphs)
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.num_vertices
    return Graph(total, edges)


def text_blocks(text: str) -> list[list[str]]:
    """The stripped non-blank lines of `text`, in blocks split at every line
    that is blank after `strip` (empty, spaces, tabs or a stray CR)."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.strip():
            blocks[-1].append(line.strip())
        elif blocks[-1]:
            blocks.append([])
    return [block for block in blocks if block]


def twin_reduce(fg: FeaturedGraph) -> FeaturedGraph:
    """Contract twin vertices (weights add) and drop zero-weight vertices.

    Requires scalar weights (p = 1), all non-negative. The zero-weight
    vertices go first. The rest are grouped by their open neighbourhood among
    themselves; each class keeps its smallest vertex, whose weight adds the
    others' in ascending order. One pass suffices: dropping a vertex can make
    two others twins, but contracting twins never can, since every third
    vertex is adjacent to both twins or to neither. The output is therefore
    deterministic and equals contracting the lexicographically smallest twin
    pair until none is left; the reduced value is independent of contraction
    order regardless.
    """
    if fg.feature_dim != 1:
        raise ValueError("twin reduction supports scalar weights only (p = 1)")
    weights = fg.features[:, 0]
    if (weights < 0).any():
        raise ValueError("twin reduction requires non-negative weights")
    alive = dict.fromkeys(np.flatnonzero(weights).tolist())  # NaN stays, -0.0 goes
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in alive:
        classes.setdefault(tuple(u for u in fg.graph.adjacency[v] if u in alive), []).append(v)
    reduced = []
    for first, *rest in classes.values():
        w = weights[first]
        for v in rest:
            w += weights[v]
        reduced.append(w)
    index = {members[0]: i for i, members in enumerate(classes.values())}
    edges = (
        (index[u], index[v]) for u in index for v in fg.graph.adjacency[u] if u < v and v in index
    )
    return FeaturedGraph.unchecked(Graph(len(index), edges), np.reshape(reduced, (-1, 1)))
