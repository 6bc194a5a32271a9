"""Pattern catalogs: small graphs whose homomorphism counts form embedding columns.

Families are enumerated deterministically (ordered by size, then canonical
code) so embedding columns are stable across runs and platforms. Tree-shaped
patterns are deduplicated with AHU codes; each pattern can produce a nice
tree decomposition for the bounded-treewidth counting algorithm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from .graphs import Graph, rooted_order, text_blocks

MAX_TREE_CATALOG_SIZE = 12


@dataclass(frozen=True)
class Pattern:
    graph: Graph
    family: str  # tree | cycle | star | path | kbip | custom
    size: int
    canonical_code: str

    def __repr__(self) -> str:
        return f"Pattern({self.family}, n={self.size})"


@dataclass(frozen=True)
class TreeDecomposition:
    """A nice tree decomposition: leaf / introduce / forget / join nodes.

    Nodes are numbered bottom-up: `children[t]` lists the children of node
    t in ascending order, each numbered below t, and the last node is the
    root.
    """

    bags: tuple[frozenset[int], ...]
    children: tuple[tuple[int, ...], ...]
    node_kind: tuple[str, ...]
    width: int


# ---------------------------------------------------------------------------
# canonical codes


def _is_connected(g: Graph) -> bool:
    """Whether a graph with at least one vertex is connected."""
    return sum(1 for _ in rooted_order(g, 0)) == g.num_vertices


def _is_tree(g: Graph) -> bool:
    return g.num_vertices > 0 and g.num_edges == g.num_vertices - 1 and _is_connected(g)


def _is_cycle(g: Graph) -> bool:
    """Whether `g` is the cycle C_k, k >= 3: connected, every degree 2."""
    return g.num_vertices >= 3 and {len(nb) for nb in g.adjacency} == {2} and _is_connected(g)


def _tree_centers(g: Graph) -> list[int]:
    """The middle one or two vertices, ascending, of a longest path. A
    vertex farthest from any vertex ends one, so two walks find it."""
    end = 0
    for _ in range(2):  # to a farthest vertex from 0, then to one farthest from it
        depth, parent = {-1: -1}, {}
        for v, p in rooted_order(g, end):
            depth[v], parent[v] = depth[p] + 1, p
        start, end = end, max(parent, key=depth.__getitem__)
    path = [end]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def _rooted_ahu(g: Graph, root: int) -> str:
    code: dict[int, str] = {}
    for v, parent in reversed(list(rooted_order(g, root))):
        code[v] = "(" + "".join(sorted(code[c] for c in g.adjacency[v] if c != parent)) + ")"
    return code[root]


def canonical_tree_code(g: Graph) -> str:
    """AHU encoding rooted at the tree center; equal codes iff isomorphic."""
    if not _is_tree(g):
        raise ValueError("canonical_tree_code requires a tree")
    return min(_rooted_ahu(g, c) for c in _tree_centers(g))


def canonical_adjacency_code(g: Graph) -> str:
    """`g{n}:` and the least upper-triangle adjacency string over the leaves
    of an individualization-refinement search, so equal codes iff isomorphic
    (McKay and Piperno, "Practical graph isomorphism, II", 2014).

    `lab` lists the vertices cell by cell, the cell at s being lab[s:end[s]].
    `refine` splits cells by neighbour counts in queued splitters, ascending
    if the splitter starts at or before the cell and descending after it,
    until the partition is equitable; `search` branches on each vertex of the
    first smallest non-singleton cell, moved to its front. Both read only
    positions and counts, so relabeling keeps the code. A node skips what
    automorphisms fixing its branched vertices (twin swaps, maps between two
    leaves of equal rows) send onto a vertex it tried; twins share an open or
    closed neighbourhood class. Each node is a generator yielding its
    children's arguments, run depth first by one loop over a stack.
    """
    n, adj = g.num_vertices, g.adjacency
    ids: dict[tuple, int] = {}  # one id space: N(x) = N[y] would put y, so x, in N(x)
    twin = [(ids.setdefault(a, len(ids)), ids.setdefault(tuple(sorted(a + (v,))), len(ids)))
            for v, a in enumerate(adj)]
    best: list = [[1 << n] * n, []]  # the least leaf's rows (at first above all) and order
    autos: list[dict[int, int]] = []

    def refine(lab: list[int], end: dict[int, int], queue: list[int]) -> tuple:
        while queue:
            w = queue.pop(0)
            hits = Counter(x for u in lab[w : end[w]] for x in adj[u])
            for s, e in sorted((s, e) for s, e in end.items() if e - s > 1):
                keys = [(1 if w <= s else -1) * hits[x] for x in lab[s:e]]
                if min(keys) == max(keys):
                    continue
                keys, lab[s:e] = zip(*sorted(zip(keys, lab[s:e])))
                starts = [s + i for i in range(e - s) if i == 0 or keys[i] != keys[i - 1]]
                end.update(zip(starts, starts[1:] + [e]))
                queue += [a for a in starts if a not in queue]
        return lab, end

    def search(lab: list[int], end: dict[int, int], fixed: tuple[int, ...]):
        cells = [(e - s, s) for s, e in end.items() if e - s > 1]
        if not cells:  # a leaf: row i has bit n-1-j for each edge to a later position j
            pos = {v: i for i, v in enumerate(lab)}
            rows = [sum(1 << n - 1 - pos[u] for u in adj[v] if pos[u] > i)
                    for i, v in enumerate(lab)]
            if rows < best[0]:
                best[:] = rows, lab
            elif rows == best[0]:
                autos.append(dict(zip(best[1], lab)))
            return
        size, s = min(cells)
        target, tried = lab[s : s + size], set()
        for v in (v for v in target if v not in tried):
            child = lab[:s] + [v] + [x for x in target if x != v] + lab[s + size :]
            yield *refine(child, {**end, s: s + 1, s + 1: s + size}, [s]), fixed + (v,)
            maps = [p for p in autos if all(p[f] == f for f in fixed)]  # each keeps this node
            images = {v}
            while not images <= tried:  # close `tried` under `maps` and twin swaps
                tried |= images
                classes = {c for x in tried for c in twin[x]}
                images = {p[x] for p in maps for x in tried} | {
                    y for y in target if not classes.isdisjoint(twin[y])}

    stack = [search(*refine(list(range(n)), {0: n}, [0]), ())]
    while stack:  # run the top node to its next child, or drop it when it has none
        if child := next(stack[-1], None):
            stack.append(search(*child))
        else:
            stack.pop()
    return f"g{n}:" + "".join(bin(r | 1 << n - 1 - i)[3:] for i, r in enumerate(best[0]))


# ---------------------------------------------------------------------------
# family constructors


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def _pattern(g: Graph, family: str) -> Pattern:
    """The one rule for a pattern's code, read from its graph alone: the AHU
    code for a tree, the adjacency code otherwise."""
    code = canonical_tree_code(g) if _is_tree(g) else canonical_adjacency_code(g)
    return Pattern(g, family, g.num_vertices, code)


def enumerate_trees(max_size: int) -> list[Pattern]:
    """All free trees with 2..max_size vertices, one per isomorphism class.

    Grown by leaf attachment with AHU deduplication. The single vertex is
    deliberately excluded from the catalog; use a custom pattern if the
    vertex count is wanted as a feature.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if max_size > MAX_TREE_CATALOG_SIZE:
        raise ValueError(f"tree catalogs beyond size {MAX_TREE_CATALOG_SIZE} are not supported")
    patterns: list[Pattern] = []
    edge = path_graph(2)
    current: dict[str, Graph] = {canonical_tree_code(edge): edge}
    for size in range(2, max_size + 1):
        for code in sorted(current):
            patterns.append(Pattern(current[code], "tree", size, code))
        if size == max_size:
            break
        grown: dict[str, Graph] = {}
        for tree in current.values():
            for attach in range(size):
                bigger = Graph(size + 1, list(tree.edges()) + [(attach, size)])
                code = canonical_tree_code(bigger)
                if code not in grown:
                    grown[code] = bigger
        current = grown
    return patterns


def enumerate_cycles(max_size: int) -> list[Pattern]:
    """The single-edge pattern followed by cycles C3..C_max_size.

    The edge pattern stands in for the length-2 closed-walk count (twice the
    edge count), which rounds the cycle catalog out to max_size - 1 columns.
    """
    if max_size < 3:
        raise ValueError("max_size must be at least 3")
    return [_pattern(path_graph(2), "path")] + [
        _pattern(cycle_graph(k), "cycle") for k in range(3, max_size + 1)
    ]


def enumerate_stars(max_size: int) -> list[Pattern]:
    """Stars S_1..S_{max_size-1} (sizes 2..max_size)."""
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    return [_pattern(star_graph(leaves), "star") for leaves in range(1, max_size)]


def enumerate_paths(max_size: int) -> list[Pattern]:
    """Paths P2..P_{max_size} (sizes 2..max_size)."""
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    return [_pattern(path_graph(size), "path") for size in range(2, max_size + 1)]


def custom_pattern(g: Graph) -> Pattern:
    return _pattern(g, "custom")


# ---------------------------------------------------------------------------
# treewidth and nice decompositions


def treewidth_exact(g: Graph) -> tuple[int, list[int]]:
    """Optimal treewidth via dynamic programming over elimination prefixes
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos, 2012).

    Returns (width, elimination_order) where the order achieves the width:
    each vertex set records the lowest vertex whose elimination last gives
    it its width, and the order is read back from those records.
    Exponential in the vertex count; guarded at 20 vertices.
    """
    n = g.num_vertices
    if n > 20:
        raise ValueError("treewidth_exact is limited to 20 vertices")
    if n == 0:
        return -1, []
    adj = [0] * n
    for u in range(n):
        for v in g.adjacency[u]:
            adj[u] |= 1 << v

    def fill_degree(eliminated: int, v: int) -> int:
        # Vertices outside `eliminated` reachable from v through eliminated ones.
        comp = adj[v] & eliminated
        frontier = comp
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= adj[low.bit_length() - 1]
                m ^= low
            frontier = (grow & eliminated) & ~comp
            comp |= frontier
        reach = adj[v]
        m = comp
        while m:
            low = m & -m
            reach |= adj[low.bit_length() - 1]
            m ^= low
        return bin(reach & ~eliminated & ~(1 << v)).count("1")

    full = (1 << n) - 1
    width, last = [-1] * (full + 1), [0] * (full + 1)
    for s in range(1, full + 1):
        best = n
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            prev = width[s ^ low]
            if prev >= best:
                continue
            cand = max(prev, fill_degree(s ^ low, v))
            if cand < best:
                best, last[s] = cand, v
        width[s] = best

    order, s = [], full
    while s:
        order.append(last[s])
        s ^= 1 << last[s]
    return width[full], order[::-1]


def _elimination_bags(g: Graph, order: Sequence[int]) -> tuple[list[frozenset[int]], list[int]]:
    """Decomposition bags from an elimination order, with fill-in edges, and
    each bag's parent: always a later bag, or -1 for the last bag."""
    n = g.num_vertices
    if sorted(order) != list(range(n)):
        raise ValueError("elimination order must be a permutation of the vertices")
    position = {v: i for i, v in enumerate(order)}
    neighbors = {v: set(g.adjacency[v]) for v in range(n)}
    bags: list[frozenset[int]] = []
    parent: list[int] = []
    for idx, v in enumerate(order):
        later = {u for u in neighbors[v] if position[u] > idx}
        bags.append(frozenset({v} | later))
        # The parent is the bag of the first-eliminated later neighbor; bags
        # whose vertex had none (component ends) chain to the next bag so the
        # decomposition stays a single tree.
        parent.append(min((position[u] for u in later), default=idx + 1))
        for a in later:
            neighbors[a].discard(v)
            for b in later:
                if a != b:
                    neighbors[a].add(b)
    parent[-1] = -1
    return bags, parent


def build_nice_decomposition(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Nice tree decomposition of g from an elimination order.

    The root bag is empty, leaves have empty bags, and each vertex is
    forgotten exactly once on the path to the root. The empty graph gets a
    single empty leaf, whose one table entry is the empty map. Elimination
    bags are built in order, each after its children (which precede it),
    so the nice nodes come out numbered bottom-up.
    """
    if g.num_vertices == 0:
        return TreeDecomposition((frozenset(),), ((),), ("leaf",), -1)
    bags, parent = _elimination_bags(g, order)
    nodes: list[tuple[frozenset[int], tuple[int, ...], str]] = []  # (bag, children, kind)

    def add(bag: frozenset[int], kind: str, *children: int) -> int:
        nodes.append((bag, tuple(sorted(children)), kind))
        return len(nodes) - 1

    def chain_up(node: int, source: frozenset[int], target: frozenset[int]) -> int:
        """Forget then introduce, one vertex per step, from source to target."""
        bag = source
        for v in sorted(source - target):
            bag = bag - {v}
            node = add(bag, "forget", node)
        for v in sorted(target - source):
            bag = bag | {v}
            node = add(bag, "introduce", node)
        return node

    arms: list[list[int]] = [[] for _ in bags]  # per bag, its children chained up to it
    for t, bag in enumerate(bags):
        node = arms[t][0] if arms[t] else chain_up(add(frozenset(), "leaf"), frozenset(), bag)
        for arm in arms[t][1:]:
            node = add(bag, "join", node, arm)
        if parent[t] < 0:
            chain_up(node, bag, frozenset())  # the root, last of all
        else:
            arms[parent[t]].append(chain_up(node, bag, bags[parent[t]]))
    nice_bags, children, kinds = zip(*nodes)
    td = TreeDecomposition(nice_bags, children, kinds, max(map(len, nice_bags)) - 1)
    validate_decomposition(td, g)
    return td


def validate_decomposition(td: TreeDecomposition, g: Graph) -> None:
    """Assert the bottom-up numbering, the three decomposition conditions
    and nice-form structure."""
    size = len(td.bags)
    if not size or len(td.children) != size or len(td.node_kind) != size:
        raise ValueError("bags, children and node kinds must align, with at least one node")
    parent = [-1] * size
    for t, kids in enumerate(td.children):
        if list(kids) != sorted(kids):
            raise ValueError(f"children of node {t} are not in ascending order")
        for c in kids:
            if not 0 <= c < t:
                raise ValueError(f"child {c} of node {t} is not numbered below it")
            if parent[c] >= 0:
                raise ValueError(f"node {c} has two parents")
            parent[c] = t
    if -1 in parent[:-1]:
        raise ValueError(f"node {parent.index(-1)} has no parent but is not the root")
    cover = set()
    for bag in td.bags:
        cover |= bag
    if cover != set(range(g.num_vertices)):
        raise ValueError("bags do not cover every vertex")
    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in td.bags):
            raise ValueError(f"edge ({u}, {v}) not contained in any bag")
    if td.bags[-1]:
        raise ValueError("root bag must be empty")
    # The root holds no vertex, so every bag holding v has a parent, and
    # those bags are connected iff exactly one of them has a parent without v.
    for v in range(g.num_vertices):
        tops = [t for t, bag in enumerate(td.bags) if v in bag and v not in td.bags[parent[t]]]
        if len(tops) != 1:
            raise ValueError(f"bags containing vertex {v} are not connected")
    for t, kind in enumerate(td.node_kind):
        bag, ch = td.bags[t], td.children[t]
        if kind == "leaf":
            if ch or bag:
                raise ValueError("leaf nodes must have empty bags and no children")
        elif kind == "introduce":
            if len(ch) != 1 or len(bag - td.bags[ch[0]]) != 1 or not td.bags[ch[0]] <= bag:
                raise ValueError("introduce node must add exactly one vertex")
        elif kind == "forget":
            if len(ch) != 1 or len(td.bags[ch[0]] - bag) != 1 or not bag <= td.bags[ch[0]]:
                raise ValueError("forget node must drop exactly one vertex")
        elif kind == "join":
            if len(ch) != 2 or any(td.bags[c] != bag for c in ch):
                raise ValueError("join node needs two children with identical bags")
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    if td.width != max(len(b) for b in td.bags) - 1:
        raise ValueError("stored width does not match bags")


@lru_cache(maxsize=512)
def nice_decomposition(pattern: Pattern) -> TreeDecomposition:
    """Cached nice decomposition of a pattern at its exact treewidth."""
    _, order = treewidth_exact(pattern.graph)
    return build_nice_decomposition(pattern.graph, order)


# ---------------------------------------------------------------------------
# external interfaces


def parse_pattern_blocks(text: str) -> list[Graph]:
    """Parse the custom pattern format: per block, `n` then `u v` edge lines."""
    graphs = []
    for lines in text_blocks(text):
        try:
            n = int(lines[0])
            edges = []
            for ln in lines[1:]:
                u, v = ln.split()
                edges.append((int(u), int(v)))
            graphs.append(Graph(n, edges))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"malformed pattern block: {exc}") from exc
    return graphs


def load_pattern_file(path: str | Path) -> list[Graph]:
    return parse_pattern_blocks(Path(path).read_text())


def _spec_int(spec: str, text: str, what: str = "size", least: Optional[int] = None) -> int:
    """The integer `text` read from `spec`, or a ValueError that quotes the spec."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"spec {spec!r} needs an integer {what}, got {text!r}") from None
    if least is not None and value < least:
        raise ValueError(f"spec {spec!r} needs a {what} of at least {least}")
    return value


def resolve_family(spec: str) -> list[Pattern]:
    """The patterns a spec names, in catalog order. The one spec grammar:

    - a family `trees:K`, `cycles:K`, `stars:K` or `paths:K`, the
      `enumerate_*` catalog up to K vertices, within that function's range;
    - one pattern `edge` (no argument), `cycle:K` (K >= 3), `path:N` or `star:N` (N >= 1
      vertices), or `kbip:A,B`, the complete bipartite K_{A,B} (A, B >= 1).
      Shapes are built as in the catalogs: `cycle:5` is the C5 entry of
      `cycles:5`, and `edge` is their P2;
    - `file:PATH`, every block of a custom pattern file, or `file:PATH#i`,
      its block i.

    A spec that names no pattern, such as a file of blank lines, raises.
    """
    name, colon, arg = spec.partition(":")
    name = name.lower()
    if name == "edge" and not colon:  # edge takes no argument: `edge:7` is unknown
        name, arg = "path", "2"
    catalogs = {"trees": enumerate_trees, "cycles": enumerate_cycles,
                "stars": enumerate_stars, "paths": enumerate_paths}
    shapes = {"cycle": (cycle_graph, 3), "path": (path_graph, 1),
              "star": (lambda n: star_graph(n - 1), 1)}
    if name in catalogs:
        size = _spec_int(spec, arg)
        try:
            patterns = catalogs[name](size)
        except ValueError as exc:  # the catalog's own size guard
            raise ValueError(f"spec {spec!r}: {exc}") from None
    elif name in shapes:
        build, least = shapes[name]
        patterns = [_pattern(build(_spec_int(spec, arg, least=least)), name)]
    elif name == "kbip":
        left, comma, right = arg.partition(",")
        if not comma:
            raise ValueError(f"spec {spec!r} needs two part sizes A,B")
        a, b = (_spec_int(spec, x, "part size", least=1) for x in (left, right))
        # vertices 0..a-1 on one side, a..a+b-1 on the other
        patterns = [_pattern(Graph(a + b, ((i, a + j) for i in range(a) for j in range(b))), name)]
    elif name == "file":
        path, block, index = arg.partition("#")
        graphs = load_pattern_file(path)
        if block:
            i = _spec_int(spec, index, "block index")
            if not 0 <= i < len(graphs):
                raise ValueError(f"pattern index {i} out of range: {path} has {len(graphs)} blocks")
            graphs = graphs[i : i + 1]
        patterns = [custom_pattern(g) for g in graphs]
    else:
        raise ValueError(f"unknown pattern family {spec!r}")
    if not patterns:
        raise ValueError(f"spec {spec!r} names no pattern")
    return patterns


def pattern_from_spec(spec: str) -> Pattern:
    """The one pattern `resolve_family(spec)` names; a spec that names more,
    such as `file:PATH` on a file of several blocks, raises."""
    patterns = resolve_family(spec)
    if len(patterns) != 1:
        raise ValueError(f"spec {spec!r} names {len(patterns)} patterns, where one is needed")
    return patterns[0]
