"""One-off generator for the bundled 25-vertex strongly regular graph fixture.

Builds seeds (Paley graph over GF(25) and the order-5 Latin square graphs),
then closes the family under Godsil-McKay switching on 4-vertex sets,
Seidel two-graph descendants, and complementation. Every member is verified
to satisfy A^2 = 12 I + 5 A + 6 (J - I - A); pairwise non-isomorphism is
established with homcount's exact canonical code
(`patterns.canonical_adjacency_code`), and local invariants order the output.

Run from the repository root:  python scripts/make_paulus_fixture.py
Every candidate graph is coded, so a run takes about a minute on two cores.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from homcount.graphs import Graph  # noqa: E402
from homcount.patterns import canonical_adjacency_code  # noqa: E402

N = 25
K = 12
LAM = 5
MU = 6


def is_srg(a: np.ndarray) -> bool:
    if a.shape != (N, N) or not np.array_equal(a, a.T):
        return False
    if np.any(np.diag(a)):
        return False
    if not np.all(a.sum(axis=1) == K):
        return False
    a2 = a @ a
    j = np.ones((N, N), dtype=np.int64)
    i = np.eye(N, dtype=np.int64)
    return np.array_equal(a2, K * i + LAM * a + MU * (j - i - a))


# --- seeds -----------------------------------------------------------------


def paley_25() -> np.ndarray:
    # GF(25) = GF(5)[t]/(t^2 - 2); elements (a, b) = a + b t.
    elems = [(a, b) for a in range(5) for b in range(5)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        a, b = x
        c, d = y
        return ((a * c + 2 * b * d) % 5, (a * d + b * c) % 5)

    squares = {mul(e, e) for e in elems if e != (0, 0)}
    a = np.zeros((N, N), dtype=np.int64)
    for x in elems:
        for y in elems:
            if x == y:
                continue
            diff = ((x[0] - y[0]) % 5, (x[1] - y[1]) % 5)
            if diff in squares:
                a[index[x], index[y]] = 1
    assert np.array_equal(a, a.T), "Paley graph needs -1 to be a square"
    return a


def latin_squares_order5():
    rows = list(itertools.permutations(range(5)))

    def extend(square):
        if len(square) == 5:
            yield tuple(square)
            return
        for row in rows:
            if all(all(row[c] != prev[c] for c in range(5)) for prev in square):
                square.append(row)
                yield from extend(square)
                square.pop()

    # Reduced squares (first row and column in order) are enough to hit
    # every main class.
    for square in extend([tuple(range(5))]):
        if all(square[r][0] == r for r in range(5)):
            yield square


def latin_square_graph(square) -> np.ndarray:
    a = np.zeros((N, N), dtype=np.int64)
    cells = [(r, c) for r in range(5) for c in range(5)]
    for i, (r1, c1) in enumerate(cells):
        for j, (r2, c2) in enumerate(cells):
            if i == j:
                continue
            if r1 == r2 or c1 == c2 or square[r1][c1] == square[r2][c2]:
                a[i, j] = 1
    return a


# --- moves -----------------------------------------------------------------


def gm_switches(a: np.ndarray, set_size: int = 4):
    """Godsil-McKay switching over even subsets that keep the graph regular."""
    h = set_size // 2
    for c in itertools.combinations(range(N), set_size):
        sub = a[np.ix_(c, c)]
        degs = sub.sum(axis=1)
        if degs.min() != degs.max():
            continue
        counts = a[:, c].sum(axis=1)
        outside = np.array([v for v in range(N) if v not in c])
        oc = counts[outside]
        if not np.all((oc == 0) | (oc == h) | (oc == set_size)):
            continue
        flip = outside[oc == h]
        if flip.size == 0:
            continue
        # Degree preservation: each switching vertex must be adjacent to
        # exactly half of the vertices that flip.
        if not np.all(a[np.ix_(flip, c)].sum(axis=0) * 2 == flip.size):
            continue
        b = a.copy()
        for v in flip:
            b[v, c] = 1 - b[v, c]
            b[c, v] = 1 - b[c, v]
        if is_srg(b):
            yield b


def descendants_of(h: np.ndarray):
    """Two-graph descendants of a 26-vertex graph: isolate a point, drop it."""
    m = h.shape[0]
    for v in range(m):
        mask = h[v].astype(bool)
        b = h.copy()
        flip = np.outer(mask, ~mask) | np.outer(~mask, mask)
        np.fill_diagonal(flip, False)
        b[flip] = 1 - b[flip]
        keep = [u for u in range(m) if u != v]
        d = b[np.ix_(keep, keep)]
        if is_srg(d):
            yield d


def descendants(a: np.ndarray):
    """Descendants of a 25-vertex graph through its 26-point extension."""
    h = np.zeros((N + 1, N + 1), dtype=np.int64)
    h[:N, :N] = a
    yield from descendants_of(h)


# --- Steiner triple system seeds --------------------------------------------


def cyclic_sts13() -> list[frozenset[int]]:
    blocks = []
    for base in ({0, 1, 4}, {0, 2, 7}):
        for i in range(13):
            blocks.append(frozenset((x + i) % 13 for x in base))
    assert len(set(blocks)) == 26
    return sorted(set(blocks), key=sorted)


def is_sts13(blocks) -> bool:
    if len(blocks) != 26:
        return False
    pairs = set()
    for b in blocks:
        if len(b) != 3:
            return False
        for p in itertools.combinations(sorted(b), 2):
            if p in pairs:
                return False
            pairs.add(p)
    return len(pairs) == 13 * 12 // 2


def pasch_trades(blocks):
    """STS(13) variants obtained by switching one Pasch configuration."""
    bset = set(blocks)
    for quad in itertools.combinations(blocks, 2):
        b1, b2 = quad
        shared = b1 & b2
        if len(shared) != 1:
            continue
        (a,) = shared
        b, c = sorted(b1 - shared)
        d, e = sorted(b2 - shared)
        # Pasch: {a,b,c}, {a,d,e}, {f,b,d}, {f,c,e} for some f.
        for f in range(13):
            if f == a or f in b1 or f in b2:
                continue
            for (x1, y1), (x2, y2) in (((b, d), (c, e)), ((b, e), (c, d))):
                b3 = frozenset({f, x1, y1})
                b4 = frozenset({f, x2, y2})
                if b3 in bset and b4 in bset:
                    new = (bset - {b1, b2, b3, b4}) | {
                        frozenset({f, b, c}),
                        frozenset({f, d, e}),
                        frozenset({a, x1, y1}),
                        frozenset({a, x2, y2}),
                    }
                    if is_sts13(new):
                        yield sorted(new, key=sorted)


def sts_block_graph_complement(blocks) -> np.ndarray:
    m = len(blocks)
    a = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            if not (blocks[i] & blocks[j]):
                a[i, j] = a[j, i] = 1
    return a


def complement(a: np.ndarray) -> np.ndarray:
    c = 1 - a
    np.fill_diagonal(c, 0)
    return c


# --- isomorphism -----------------------------------------------------------


def local_invariant(a: np.ndarray) -> tuple:
    """Multiset of per-vertex local-subgraph signatures (triangle profiles)."""
    sigs = []
    for v in range(N):
        nb = np.flatnonzero(a[v])
        sub = a[np.ix_(nb, nb)]
        tri = (sub @ sub * sub).sum() // 6
        per_vertex = tuple(sorted(((sub @ sub) * sub).sum(axis=1) // 2))
        sigs.append((int(tri), per_vertex))
    return tuple(sorted(sigs))


def canonical_code(a: np.ndarray) -> str:
    """The exact code of the graph with adjacency matrix `a`: equal codes
    iff isomorphic."""
    return canonical_adjacency_code(Graph(N, np.argwhere(np.triu(a)).tolist()))


# --- search ----------------------------------------------------------------


def main() -> int:
    seeds = [paley_25()]
    ls_graphs: dict[str, np.ndarray] = {}  # one latin-square graph per code
    for sq in latin_squares_order5():
        g = latin_square_graph(sq)
        ls_graphs.setdefault(canonical_code(g), g)
        if len(ls_graphs) >= 2:
            break
    seeds.extend(ls_graphs.values())
    print(f"seeds: paley + {len(ls_graphs)} latin-square graphs")
    for s in seeds:
        assert is_srg(s)

    # Steiner triple systems on 13 points: the complements of their block
    # graphs are (26,10,3,4) strongly regular, and each two-graph descendant
    # is a 25-vertex member of the family. Pasch trades reach the second
    # STS(13), giving seeds in other switching classes.
    sts_seeds = [cyclic_sts13()]
    for traded in pasch_trades(sts_seeds[0]):
        sts_seeds.append(traded)
        if len(sts_seeds) >= 8:
            break
    sts_descendants = []
    for blocks in sts_seeds:
        d26 = sts_block_graph_complement(blocks)
        assert np.all(d26.sum(axis=1) == 10)
        sts_descendants.extend(descendants_of(d26))
    print(f"sts seeds: {len(sts_seeds)} systems, {len(sts_descendants)} descendants")

    classes: list[np.ndarray] = []
    invariants: list[tuple] = []
    codes: set[str] = set()

    def register(g: np.ndarray) -> bool:
        code = canonical_code(g)
        if code in codes:
            return False
        codes.add(code)
        classes.append(g)
        invariants.append(local_invariant(g))
        return True

    frontier = []
    for s in seeds + sts_descendants:
        if register(s):
            frontier.append(s)
    print(f"classes after seeding: {len(classes)}")

    while frontier and len(classes) < 16:
        g = frontier.pop()
        produced = [complement(g)]
        produced.extend(descendants(g))
        produced.extend(gm_switches(g))
        for h in produced:
            assert is_srg(h)
            if register(h):
                frontier.append(h)
                print(f"  classes: {len(classes)}")

    if len(classes) < 14:
        # Wider switching sets as a fallback bridge between classes.
        for size in (6, 8):
            print(f"widening switch search to {size}-subsets ...")
            frontier = list(classes)
            while frontier and len(classes) < 16:
                g = frontier.pop()
                for h in gm_switches(g, size):
                    if register(h):
                        frontier.append(h)
                        print(f"  classes: {len(classes)}")
            if len(classes) >= 14:
                break

    print(f"total isomorphism classes found: {len(classes)}")
    if len(classes) < 14:
        print("FAILED: need at least 14 classes", file=sys.stderr)
        return 1

    # Deterministic order: sort by invariant so regeneration is stable.
    keyed = sorted(zip(invariants, classes), key=lambda kv: kv[0])
    chosen = [g for _, g in keyed[:14]]
    out = Path(__file__).resolve().parents[1] / "src" / "homcount" / "data" / "paulus25.txt"
    blocks = []
    for g in chosen:
        blocks.append("\n".join("".join(str(int(x)) for x in row) for row in g))
    out.write_text("\n\n".join(blocks) + "\n")
    print(f"wrote {out} with {len(chosen)} templates")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
