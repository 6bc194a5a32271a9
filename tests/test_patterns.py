import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_isomorphic, random_connected_graph, random_simple_graph
from homcount.datasets import load_paulus
from homcount.graphs import Graph, disjoint_union, permute
from homcount.patterns import (
    TreeDecomposition,
    _tree_centers,
    build_nice_decomposition,
    canonical_adjacency_code,
    canonical_tree_code,
    custom_pattern,
    cycle_graph,
    enumerate_cycles,
    enumerate_paths,
    enumerate_stars,
    enumerate_trees,
    parse_pattern_blocks,
    path_graph,
    pattern_from_spec,
    resolve_family,
    star_graph,
    treewidth_exact,
    validate_decomposition,
)

# one free tree per size, 2..10 (OEIS A000055 without the empty and 1-vertex rows)
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


class TestTreeEnumeration:
    def test_thirteen_up_to_six(self):
        assert len(enumerate_trees(6)) == 13

    def test_counts_per_size(self):
        counts = Counter(p.size for p in enumerate_trees(10))
        assert dict(counts) == TREE_COUNTS

    def test_single_edge_only(self):
        pats = enumerate_trees(2)
        assert len(pats) == 1
        assert pats[0].graph == Graph(2, [(0, 1)])

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_trees(13)
        with pytest.raises(ValueError):
            enumerate_trees(1)

    def test_deterministic_order(self):
        a = [(p.size, p.canonical_code) for p in enumerate_trees(8)]
        b = [(p.size, p.canonical_code) for p in enumerate_trees(8)]
        assert a == b == sorted(a)

    def test_pairwise_non_isomorphic_small(self):
        pats = [p for p in enumerate_trees(7)]
        for a, b in itertools.combinations(pats, 2):
            if a.size == b.size:
                assert not brute_isomorphic(a.graph, b.graph)

    def test_distinct_codes_size_ten(self):
        codes = [p.canonical_code for p in enumerate_trees(10) if p.size == 10]
        assert len(codes) == len(set(codes)) == 106


class TestCycleEnumeration:
    def test_seven_up_to_eight(self):
        assert len(enumerate_cycles(8)) == 7

    def test_edge_then_c3(self):
        pats = enumerate_cycles(3)
        assert [p.size for p in pats] == [2, 3]
        assert pats[0].graph.num_edges == 1
        assert pats[1].family == "cycle"

    def test_cycles_are_two_regular(self):
        for p in enumerate_cycles(8):
            if p.family == "cycle":
                assert all(p.graph.degree(v) == 2 for v in range(p.size))
                assert p.graph.num_edges == p.size


class TestStarsAndPaths:
    def test_star_sizes(self):
        pats = enumerate_stars(4)
        assert [p.size for p in pats] == [2, 3, 4]

    def test_star_degree_sequence(self):
        for p in enumerate_stars(6):
            k = p.size - 1
            assert sorted(p.graph.degree(v) for v in range(p.size)) == [1] * k + [k]

    def test_path_sizes(self):
        assert [p.size for p in enumerate_paths(4)] == [2, 3, 4]


class TestCanonicalCodes:
    def test_p3_equals_s2(self):
        assert canonical_tree_code(path_graph(3)) == canonical_tree_code(star_graph(2))

    def test_p4_differs_from_s3(self):
        assert canonical_tree_code(path_graph(4)) != canonical_tree_code(star_graph(3))

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            canonical_tree_code(cycle_graph(4))

    def test_code_invariant_under_relabeling(self):
        rng = random.Random(17)
        for p in enumerate_trees(7):
            sigma = list(range(p.size))
            rng.shuffle(sigma)
            relabeled = Graph(p.size, [(sigma[u], sigma[v]) for u, v in p.graph.edges()])
            assert canonical_tree_code(relabeled) == p.canonical_code

    def test_centers_are_the_vertices_of_least_eccentricity(self):
        rng = random.Random(19)
        for tree in [Graph(1)] + [p.graph for p in enumerate_trees(10)]:
            sigma = list(range(tree.num_vertices))
            rng.shuffle(sigma)
            g = permute(tree, sigma)
            ecc = [max(bfs_distances(g, v)) for v in range(g.num_vertices)]
            assert _tree_centers(g) == [v for v in range(g.num_vertices) if ecc[v] == min(ecc)]

    def test_adjacency_code_exact_small(self):
        rng = random.Random(29)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 6), 0.5)
            sigma = list(range(g.num_vertices))
            rng.shuffle(sigma)
            relabeled = Graph(g.num_vertices, [(sigma[u], sigma[v]) for u, v in g.edges()])
            assert canonical_adjacency_code(g) == canonical_adjacency_code(relabeled)

    def test_adjacency_code_equals_full_search(self):
        rng = random.Random(31)
        graphs = [random_simple_graph(rng, rng.randint(0, 6), rng.random()) for _ in range(300)]
        assert_codes_split_as_the_oracle(graphs + [cycle_graph(k) for k in range(3, 9)])

    def test_adjacency_code_equals_full_search_on_seven_and_eight_vertices(self):
        rng = random.Random(37)
        graphs = [random_simple_graph(rng, 7, rng.random()) for _ in range(20)]
        cube = Graph(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
        assert_codes_split_as_the_oracle(graphs + [cube])


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Edge distances from `source` to every vertex of a connected graph."""
    dist = [-1] * g.num_vertices
    dist[source], queue = 0, [source]
    for u in queue:
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def assert_codes_split_as_the_oracle(graphs) -> None:
    """Two graphs share a code exactly when they share the oracle's code."""
    pairs = {(canonical_adjacency_code(g), reference_adjacency_code(g)) for g in graphs}
    assert len(pairs) == len({code for code, _ in pairs}) == len({ref for _, ref in pairs})


@st.composite
def relabelled_graphs(draw):
    """A graph on 0-12 vertices and a permutation of its vertices."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k]), draw(st.permutations(range(n)))


class TestExactCodes:
    """One search gives every non-tree its code; the code names the graph's
    isomorphism class at every size."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=relabelled_graphs())
    @example(case=(cycle_graph(12), list(range(12))[::-1]))
    @example(case=(disjoint_union(*[cycle_graph(4)] * 3), [(5 * v) % 12 for v in range(12)]))
    def test_relabeling_keeps_the_code(self, case):
        g, sigma = case
        assert canonical_adjacency_code(permute(g, sigma)) == canonical_adjacency_code(g)

    def test_paulus_templates_get_fourteen_codes(self):
        # strongly regular, so refinement alone leaves one cell: the search does the work
        bundle = load_paulus(copies_per_class=2, seed=0)
        codes = {}
        for g, label in zip(bundle.graphs, bundle.labels):
            codes.setdefault(label, set()).add(canonical_adjacency_code(g))
        assert all(len(c) == 1 for c in codes.values())  # each permuted copy, its template's
        assert len(set.union(*codes.values())) == 14

    def test_c9_and_three_triangles_differ(self):
        # both used to read the colour-refinement signature `g9m9:wl[0x9]`
        triangles = disjoint_union(*[cycle_graph(3)] * 3)
        assert canonical_adjacency_code(cycle_graph(9)) != canonical_adjacency_code(triangles)

    @pytest.mark.parametrize(
        "spec, code",
        [("edge", "(())"), ("cycle:3", "g3:111"), ("cycle:4", "g4:011110"),
         ("cycle:5", "g5:0011101100"), ("cycle:6", "g6:000110101110000"),
         ("cycle:7", "g7:000011001011010100000"),
         ("cycle:8", "g8:0000011000101010101100000000"), ("kbip:3,3", "g6:001110111111000")],
    )
    def test_fixed_workload_codes_are_kept(self, spec, code):
        # the codes the full search over every relabeling gave
        assert pattern_from_spec(spec).canonical_code == code

    @pytest.mark.parametrize("n, complete", [(0, False), (1200, False), (400, True)])
    def test_closed_forms_at_any_size(self, n, complete):
        # the search used to recurse once per branching: Graph(1200) raised RecursionError
        g = Graph(n, itertools.combinations(range(n), 2) if complete else ())
        sigma = list(range(n))
        random.Random(n).shuffle(sigma)
        code = f"g{n}:" + ("1" if complete else "0") * (n * (n - 1) // 2)
        assert canonical_adjacency_code(g) == canonical_adjacency_code(permute(g, sigma)) == code

    def test_codes_of_seeded_graphs_are_pinned(self):
        # sha256 of the codes the recursive search gave, one code per line
        codes = "\n".join(canonical_adjacency_code(g) for g in seeded_graphs(41, 200, 12))
        digest = "933099830df2838a213986965307c3b465ea2ccfe1a1f0d88e9bc7844e8664e4"
        assert hashlib.sha256(codes.encode()).hexdigest() == digest


def seeded_graphs(seed: int, count: int, max_n: int) -> list[Graph]:
    """`count` random graphs, each on 0..max_n vertices at its own edge density."""
    rng = random.Random(seed)
    return [random_simple_graph(rng, rng.randint(0, max_n), rng.random()) for _ in range(count)]


def reference_adjacency_code(g: Graph) -> str:
    """Oracle: the minimum adjacency bitstring over all n! relabelings."""
    n = g.num_vertices
    best = None
    for perm in itertools.permutations(range(n)):
        bits = []
        for i in range(n):
            row = ["1" if g.has_edge(perm[i], perm[j]) else "0" for j in range(i + 1, n)]
            bits.append("".join(row))
        s = "".join(bits)
        if best is None or s < best:
            best = s
    return f"g{n}:{best or ''}"


def brute_treewidth(g: Graph) -> int:
    """Oracle: minimum over all elimination orders of the running clique size."""
    best = g.num_vertices
    for order in itertools.permutations(range(g.num_vertices)):
        neighbors = {v: set(g.adjacency[v]) for v in range(g.num_vertices)}
        width = 0
        for v in order:
            nb = neighbors[v]
            width = max(width, len(nb))
            for a in nb:
                neighbors[a].discard(v)
                neighbors[a] |= nb - {a}
            del neighbors[v]
        best = min(best, width)
    return best


class TestTreewidth:
    def test_trees_have_width_one(self):
        for p in enumerate_trees(6):
            width, _ = treewidth_exact(p.graph)
            assert width == 1

    def test_cycles_have_width_two(self):
        for k in range(3, 9):
            width, _ = treewidth_exact(cycle_graph(k))
            assert width == 2

    def test_k4(self):
        k4 = Graph(4, list(itertools.combinations(range(4), 2)))
        width, order = treewidth_exact(k4)
        assert width == brute_treewidth(k4) == 3
        assert sorted(order) == [0, 1, 2, 3]

    def test_against_oracle_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(3, 6)
            g = random_connected_graph(rng, n, 0.5)
            width, order = treewidth_exact(g)
            assert width == brute_treewidth(g)
            td = build_nice_decomposition(g, order)
            assert td.width == width

    def test_against_oracle_on_disconnected_graphs(self):
        rng = random.Random(33)
        for _ in range(8):
            n = rng.randint(4, 7)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.3])
            width, order = treewidth_exact(g)
            assert width == brute_treewidth(g)
            td = build_nice_decomposition(g, order)
            assert td.width == width

    def test_size_guard(self):
        with pytest.raises(ValueError, match="20"):
            treewidth_exact(Graph(21, []))

    def test_orders_of_seeded_graphs_are_pinned(self):
        # sha256 of the (width, order) pairs, as JSON, that the DP gave when it
        # rebuilt each order by a second walk over the vertex sets
        pairs = json.dumps([treewidth_exact(g) for g in seeded_graphs(43, 200, 10)])
        digest = "b16db004495ee416bfece9933e70bfc588a7801d6887182a455a03fc036c78aa"
        assert hashlib.sha256(pairs.encode()).hexdigest() == digest

    def test_decompositions_of_seeded_graphs_are_pinned(self):
        # sha256 of the bags, children and node kinds, as JSON, that the
        # builder gave from those orders when it kept its nodes in a class
        records = []
        for g in seeded_graphs(43, 200, 10):
            td = build_nice_decomposition(g, treewidth_exact(g)[1])
            records.append([[sorted(b) for b in td.bags], td.children, td.node_kind])
        digest = "9c4eaced3b945931c3f88394e5ad9f824683002a10e6917b1845eb98be0f9112"
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


class TestNiceDecomposition:
    def test_p3_small_bags(self):
        g = path_graph(3)
        _, order = treewidth_exact(g)
        td = build_nice_decomposition(g, order)
        assert max(len(b) for b in td.bags) <= 2

    def test_c4_width_two_covers_edges(self):
        g = cycle_graph(4)
        _, order = treewidth_exact(g)
        td = build_nice_decomposition(g, order)
        assert td.width == 2
        for u, v in g.edges():
            assert any(u in bag and v in bag for bag in td.bags)

    def test_k3_single_bag_expanded(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        _, order = treewidth_exact(g)
        td = build_nice_decomposition(g, order)
        validate_decomposition(td, g)
        assert td.width == 2

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            build_nice_decomposition(path_graph(3), [0, 0, 1])

    def test_validator_catches_missing_edge(self):
        g = Graph(2, [(0, 1)])
        td = TreeDecomposition(
            bags=(frozenset({0}), frozenset({1})),
            children=((), (0,)),
            node_kind=("leaf", "leaf"),
            width=0,
        )
        with pytest.raises(ValueError, match="edge"):
            validate_decomposition(td, g)

    @staticmethod
    def one_vertex(*bags, children=None):
        """A decomposition of the one-vertex graph over `bags`: a leaf, then
        each node introducing or forgetting vertex 0 from the one below it."""
        kinds = ["leaf"] + ["introduce" if bag else "forget" for bag in bags[1:]]
        if children is None:
            children = [()] + [(t - 1,) for t in range(1, len(bags))]
        width = max(len(b) for b in bags) - 1
        return TreeDecomposition(tuple(map(frozenset, bags)), tuple(children), tuple(kinds), width)

    def test_one_vertex_path_is_valid(self):
        validate_decomposition(self.one_vertex(set(), {0}, set()), Graph(1))

    @pytest.mark.parametrize(
        "children, match",
        [
            (((), (0,)), "align"),  # three bags and node kinds, two child lists
            (((1,), (), (1,)), "numbered below"),  # node 1 is node 0's child
            (((), (0,), (0, 1)), "two parents"),  # node 0 under nodes 1 and 2
            (((), (0,), ()), "no parent"),  # node 1 is not the last, yet on top
            (((), (), (1, 0)), "ascending"),  # node 2 lists its children as 1, 0
        ],
    )
    def test_validator_catches_bad_numbering(self, children, match):
        td = self.one_vertex(set(), {0}, set(), children=children)
        with pytest.raises(ValueError, match=match):
            validate_decomposition(td, Graph(1))

    def test_validator_catches_split_vertex(self):
        # vertex 0 is introduced, forgotten, then introduced again: two tops
        td = self.one_vertex(set(), {0}, set(), {0}, set())
        with pytest.raises(ValueError, match="vertex 0 are not connected"):
            validate_decomposition(td, Graph(1))

    def test_disconnected_pattern(self):
        g = Graph(4, [(0, 1), (2, 3)])
        _, order = treewidth_exact(g)
        td = build_nice_decomposition(g, order)
        validate_decomposition(td, g)


class TestPatternFiles:
    def test_block_roundtrip(self, tmp_path):
        text = "3\n0 1\n1 2\n\n2\n0 1\n"
        graphs = parse_pattern_blocks(text)
        assert [g.num_vertices for g in graphs] == [3, 2]
        assert graphs[0].num_edges == 2

    @pytest.mark.parametrize(
        "text",
        ["3\n0 1\n1 2\n \n2\n0 1\n", "3\n0 1\n1 2\n\t\n2\n0 1\n",
         "3\r\n0 1\r\n1 2\r\n\r\n2\r\n0 1\r\n"],
        ids=["space", "tab", "crlf"],
    )
    def test_blank_after_strip_separates_blocks(self, text):
        # each used to glue the two blocks together into one malformed block
        graphs = parse_pattern_blocks(text)
        assert [(g.num_vertices, g.num_edges) for g in graphs] == [(3, 2), (2, 1)]

    def test_malformed_block(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_pattern_blocks("3\n0 x\n")

    def test_edge_out_of_range(self):
        # the edge check of Graph raised a bare IndexError
        message = r"malformed pattern block: edge \(1, 5\) out of range for 3 vertices"
        with pytest.raises(ValueError, match=message):
            parse_pattern_blocks("3\n0 1\n1 5\n")

    def test_resolve_family(self):
        assert len(resolve_family("trees:6")) == 13
        assert len(resolve_family("cycles:8")) == 7
        with pytest.raises(ValueError, match="unknown"):
            resolve_family("hexagons:4")
        with pytest.raises(ValueError, match="size"):
            resolve_family("trees")


class TestPatternFromSpec:
    @pytest.mark.parametrize(
        "spec, family, index",
        [("cycle:5", "cycles:5", -1), ("path:4", "paths:4", -1),
         ("star:4", "stars:4", -1), ("edge", "cycles:3", 0)],
    )
    def test_equals_catalog_entry(self, spec, family, index):
        # Pattern equality covers graph, family, size and canonical code.
        assert pattern_from_spec(spec) == resolve_family(family)[index]
        assert resolve_family(spec) == [pattern_from_spec(spec)]

    @pytest.mark.parametrize("spec", ["kbip:3,3", "file:{path}#1"])
    def test_single_pattern_is_a_catalog_of_one(self, tmp_path, spec):
        path = tmp_path / "pats.txt"
        path.write_text("3\n0 1\n1 2\n\n4\n0 1\n0 2\n0 3\n")
        spec = spec.format(path=path)
        assert resolve_family(spec) == [pattern_from_spec(spec)]

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 4), (2, 3), (3, 3)])
    def test_complete_bipartite(self, a, b):
        p = pattern_from_spec(f"kbip:{a},{b}")
        assert (p.family, p.size, p.graph.num_edges) == ("kbip", a + b, a * b)
        assert sorted(p.graph.edges()) == [(i, a + j) for i in range(a) for j in range(b)]
        # K_{1,B} is a star, so it gets the tree code, as every tree does
        code = canonical_tree_code if a == 1 else canonical_adjacency_code
        assert p.canonical_code == code(p.graph)

    def test_kbip_three_three_has_treewidth_three(self):
        assert treewidth_exact(pattern_from_spec("kbip:3,3").graph)[0] == 3

    @pytest.mark.parametrize(
        "spec, message",
        [("kbip:0,3", "part size of at least 1"), ("kbip:3,0", "part size of at least 1"),
         ("kbip:3", "two part sizes"), ("kbip:x,3", "integer part size")],
    )
    def test_bad_kbip_is_named(self, spec, message):
        with pytest.raises(ValueError, match=message) as err:
            pattern_from_spec(spec)
        assert repr(spec) in str(err.value)

    @pytest.mark.parametrize(
        "suffix, message", [("", "names 2 patterns"), ("#", "integer block index, got ''")]
    )
    def test_several_blocks_need_an_index(self, tmp_path, suffix, message):
        # P3, then K3: block 0 used to be taken without a word
        path = tmp_path / "pats.txt"
        path.write_text("3\n0 1\n1 2\n\n3\n0 1\n1 2\n2 0\n")
        spec = f"file:{path}{suffix}"
        with pytest.raises(ValueError, match=message) as err:
            pattern_from_spec(spec)
        assert repr(spec) in str(err.value)
        path.write_text("3\n0 1\n1 2\n")
        assert pattern_from_spec(f"file:{path}") == custom_pattern(path_graph(3))

    def test_spec_naming_no_pattern_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n\n")
        spec = f"file:{path}"
        with pytest.raises(ValueError, match="names no pattern") as err:
            resolve_family(spec)
        assert repr(spec) in str(err.value)


@st.composite
def relabelled_trees(draw):
    """A tree on 1-14 vertices, each vertex i > 0 joined to an earlier one,
    and a permutation of its vertices."""
    n = draw(st.integers(1, 14))
    tree = Graph(n, [(i, draw(st.integers(0, i - 1))) for i in range(1, n)])
    return tree, draw(st.permutations(range(n)))


class TestCodeIsReadFromTheGraph:
    def test_one_star_one_code(self, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("4\n0 1\n0 2\n0 3\n")
        specs = ["star:4", "kbip:1,3", f"file:{path}"]
        assert {pattern_from_spec(spec).canonical_code for spec in specs} == {"(()()())"}

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=relabelled_trees())
    @example(case=(path_graph(12), list(range(12))[::-1]))
    def test_trees_get_the_tree_code_at_any_size(self, case):
        tree, sigma = case
        assert custom_pattern(permute(tree, sigma)).canonical_code == canonical_tree_code(tree)
