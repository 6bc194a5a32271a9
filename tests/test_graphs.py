import random

import numpy as np
import pytest

from conftest import reference_twin_reduce
from homcount.graphs import (
    FeaturedGraph,
    Graph,
    bipartite_coloring,
    degree_sequence,
    disjoint_union,
    is_bipartite,
    permute,
    permute_featured,
    twin_reduce,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


class TestBuild:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.num_edges == 3
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_parallel_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="not simple"):
            Graph(2, [(1, 1)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(IndexError):
            Graph(2, [(0, 2)])

    def test_symmetry_invariant(self):
        rng = random.Random(7)
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]
        g = Graph(8, edges)
        for u in range(g.num_vertices):
            assert list(g.adjacency[u]) == sorted(set(g.adjacency[u]))  # sorted, no repeats
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
        assert g.num_edges * 2 == sum(len(a) for a in g.adjacency)


class TestAdjacencyMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_loop(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 12) if seed else 0
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        loop = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            for v in g.adjacency[u]:
                loop[u, v] = 1
        a = g.adjacency_matrix()
        assert a.dtype == np.int64 and a.shape == (n, n)
        assert np.array_equal(a, loop)
        assert all(g.has_edge(u, v) == bool(a[u, v]) for u in range(n) for v in range(n))


class TestPermute:
    def test_complete_graph_fixed(self):
        assert permute(triangle(), [2, 0, 1]) == triangle()

    def test_path_reversal(self):
        p = Graph(3, [(0, 1), (1, 2)])
        assert permute(p, [2, 1, 0]) == p

    def test_degree_sequence_preserved(self):
        rng = random.Random(11)
        for _ in range(20):
            edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.5]
            g = Graph(6, edges)
            sigma = list(range(6))
            rng.shuffle(sigma)
            assert degree_sequence(permute(g, sigma)) == degree_sequence(g)

    def test_inverse_roundtrip(self):
        rng = random.Random(3)
        g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.4])
        sigma = list(range(7))
        rng.shuffle(sigma)
        inverse = [0] * len(sigma)
        for i, s in enumerate(sigma):
            inverse[s] = i
        assert permute(permute(g, sigma), inverse) == g

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            permute(triangle(), [0, 1])

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            permute(triangle(), [0, 1, 1])


class TestPermuteFeatured:
    def test_identity(self):
        fg = FeaturedGraph(Graph(2, [(0, 1)]), [[0.0], [1.0]])
        out = permute_featured(fg, [0, 1])
        assert np.array_equal(out.features, fg.features)

    def test_swap(self):
        fg = FeaturedGraph(Graph(2, [(0, 1)]), [[0.0], [1.0]])
        out = permute_featured(fg, [1, 0])
        assert np.array_equal(out.features, [[1.0], [0.0]])

    def test_rows_follow_vertices(self):
        rng = random.Random(5)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        feats = np.linspace(0, 1, 5).reshape(-1, 1)
        fg = FeaturedGraph(g, feats)
        sigma = [3, 0, 4, 1, 2]
        out = permute_featured(fg, sigma)
        for u in range(5):
            assert out.features[sigma[u], 0] == feats[u, 0]


class TestFeaturedGraphValidation:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FeaturedGraph(Graph(1, []), [[1.5]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FeaturedGraph(Graph(2, [(0, 1)]), [[bad], [0.5]])

    def test_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            FeaturedGraph(Graph(2, [(0, 1)]), [[0.5]])

    def test_unchecked_allows_weights_above_one(self):
        fg = FeaturedGraph.unchecked(Graph(1, []), [[2.0]])
        assert fg.features[0, 0] == 2.0

    @pytest.mark.parametrize("build", [FeaturedGraph, FeaturedGraph.unchecked])
    def test_caller_array_stays_writeable(self, build):
        # both constructors used to mark the caller's own array read-only
        feats = np.array([[0.5], [0.25]])
        fg = build(Graph(2, [(0, 1)]), feats)
        assert feats.flags.writeable and not fg.features.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            fg.features[0, 0] = 0.0

    def test_checked_features_are_a_private_copy(self):
        # a later write to the caller's array cannot get past the range check
        feats = np.array([[0.5], [0.25]])
        fg = FeaturedGraph(Graph(2, [(0, 1)]), feats)
        feats[0, 0] = 7.0
        assert fg.features[0, 0] == 0.5


class TestBipartite:
    def test_even_cycle(self):
        c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        assert is_bipartite(c6)
        coloring = bipartite_coloring(c6)
        for u, v in c6.edges():
            assert coloring[u] != coloring[v]

    def test_odd_cycle(self):
        assert not is_bipartite(triangle())

    def test_csl_skip_two_has_triangle(self):
        n = 41
        edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
        assert not is_bipartite(Graph(n, edges))

    def test_disconnected(self):
        g = disjoint_union(Graph(2, [(0, 1)]), triangle())
        assert not is_bipartite(g)


class TestDegreeSequence:
    def test_star(self):
        s3 = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert degree_sequence(s3) == [1, 1, 1, 3]

    def test_triangle(self):
        assert degree_sequence(triangle()) == [2, 2, 2]


class TestTwinReduce:
    def test_star_leaves_merge(self):
        s2 = Graph(3, [(0, 1), (0, 2)])
        fg = FeaturedGraph(s2, [[1.0], [1.0], [1.0]])
        out = twin_reduce(fg)
        assert out.graph.num_vertices == 2 and out.graph.num_edges == 1
        # center keeps weight 1, merged leaves carry 2
        assert sorted(out.features[:, 0]) == [1.0, 2.0]

    def test_triangle_unchanged(self):
        # adjacent vertices have u in N(v), so open neighborhoods differ
        fg = FeaturedGraph(triangle(), [[1.0]] * 3)
        out = twin_reduce(fg)
        assert out.graph == triangle()
        assert list(out.features[:, 0]) == [1.0, 1.0, 1.0]

    def test_zero_weight_vertex_removed(self):
        g = Graph(3, [(0, 1)])
        fg = FeaturedGraph(g, [[0.5], [0.5], [0.0]])
        out = twin_reduce(fg)
        assert out.graph.num_vertices == 2

    def test_multidimensional_rejected(self):
        fg = FeaturedGraph(Graph(1, []), [[0.5, 0.5]])
        with pytest.raises(ValueError, match="scalar"):
            twin_reduce(fg)

    def test_negative_weights_rejected(self):
        fg = FeaturedGraph.unchecked(Graph(1, []), [[-1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            twin_reduce(fg)

    def test_no_remaining_twins(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 6)
            base = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            g = Graph(n, base)
            # plant a twin: duplicate vertex 0's neighborhood onto a new vertex
            extra = [(n, v) for v in g.adjacency[0]]
            planted = Graph(n + 1, base + extra)
            weights = [[float(rng.randint(0, 3))] for _ in range(n + 1)]
            out = twin_reduce(FeaturedGraph.unchecked(planted, weights))
            nbhds = out.graph.adjacency
            assert len(set(nbhds)) == len(nbhds), "twins remain after reduction"
            assert (out.features[:, 0] > 0).all()


class TestTwinReduceOnePass:
    """`twin_reduce` against `reference_twin_reduce`, the pairwise loop it
    replaced: the same graph and the same weight bytes."""

    WEIGHTS = (0.0, 1e-300, 1e300, float("inf"), 0.1, 0.2, 0.3, 1 / 3, 0.5, 1.0, 2.0, 7.0)

    def _graph(self, rng):
        n = rng.randint(0, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        adjacency = [set() for _ in range(n)]
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        while len(adjacency) < 14 and rng.random() < 0.7:
            kind = rng.choice(["twin", "twin", "isolated", "near-twin"])
            new = len(adjacency)
            if kind == "isolated" or not adjacency:
                nbhd = set()
            else:
                # a twin of any vertex, planted twins included, so twins of twins occur;
                # a near-twin differs in one vertex, which a zero weight may then drop
                nbhd = set(adjacency[rng.randrange(new)])
                if kind == "near-twin":
                    nbhd ^= {rng.randrange(new)}
            adjacency.append(nbhd)
            for u in nbhd:
                adjacency[u].add(new)
        edges = [(u, v) for u in range(len(adjacency)) for v in adjacency[u] if u < v]
        return Graph(len(adjacency), edges)

    def test_matches_pairwise_contraction(self):
        rng = random.Random(27)
        sizes = set()
        for trial in range(1200):
            g = self._graph(rng)
            sizes.add(g.num_vertices)
            if rng.random() < 0.3:
                weights = [rng.choice(self.WEIGHTS) for _ in range(g.num_vertices)]
            else:
                weights = [rng.choice((0.0, rng.random())) for _ in range(g.num_vertices)]
            fg = FeaturedGraph.unchecked(g, np.reshape(weights, (-1, 1)))
            out, ref = twin_reduce(fg), reference_twin_reduce(fg)
            assert out.graph.adjacency == ref.graph.adjacency, (trial, g.adjacency, weights)
            assert out.features.shape == ref.features.shape
            assert out.features.tobytes() == ref.features.tobytes(), (trial, g.adjacency, weights)
        assert sizes == set(range(15))

    def test_negative_weight_beside_nan_rejected(self):
        # np.min of a column holding NaN is NaN, which hid the negative weight
        fg = FeaturedGraph.unchecked(Graph(2), [[float("nan")], [-1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            twin_reduce(fg)

    def test_builds_one_graph(self, monkeypatch):
        star = FeaturedGraph(Graph(301, [(0, v) for v in range(1, 301)]), [[1.0]] * 301)
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        out = twin_reduce(star)
        assert len(built) == 1
        assert out.graph.adjacency == ((1,), (0,))
        assert out.features[:, 0].tolist() == [1.0, 300.0]
