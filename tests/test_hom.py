import itertools
import random

import numpy as np
import pytest

from conftest import naive_hom, random_connected_graph, random_simple_graph
from homcount.graphs import FeaturedGraph, Graph, disjoint_union, is_bipartite, permute
from homcount.hom import (
    PhiFunction,
    hom,
    hom_brute,
    hom_cycle,
    hom_density,
    hom_tree,
    hom_treedec,
    hom_vector,
    hom_weighted_density,
)
from homcount.patterns import (
    custom_pattern,
    cycle_graph,
    enumerate_cycles,
    enumerate_trees,
    nice_decomposition,
    path_graph,
    star_graph,
)


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


EDGE = Graph(2, [(0, 1)])


class TestBruteForce:
    def test_edge_into_triangle(self):
        assert hom_brute(EDGE, k(3)).value == 6  # 2|E|

    def test_triangle_into_triangle(self):
        # frozen from the map-enumeration oracle over all 27 maps
        assert naive_hom(cycle_graph(3), k(3)) == 6
        assert hom_brute(cycle_graph(3), k(3)).value == 6

    def test_p3_into_triangle(self):
        assert hom_brute(path_graph(3), k(3)).value == 12

    def test_matches_naive_oracle(self):
        rng = random.Random(101)
        for _ in range(40):
            f = random_simple_graph(rng, rng.randint(1, 4), 0.6)
            g = random_simple_graph(rng, rng.randint(1, 5), 0.5)
            assert hom_brute(f, g).value == naive_hom(f, g)

    def test_weighted_matches_naive_oracle(self):
        rng = random.Random(103)
        for _ in range(25):
            f = random_simple_graph(rng, rng.randint(1, 3), 0.6)
            g = random_simple_graph(rng, rng.randint(1, 5), 0.5)
            w = [float(rng.randint(0, 3)) for _ in range(g.num_vertices)]
            got = hom_brute(f, g, weights=w).value
            assert got == naive_hom(f, g, weights=w)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            hom_brute(path_graph(12), k(10))

    def test_empty_target(self):
        assert hom_brute(EDGE, Graph(0, [])).value == 0


class TestTreeAlgorithm:
    def test_edge_counts_twice_edges(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_simple_graph(rng, 8, 0.4)
            assert hom_tree(EDGE, g).value == 2 * g.num_edges

    def test_star_equals_degree_powers(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_simple_graph(rng, 7, 0.5)
            for kk in (1, 2, 3, 4):
                expected = sum(g.degree(v) ** kk for v in range(7))
                assert hom_tree(star_graph(kk), g).value == expected

    def test_p4_into_c6(self):
        expected = hom_brute(path_graph(4), cycle_graph(6)).value
        assert hom_tree(path_graph(4), cycle_graph(6)).value == expected

    def test_matches_brute_on_catalog(self):
        rng = random.Random(13)
        for pat in enumerate_trees(5):
            for _ in range(5):
                g = random_simple_graph(rng, rng.randint(1, 6), 0.5)
                assert hom_tree(pat.graph, g).value == hom_brute(pat.graph, g).value

    def test_root_independent(self):
        # relabeling moves the implicit DP root; the count must not change
        rng = random.Random(15)
        for pat in enumerate_trees(6)[-4:]:
            g = random_simple_graph(rng, 6, 0.5)
            sigma = list(range(pat.size))
            rng.shuffle(sigma)
            relabeled = Graph(pat.size, [(sigma[u], sigma[v]) for u, v in pat.graph.edges()])
            assert hom_tree(relabeled, g).value == hom_tree(pat.graph, g).value

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            hom_tree(cycle_graph(4), k(3))

    def test_deep_path_no_recursion_limit(self):
        deep = path_graph(1500)
        target = path_graph(3)
        assert hom_tree(deep, target).value > 0


class TestCycleAlgorithm:
    def test_matches_brute(self):
        rng = random.Random(19)
        for kk in (3, 4, 5):
            for _ in range(6):
                g = random_simple_graph(rng, rng.randint(1, 6), 0.5)
                assert hom_cycle(kk, g).value == hom_brute(cycle_graph(kk), g).value

    def test_odd_cycles_vanish_on_bipartite(self):
        rng = random.Random(21)
        for _ in range(10):
            g = random_simple_graph(rng, 9, 0.3)
            if not is_bipartite(g):
                continue
            for kk in (3, 5, 7, 9):
                assert hom_cycle(kk, g).value == 0

    def test_bipartite_iff_odd_traces_vanish(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_simple_graph(rng, rng.randint(2, 9), 0.3)
            odd_zero = all(hom_cycle(kk, g).value == 0 for kk in (3, 5, 7, 9))
            assert odd_zero == is_bipartite(g)

    def test_length_two_is_edge_surrogate(self):
        rng = random.Random(23)
        g = random_simple_graph(rng, 8, 0.4)
        assert hom_cycle(2, g).value == 2 * g.num_edges

    def test_length_guard(self):
        with pytest.raises(ValueError):
            hom_cycle(1, k(3))

    @pytest.mark.parametrize("n, length", [(101, 10), (60, 11)])
    def test_trace_sum_beyond_int64_is_exact(self, n, length):
        # Closed walks in K_n: (n-1)^k + (n-1)(-1)^k, past 2**63 for these sizes.
        expected = (n - 1) ** length + (n - 1) * (-1) ** length
        assert expected >= 1 << 63
        hv = hom_cycle(length, k(n))
        assert hv.mode == "exact" and hv.value == expected

    def test_promotion_beyond_128_bits(self):
        hv = hom_cycle(40, k(20))
        assert hv.mode == "real" and hv.promoted
        assert hv.value > 0


class TestTreewidthAlgorithm:
    def test_c4_into_k4(self):
        pat = custom_pattern(cycle_graph(4))
        td = nice_decomposition(pat)
        assert hom_treedec(pat.graph, td, k(4)).value == hom_brute(pat.graph, k(4)).value

    def test_trees_agree_with_tree_dp(self):
        rng = random.Random(27)
        for pat in enumerate_trees(5):
            td = nice_decomposition(pat)
            g = random_simple_graph(rng, 6, 0.5)
            assert hom_treedec(pat.graph, td, g).value == hom_tree(pat.graph, g).value

    def test_edge_into_edgeless(self):
        pat = custom_pattern(EDGE)
        td = nice_decomposition(pat)
        assert hom_treedec(pat.graph, td, Graph(4, [])).value == 0

    def test_dense_patterns_against_brute(self):
        rng = random.Random(29)
        for _ in range(20):
            f = random_connected_graph(rng, rng.randint(2, 5), 0.7)
            pat = custom_pattern(f)
            td = nice_decomposition(pat)
            g = random_simple_graph(rng, rng.randint(1, 6), 0.5)
            assert hom_treedec(f, td, g).value == hom_brute(f, g).value

    def test_weighted_against_brute(self):
        rng = random.Random(31)
        for _ in range(15):
            f = random_connected_graph(rng, rng.randint(2, 4), 0.7)
            pat = custom_pattern(f)
            td = nice_decomposition(pat)
            g = random_simple_graph(rng, 5, 0.5)
            w = [float(rng.randint(0, 2)) for _ in range(5)]
            assert hom_treedec(f, td, g, weights=w).value == hom_brute(f, g, weights=w).value

    def test_mismatched_decomposition_rejected(self):
        td = nice_decomposition(custom_pattern(cycle_graph(4)))
        with pytest.raises(ValueError):
            hom_treedec(cycle_graph(5), td, k(3))


class TestDensities:
    def test_edge_into_complete(self):
        for n in range(2, 7):
            assert hom_density(EDGE, k(n)) == pytest.approx((n - 1) / n)

    def test_triangle_into_c6(self):
        assert hom_density(cycle_graph(3), cycle_graph(6)) == 0.0

    def test_bounds(self):
        rng = random.Random(37)
        pats = enumerate_trees(4) + enumerate_cycles(5)
        for _ in range(15):
            g = random_simple_graph(rng, rng.randint(1, 6), 0.5)
            for p in pats:
                d = hom_density(p, g)
                assert 0.0 <= d <= 1.0

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            hom_density(EDGE, Graph(0, []))


class TestWeightedDensity:
    def test_uniform_weights_cancel(self):
        g = k(3)
        a = hom_weighted_density(EDGE, FeaturedGraph.unchecked(g, [[1.0]] * 3))
        b = hom_weighted_density(EDGE, FeaturedGraph.unchecked(g, [[5.0]] * 3))
        assert a == pytest.approx(b, rel=1e-12)

    def test_equal_weights_recover_density(self):
        rng = random.Random(41)
        g = random_simple_graph(rng, 6, 0.5)
        fg = FeaturedGraph.unchecked(g, [[1.0]] * 6)
        for pat in enumerate_trees(4):
            assert hom_weighted_density(pat, fg) == pytest.approx(
                hom_density(pat, g), rel=1e-12
            )

    def test_zero_weight_endpoint(self):
        g = Graph(2, [(0, 1)])
        fg = FeaturedGraph(g, [[1.0], [0.0]])
        assert hom_weighted_density(EDGE, fg) == 0.0

    def test_zero_total_weight_rejected(self):
        fg = FeaturedGraph(Graph(1, []), [[0.0]])
        with pytest.raises(ValueError, match="positive"):
            hom_weighted_density(EDGE, fg)


class TestUnitWeightReduction:
    def test_constant_encoder_equals_unweighted(self):
        rng = random.Random(43)
        g = random_simple_graph(rng, 6, 0.5)
        fg = FeaturedGraph(g, np.full((6, 1), 1.0))
        identity = PhiFunction.affine((1.0,), 0.0)
        for pat in enumerate_trees(4):
            weighted = hom(pat, fg, phi=identity)
            plain = hom(pat, g)
            assert weighted.mode == "real"
            assert float(weighted) == float(plain)


class TestHomVector:
    def test_tree_catalog_on_triangle(self):
        vec = hom_vector(enumerate_trees(6), k(3))
        assert vec.shape == (13,)
        assert vec[0] == 6.0

    def test_odd_cycle_coordinates_vanish(self):
        c6 = cycle_graph(6)
        pats = enumerate_cycles(8)
        vec = hom_vector(pats, c6)
        for p, value in zip(pats, vec):
            if p.family == "cycle" and p.size % 2 == 1:
                assert value == 0.0

    def test_permutation_invariance_exact(self):
        rng = random.Random(47)
        pats = enumerate_trees(6)
        for _ in range(5):
            g = random_simple_graph(rng, 7, 0.5)
            sigma = list(range(7))
            rng.shuffle(sigma)
            assert (hom_vector(pats, g) == hom_vector(pats, permute(g, sigma))).all()

    def test_density_flag(self):
        vec = hom_vector(enumerate_trees(4), k(3), density=True)
        assert (vec >= 0).all() and (vec <= 1).all()

    def test_empty_pattern_list(self):
        assert hom_vector([], k(3)).shape == (0,)


class TestDisjointUnionMultiplicativity:
    def test_product_identity(self):
        rng = random.Random(53)
        for _ in range(15):
            f1 = random_connected_graph(rng, rng.randint(2, 3), 0.7)
            f2 = random_connected_graph(rng, rng.randint(2, 3), 0.7)
            g = random_simple_graph(rng, rng.randint(1, 5), 0.5)
            lhs = hom_brute(disjoint_union(f1, f2), g).value
            assert lhs == hom_brute(f1, g).value * hom_brute(f2, g).value


class TestPhiFunction:
    def test_coordinate_out_of_range(self):
        phi = PhiFunction.coordinate(5)
        with pytest.raises(ValueError, match="coordinate"):
            phi(np.array([0.1, 0.2]))

    def test_affine(self):
        phi = PhiFunction.affine((2.0, 1.0), bias=0.5)
        assert phi(np.array([0.25, 0.5])) == pytest.approx(1.5)

    def test_affine_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PhiFunction.affine((1.0,))(np.array([0.1, 0.2]))

    def test_labels(self):
        assert PhiFunction.constant_one().label() == "1"
        assert PhiFunction.coordinate(2).label() == "x[2]"

    def test_non_finite_affine_rejected(self):
        phi = PhiFunction.affine((1e308,), bias=1e308)
        with pytest.raises(ValueError, match="finite"):
            phi(np.array([1e308]))
