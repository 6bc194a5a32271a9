import collections
import itertools
import math
import random
import sys
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_hom,
    random_connected_graph,
    random_simple_graph,
    reference_tree_dp,
    reference_treedec,
)
from homcount.datasets import DatasetBundle, load_paulus
from homcount.embedding import embed
from homcount.graphs import FeaturedGraph, Graph, disjoint_union, is_bipartite, permute
from homcount.hom import (
    EXACT_LIMIT,
    HomValue,
    PhiFunction,
    _as_float,
    _tree_dp,
    _treedec_dp,
    _widen,
    _walk_traces,
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
    Pattern,
    custom_pattern,
    cycle_graph,
    enumerate_cycles,
    enumerate_trees,
    nice_decomposition,
    path_graph,
    pattern_from_spec,
    star_graph,
)


def k(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


EDGE = Graph(2, [(0, 1)])


def rounding_message(rounded):
    return f"float64 rounded the exact counts of coordinates {rounded}"


def warned_hom_vector(patterns, g, rounded, **kwargs):
    """`hom_vector`'s row, asserting that it warns once, naming exactly the
    `rounded` coordinates, if there are any, and not at all otherwise."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vec = hom_vector(patterns, g, **kwargs)
    expected = [(RuntimeWarning, rounding_message(rounded))] if rounded else []
    assert [(w.category, str(w.message)) for w in caught] == expected
    return vec


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


@st.composite
def tree_patterns(draw):
    """A random tree of 1-8 vertices: each vertex after the first hangs from
    an earlier one, under a random relabelling."""
    n = draw(st.integers(1, 8))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    sigma = draw(st.permutations(range(n)))
    return Graph(n, [(sigma[v], sigma[p]) for v, p in enumerate(parents, start=1)])


@st.composite
def tree_targets(draw):
    """0-6 sparse graphs of 0-12 vertices (isolated vertices are common),
    each with one weight per vertex: both signs, and at scales where a
    pattern's products overflow to inf and mixed signs give NaN."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 12), max_size=6))
    graphs = [random_simple_graph(rng, n, draw(st.sampled_from([0.1, 0.3, 0.6]))) for n in sizes]
    scale = draw(st.sampled_from([1.0, 1e3, 1e40, 1e100, 1e300]))
    weights = [[draw(st.floats(-1.0, 1.0)) * scale for _ in range(g.num_vertices)] for g in graphs]
    return graphs, weights


class TestTreeDPMatchesReference:
    """The tree DP's array passes against `reference_tree_dp`, its scalar
    loops: exact counts equal as ints, weighted ones to the last bit."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(f=tree_patterns(), targets=tree_targets())
    def test_bits_match_the_scalar_loops(self, f, targets):
        graphs, weights = targets
        exact = _tree_dp(f, graphs, None)
        assert [type(c) for c in exact] == [int] * len(graphs)
        assert exact == reference_tree_dp(f, graphs)
        got = _tree_dp(f, graphs, weights)
        assert [type(c) for c in got] == [float] * len(graphs)
        want = reference_tree_dp(f, graphs, weights)
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        for g, w, total in zip(graphs, weights, got):
            if math.isfinite(total):
                assert hom_tree(f, g, w).value == total
            else:
                with pytest.raises(ValueError, match="exceeds the float64 range"):
                    hom_tree(f, g, w)

    @pytest.mark.parametrize("weights", [[1e200, 1e200], [1e200, -1e200]])
    def test_overflow_is_the_named_error(self, weights):
        # P3 into K2: inf, and with mixed signs -inf + inf = NaN at the root
        (total,) = _tree_dp(path_graph(3), [EDGE], [weights])
        assert not math.isfinite(total)
        with pytest.raises(ValueError, match="exceeds the float64 range"):
            hom_tree(path_graph(3), EDGE, weights)

    @pytest.mark.parametrize("spec, rung", [("star:10", np.float64), ("star:11", np.int64),
                                            ("star:12", object), ("star:13", object)])
    def test_exact_counts_on_every_rung(self, spec, rung):
        # star:N has N vertices and 40·39^(N-1) maps into K40, which is also
        # the bound n·Δ^(N-1): star:10 (53 bits) stays float64, star:11 (59
        # bits) runs int64, and star:12 and star:13 (64 and 69 bits, past
        # int64; star:13 gives 495262306223057004840) run on Python ints
        f = pattern_from_spec(spec).graph
        rungs = []

        def spy(x, bound):
            x = _widen(x, bound)
            rungs.append(x.dtype)
            return x

        with unittest.mock.patch("homcount.hom._widen", spy):
            (got,) = _tree_dp(f, [k(40)], None)
        assert rungs == [np.dtype(rung)]
        assert type(got) is int and got == 40 * 39 ** (f.num_vertices - 1)
        assert [got] == reference_tree_dp(f, [k(40)])

    def test_empty_bundle(self):
        assert _tree_dp(path_graph(3), [], None) == [] == _tree_dp(path_graph(3), [], [])
        m = embed(DatasetBundle("E", [], []), "trees:4")
        assert m.values.shape == (0, 4) and len(m.column_meta) == 4


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

    @pytest.mark.parametrize("n, length", [(101, 10), (60, 11), (20, 20)])
    def test_trace_sum_beyond_int64_is_exact(self, n, length):
        # Closed walks in K_n: (n-1)^k + (n-1)(-1)^k, past 2**63 for these sizes.
        # Every power stays int64 for the first two; K_20's chain switches to
        # Python ints at A^16.
        def closed_walks(kk):
            return (n - 1) ** kk + (n - 1) * (-1) ** kk

        assert closed_walks(length) >= 1 << 63
        hv = hom_cycle(length, k(n))
        assert hv.mode == "exact" and hv.value == closed_walks(length)
        # The edge and C3..C_length share one chain of powers.
        counts = [closed_walks(kk) for kk in range(2, length + 1)]
        rounded = [i for i, count in enumerate(counts) if float(count) != count]
        assert rounded
        vec = warned_hom_vector(enumerate_cycles(length), k(n), rounded)
        assert vec.tolist() == [float(count) for count in counts]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_traces_across_the_int64_switch(self, data):
        # Dense graphs and lengths whose chain of powers passes the int64
        # bound test, max(A^j) * max degree >= 2**62, before A^length.
        n = data.draw(st.integers(8, 12), label="n")
        pairs = list(itertools.combinations(range(n), 2))
        missing = data.draw(st.sets(st.sampled_from(pairs), max_size=n), label="missing edges")
        g = Graph(n, [e for e in pairs if e not in missing])
        a = [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)]
        degree = max(1, max(map(sum, a)))
        powers = [[[int(u == v) for v in range(n)] for u in range(n)], a]  # A^0, A^1: Python ints

        def extend(j):
            while len(powers) <= j:
                powers.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
                               for row in powers[-1]])
            return powers[j]

        switch = next(j for j in range(1, 40) if max(map(max, extend(j))) * degree >= 1 << 62)
        length = data.draw(st.integers(switch + 1, 40), label="length")
        traces = [sum(extend(j)[i][i] for i in range(n)) for j in range(length + 1)]
        hv = hom_cycle(length, g)
        if traces[length] < EXACT_LIMIT:
            assert hv.mode == "exact" and hv.value == traces[length]
        else:
            assert hv.promoted and hv.value == float(traces[length])
        rounded = [i for i, t in enumerate(traces[2:]) if float(t) != t]
        vec = warned_hom_vector(enumerate_cycles(length), g, rounded)
        assert vec.tolist() == [float(t) for t in traces[2:]]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_traces_across_the_float64_switch(self, data):
        # Dense graphs and lengths past the first power whose product bound,
        # max(A^j) * max degree, reaches 2**53, up to the first that reaches
        # 2**62. The half chain stops at A^ceil(length/2) and its inner
        # products cross the rungs sooner; `TestWalkTraceLists` pins those.
        n = data.draw(st.integers(8, 12), label="n")
        pairs = list(itertools.combinations(range(n), 2))
        missing = data.draw(st.sets(st.sampled_from(pairs), max_size=n), label="missing edges")
        g = Graph(n, [e for e in pairs if e not in missing])
        a = [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)]
        degree = max(1, max(map(sum, a)))
        powers = [[[int(u == v) for v in range(n)] for u in range(n)], a]  # A^0, A^1: Python ints

        def extend(j):
            while len(powers) <= j:
                powers.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
                               for row in powers[-1]])
            return powers[j]

        def switch(bound):
            return next(j for j in range(1, 40) if max(map(max, extend(j))) * degree >= bound)

        length = data.draw(st.integers(switch(1 << 53) + 1, switch(1 << 62)), label="length")
        traces = [sum(extend(j)[i][i] for i in range(n)) for j in range(length + 1)]
        assert _walk_traces([g], length) == [traces]
        hv = hom_cycle(length, g)
        assert hv.mode == "exact" and hv.value == traces[length]

    @pytest.mark.parametrize("n", [9, 30])
    @pytest.mark.parametrize("rungs", [0, 1, 2])
    def test_complete_graph_chains_on_each_rung(self, n, rungs):
        # Lengths s53, s62 and s62 + 1, where s53 and s62 are the first
        # powers whose product bound max(A^j) * (n - 1) reaches 2**53 and
        # 2**62: K_n's traces at these lengths lie near or past each rung.
        def closed_walks(kk):
            return (n - 1) ** kk + (n - 1) * (-1) ** kk

        def max_entry(j):  # diagonal and off-diagonal entries of A^j
            return max(closed_walks(j) // n, ((n - 1) ** j - (-1) ** j) // n)

        def switch(bound):
            return next(j for j in range(1, 80) if max_entry(j) * (n - 1) >= bound)

        length = [switch(1 << 53), switch(1 << 62), switch(1 << 62) + 1][rungs]
        assert _walk_traces([k(n)], length) == [[closed_walks(kk) for kk in range(length + 1)]]

    @pytest.mark.parametrize("n", [0, 1])
    def test_cycles_on_tiny_targets(self, n):
        assert _walk_traces([Graph(n)], 8) == [[n] + [0] * 8]
        assert hom_vector(enumerate_cycles(8), Graph(n)).tolist() == [0.0] * 7
        assert all(hom_cycle(kk, Graph(n)) == HomValue(0, "exact") for kk in range(2, 9))

    def test_promotion_beyond_128_bits(self):
        hv = hom_cycle(40, k(20))
        assert hv.mode == "real" and hv.promoted
        assert hv.value > 0

    def test_hom_vector_names_rounded_coordinates(self):
        # hom(C40, K20) = 19**40 + 19 is past 2**53 and rounds; C3 and C4 fit
        c3, c4, c40 = (Pattern(cycle_graph(n), "cycle", n, f"c{n}") for n in (3, 4, 40))
        counts = [19**3 - 19, 19**40 + 19, 19**4 + 19]
        assert float(counts[1]) != counts[1]
        vec = warned_hom_vector([c3, c40, c4], k(20), [1])
        assert vec.tolist() == [float(count) for count in counts]
        vec = warned_hom_vector([c3, c4], k(20), [])
        assert vec.tolist() == [float(counts[0]), float(counts[2])]

    def test_counts_past_the_float64_range_raise(self):
        # hom(C256, K17) = 16**256 + 16 >= 2**1024, past the largest double
        c256 = Pattern(cycle_graph(256), "cycle", 256, "c256")
        bundle = DatasetBundle("k17", [k(17)], [0])
        for count in (
            lambda: hom_cycle(256, k(17)),
            lambda: hom(c256, k(17)),
            lambda: hom_vector([c256], k(17)),
            lambda: embed(bundle, [c256]),
        ):
            with pytest.raises(ValueError, match="exceeds the float64 range"):
                count()

    def test_weighted_overflow_raises(self):
        # every weighted walk of P257 into K17 weighs 1.0: 17 * 16**256 > 2**1024
        fg = FeaturedGraph(k(17), np.ones((17, 1)))
        with pytest.raises(ValueError, match="exceeds the float64 range"):
            hom(path_graph(257), fg, phi=PhiFunction.coordinate(0))
        with pytest.raises(ValueError, match="exceeds the float64 range"):
            hom_vector([path_graph(257)], fg, phi=PhiFunction.coordinate(0))

    def test_float64_range_edge(self):
        # the least int that float() rounds to 2**1024 is 2**1024 - 2**970
        edge = (1 << 1024) - (1 << 970)
        assert _as_float(edge - 1) == sys.float_info.max
        for total in (edge, 1 << 1024, float("inf"), -float("inf"), float("nan")):
            with pytest.raises(ValueError, match="exceeds the float64 range"):
                _as_float(total)


def closed_walks(g: Graph, length: int) -> list[int]:
    """tr(A^0), ..., tr(A^length) of g from Python-int matrix powers."""
    n = g.num_vertices
    a = [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)]
    power = [[int(u == v) for v in range(n)] for u in range(n)]
    traces = []
    for _ in range(length + 1):
        traces.append(sum(power[i][i] for i in range(n)))
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
    return traces


@st.composite
def walk_targets(draw, sizes=st.integers(0, 10), shapes=("edgeless", "random", "dense")):
    """Graphs on `sizes` vertices: edgeless, random, or complete but for at
    most two edges."""
    n = draw(sizes, label="n")
    pairs = list(itertools.combinations(range(n), 2))
    shape = draw(st.sampled_from(shapes), label="shape")
    if shape == "edgeless" or not pairs:
        return Graph(n)
    if shape == "dense":
        missing = draw(st.sets(st.sampled_from(pairs), max_size=2), label="missing edges")
        return Graph(n, [e for e in pairs if e not in missing])
    mask = draw(st.integers(0, (1 << len(pairs)) - 1), label="edge mask")
    return Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


class TestWalkTraceLists:
    """`_walk_traces` over a list of graphs, stacked by vertex count and cut
    under `_STACK_BYTES`, equals each graph's own closed-walk counts."""

    hom_module = sys.modules["homcount.hom"]  # `homcount.hom` is the function

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_lists_equal_per_graph_closed_walks(self, data):
        # Every list holds n = 0, n = 1, an edgeless graph and two dense ones
        # on 8-10 vertices, among up to eight more graphs, in drawn order.
        # Their inner products pass 2**53 from length 17-19 and 2**62 from
        # 20-22; their products P·A pass 2**53 from length 34-38.
        dense = walk_targets(st.integers(8, 10), ("dense",))
        graphs = [Graph(0), Graph(1), Graph(data.draw(st.integers(2, 10), label="edgeless n")),
                  data.draw(dense, label="dense"), data.draw(dense, label="dense"),
                  *data.draw(st.lists(walk_targets(), max_size=8), label="graphs")]
        graphs = data.draw(st.permutations(graphs), label="order")
        length = data.draw(st.integers(17, 64) | st.integers(1, 30), label="length")
        # cap 1 stacks each graph alone; 800 bytes holds one 10-vertex graph
        # or four 5-vertex ones; 128 KB holds every list drawn here
        cap = data.draw(st.sampled_from([1, 800, 1 << 17]), label="cap")
        with unittest.mock.patch.object(self.hom_module, "_STACK_BYTES", cap):
            got = _walk_traces(graphs, length)
        assert got == [closed_walks(g, length) for g in graphs]
        assert all(type(t) is int for walks in got for t in walks)

    def test_one_list_reaches_every_rung(self, monkeypatch):
        # At length 20, the 8-cycle's stack stays in float64, K9's inner
        # products pass 2**53 but not 2**62 (about 2**60), and K11's pass
        # 2**62 (about 2**66). Edgeless and tiny graphs ride along.
        seen = set()
        widen = self.hom_module._widen

        def recording(x, bound):
            out = widen(x, bound)
            seen.add(out.dtype)
            return out

        monkeypatch.setattr(self.hom_module, "_widen", recording)
        graphs = [Graph(0), k(9), Graph(1), cycle_graph(8), Graph(7), k(11), cycle_graph(8)]
        assert _walk_traces(graphs, 20) == [closed_walks(g, 20) for g in graphs]
        assert seen == {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}

    @pytest.mark.parametrize("length, products", [(1, 0), (2, 0), (3, 1), (8, 3), (32, 15)])
    def test_half_chain_products(self, length, products, monkeypatch):
        # tr(A^(2j)) = <A^j, A^j> and tr(A^(2j+1)) = <A^j, A^(j+1)>: the chain
        # stops at A^ceil(k/2), one product per power past A
        calls = []
        widen = self.hom_module._widen
        monkeypatch.setattr(self.hom_module, "_widen",
                            lambda x, bound: calls.append(x.shape) or widen(x, bound))
        graphs = [cycle_graph(6), k(6)]  # one stack
        assert _walk_traces(graphs, length) == [closed_walks(g, length) for g in graphs]
        inner_products = max(length - 1, 0)
        assert len(calls) == 2 * inner_products + 2 * products  # two operands each


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

    def test_real_weights_against_brute(self):
        # Weights uniform in [-1, 2] make every sum inexact, so the two
        # engines agree only up to rounding: within 1e-12 of the count under
        # the absolute weights, which bounds the sum of the terms' sizes.
        rng = random.Random(41)
        for trial in range(24):
            if trial % 2:
                a = rng.randint(1, 4)
                f = disjoint_union(random_connected_graph(rng, a, 0.6),
                                   random_connected_graph(rng, rng.randint(1, 6 - a), 0.6))
            else:
                f = random_connected_graph(rng, rng.randint(2, 6), 0.6)
            td = nice_decomposition(custom_pattern(f))
            g = random_simple_graph(rng, rng.randint(4, 7), 0.5)
            w = [rng.uniform(-1.0, 2.0) for _ in range(g.num_vertices)]
            got = hom_treedec(f, td, g, weights=w).value
            scale = hom_brute(f, g, weights=[abs(x) for x in w]).value
            assert abs(got - hom_brute(f, g, weights=w).value) <= 1e-12 * scale, f

    def test_mismatched_decomposition_rejected(self):
        td = nice_decomposition(custom_pattern(cycle_graph(4)))
        with pytest.raises(ValueError):
            hom_treedec(cycle_graph(5), td, k(3))


# K4 (treewidth 3), three patterns whose decompositions hold a join node,
# disconnected patterns (each component starts at an introduce node with no
# bag neighbour), and the cycles C3..C8.
NON_TREES = {
    "K4": k(4),
    "diamond": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "bowtie": Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    "banner": Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4)]),
}
DISCONNECTED = {
    "K1+C4": disjoint_union(Graph(1), cycle_graph(4)),
    "P2+C3": disjoint_union(path_graph(2), cycle_graph(3)),
    "C3+C3": disjoint_union(cycle_graph(3), cycle_graph(3)),
    "diamond+P2": disjoint_union(NON_TREES["diamond"], path_graph(2)),
}
DP_PATTERNS = {**NON_TREES, **DISCONNECTED, **{f"C{n}": cycle_graph(n) for n in range(3, 9)}}


@st.composite
def two_feature_targets(draw):
    """A graph on 0-8 vertices with two feature columns: a 0/1 label
    column, as one-hot labels give, and a real one in [0, 1]."""
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    reals = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    x = np.array([labels, reals]).T.reshape(n, 2)
    return FeaturedGraph(Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1]), x)


class TestDecompositionDPMatchesReference:
    """The decomposition DP against `reference_treedec`, its full-scan
    form: exact counts equal as ints, weighted ones to the last bit."""

    def test_the_patterns_cover_joins_and_loose_introduces(self):
        for name in ("diamond", "bowtie", "banner"):
            assert "join" in nice_decomposition(custom_pattern(NON_TREES[name])).node_kind
        for f in DISCONNECTED.values():
            td = nice_decomposition(custom_pattern(f))
            loose = 0
            for t, kind in enumerate(td.node_kind):
                if kind == "introduce":
                    below = td.bags[td.children[t][0]]
                    (v,) = td.bags[t] - below
                    loose += not any(u in below for u in f.adjacency[v])
            assert loose >= 2  # one per component at least

    @pytest.mark.parametrize("name", list(DP_PATTERNS))
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(target=two_feature_targets(), coef=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
    def test_bits_match_the_full_scan(self, name, target, coef):
        f = DP_PATTERNS[name]
        td = nice_decomposition(custom_pattern(f))
        g = target.graph
        (exact,) = _treedec_dp(f, td, [g], None)
        assert type(exact) is int and exact == reference_treedec(f, td, g)
        for phi in (PhiFunction.coordinate(0), PhiFunction.coordinate(1),
                    PhiFunction.affine(coef[:2], coef[2])):
            weights = [phi(row) for row in target.features]
            (got,) = _treedec_dp(f, td, [g], [weights])
            assert got.hex() == reference_treedec(f, td, g, weights).hex(), phi.label()


class TestCompleteBipartite:
    def test_one_side_of_one_is_the_star_closed_form(self):
        rng = random.Random(59)
        for _ in range(8):
            g = random_simple_graph(rng, rng.randint(1, 9), 0.5)
            for b in range(1, 6):
                want = sum(g.degree(v) ** b for v in range(g.num_vertices))
                assert hom(pattern_from_spec(f"kbip:1,{b}"), g).value == want

    @pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
    def test_small_cases_against_brute(self, a, b):
        rng = random.Random(61 + 10 * a + b)
        f = pattern_from_spec(f"kbip:{a},{b}")
        for _ in range(4):
            g = random_simple_graph(rng, rng.randint(1, 7), 0.6)
            assert hom(f, g).value == hom_brute(f.graph, g).value


class TestPatternsPastTheExactGuard:
    # Above 20 vertices, past `treewidth_exact`'s guard, the decomposition
    # comes from a greedy minimum-degree order; each of these raised before.
    def test_weighted_long_cycles_are_traces(self):
        rng = random.Random(67)
        g = random_connected_graph(rng, 7, 0.5)
        x = np.array([[rng.choice([0.25, 0.5, 0.75, 1.0])] for _ in range(7)])
        a = g.adjacency_matrix().astype(np.float64) * x[:, 0]  # A D
        for kk in (21, 25):
            want = np.trace(np.linalg.matrix_power(a, kk))
            got = hom(cycle_graph(kk), FeaturedGraph(g, x), phi=PhiFunction.coordinate(0)).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_kbip_two_twenty_counts_common_neighbourhoods(self):
        rng = random.Random(71)
        f = pattern_from_spec("kbip:2,20")
        for _ in range(3):
            g = random_simple_graph(rng, rng.randint(1, 7), 0.6)
            nbrs = [set(a) for a in g.adjacency]
            want = sum(len(nu & nv) ** 20 for nu in nbrs for nv in nbrs)
            assert hom(f, g).value == want

    def test_edgeless_pattern_counts_every_map(self):
        for n in (0, 1, 3):
            assert hom(Graph(21, []), k(n)).value == n**21


class TestIndistinguishabilityDependsOnTreewidth:
    def test_kbip_three_three_separates_the_paulus_classes(self):
        # Counts of all patterns of treewidth <= k pin a graph down to k-WL
        # equivalence (Dvorak; Dell, Grohe and Rattan). The Paulus graphs are
        # strongly regular with equal parameters, so 2-WL cannot tell them
        # apart: trees (width 1) and cycles (width 2) give one row for all
        # 14 classes, while K3,3 (width 3) gives 14 distinct counts.
        bundle = load_paulus(copies_per_class=1, seed=0)
        assert sorted(bundle.labels) == list(range(14))
        for family in ("trees:6", "cycles:8"):
            rows = embed(bundle, family).values
            assert (rows == rows[0]).all(), family
        k33 = pattern_from_spec("kbip:3,3")
        assert len({hom(k33, g).value for g in bundle.graphs}) == 14


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

    DENSITY_ROUTES = {
        "hom_density": lambda pats, g: [hom_density(p, g) for p in pats],
        "hom_vector": lambda pats, g: list(hom_vector(pats, g, density=True)),
        "embed": lambda pats, g: list(
            embed(DatasetBundle("one", [g], [0]), pats, density=True).values[0]
        ),
    }

    @pytest.mark.parametrize("route", sorted(DENSITY_ROUTES))
    def test_one_density_rule(self, route):
        pats = enumerate_trees(4) + enumerate_cycles(5)
        densities = self.DENSITY_ROUTES[route]
        with pytest.raises(ValueError, match="non-empty target"):
            densities(pats, Graph(0, []))
        g = random_simple_graph(random.Random(59), 6, 0.5)
        assert densities(pats, g) == self.DENSITY_ROUTES["hom_density"](pats, g)


    @pytest.mark.parametrize("route", sorted(DENSITY_ROUTES))
    def test_density_past_the_double_range(self, route):
        # n**length is past every double, the densities are not. Closed walks
        # on C_n: n times the +-1 step sequences whose sum is 0 mod n.
        for n, length in ((17, 300), (16, 300), (16, 301)):
            steps = range(length + 1)
            walks = n * sum(math.comb(length, t) for t in steps if (2 * t - length) % n == 0)
            expected = walks / n**length  # int / int rounds correctly
            pattern = custom_pattern(cycle_graph(length))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                [got] = self.DENSITY_ROUTES[route]([pattern], cycle_graph(n))
            # the densities come from the rounded counts, which hom_vector names
            rounds = route == "hom_vector" and float(walks) != walks
            assert [str(w.message) for w in caught] == [rounding_message([0])] * rounds
            assert got == pytest.approx(expected, rel=1e-12) and (got > 0) == (walks > 0)


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


PAW = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])  # neither a tree nor a cycle
ROW_PATTERNS = enumerate_trees(5) + enumerate_cycles(6) + [
    custom_pattern(PAW),
    custom_pattern(cycle_graph(4)),  # a cycle by its graph, not its label
]


@st.composite
def featured_targets(draw):
    """A graph on 0-7 vertices, isolated vertices allowed, with one feature
    column of dyadic weights, zeros included: every weighted sum is then
    exact in double precision, whatever the summation order."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    weights = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    return FeaturedGraph(Graph(n, edges), np.array(weights).reshape(n, 1))


class TestRowEngine:
    def test_cycle_recognized_by_structure_not_label(self):
        mislabeled = Pattern(cycle_graph(5), "cycle", 4, "x")
        assert hom(mislabeled, k(5)).value == hom_brute(cycle_graph(5), k(5)).value == 1020
        not_a_cycle = Pattern(k(4), "cycle", 4, "x")
        assert hom(not_a_cycle, k(5)).value == hom_brute(k(4), k(5)).value

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(target=featured_targets())
    def test_rows_match_brute_force(self, target):
        g = target.graph
        encoders = [PhiFunction.constant_one(), PhiFunction.coordinate(0)]
        # Bare graphs too: a cycle, the empty pattern and a disconnected one.
        row_catalog = ROW_PATTERNS + [
            cycle_graph(4),
            Graph(0),
            disjoint_union(path_graph(2), cycle_graph(3)),
        ]
        expected = {}
        for phi in encoders:
            weights = None if phi.kind == "constant_one" else list(target.features[:, 0])
            expected[phi] = [float(hom_brute(f, g, weights=weights)) for f in row_catalog]
            assert hom_vector(row_catalog, target, phi=phi).tolist() == expected[phi]
        bundle = DatasetBundle("one", [g], [0], [target.features])
        m = embed(bundle, ROW_PATTERNS, phi_set=encoders)
        cells = m.values[0].reshape(len(ROW_PATTERNS), len(encoders))
        for q, phi in enumerate(encoders):
            assert cells[:, q].tolist() == expected[phi][: len(ROW_PATTERNS)]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_weighted_cycles_are_traces(self, data):
        # hom_phi(C_k, G) = tr((A D)^k) with D = diag(phi(v)): each closed walk
        # of length k weighs the product of the k vertices it visits. The
        # tolerance is relative to the walks' absolute sum, tr((A |D|)^k):
        # under affine weights of both signs the trace itself can cancel.
        n = data.draw(st.integers(1, 7), label="n")
        pairs = list(itertools.combinations(range(n), 2))
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1), label="edge mask")
        unit = st.floats(0.0, 1.0)
        rows = data.draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n), label="x")
        x = np.array(rows)
        fg = FeaturedGraph(Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1]), x)
        coef = st.floats(-2.0, 2.0)
        affine = data.draw(st.tuples(coef, coef, coef), label="affine")
        a = fg.graph.adjacency_matrix().astype(np.float64)
        for phi in (PhiFunction.coordinate(0), PhiFunction.coordinate(1),
                    PhiFunction.affine(affine[:2], affine[2])):
            d = np.array([phi(row) for row in x])
            for kk in range(3, 9):
                want = np.trace(np.linalg.matrix_power(a * d, kk))  # a * d is A D
                scale = np.trace(np.linalg.matrix_power(a * np.abs(d), kk))
                got = hom(cycle_graph(kk), fg, phi=phi).value
                assert abs(got - want) <= 1e-9 * scale + 1e-300  # 1e-300: underflow

    def test_embed_classifies_the_catalog_once(self, monkeypatch):
        patterns = enumerate_cycles(6) + enumerate_trees(5) + [custom_pattern(k(4))]
        non_cycles = sum(1 for p in patterns if p.family != "cycle" or p.size < 3)
        hom_module = sys.modules["homcount.hom"]  # `homcount.hom` is the function
        calls = collections.Counter()
        for name in ("_is_cycle", "_is_tree", "validate_decomposition"):
            original = getattr(hom_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hom_module, name, counted)
        rng = random.Random(4)
        graphs = [random_connected_graph(rng, n, 0.5) for n in (5, 6, 7)]
        features = [np.eye(2)[[v % 2 for v in range(g.num_vertices)]] for g in graphs]
        m = embed(DatasetBundle("three", graphs, [0, 1, 0], features), patterns)
        assert m.values.shape == (3, 3 * len(patterns))
        # 9 rows, yet one classification per pattern and no re-validation
        assert calls == {"_is_cycle": len(patterns), "_is_tree": non_cycles}


    def test_pattern_side_work_happens_once_per_column(self, monkeypatch):
        # K4 under both encoders and the cycle under the coordinate one run
        # the decomposition DP; the tree runs the tree DP under both
        patterns = [custom_pattern(k(4)), custom_pattern(cycle_graph(5)),
                    custom_pattern(star_graph(3))]
        hom_module = sys.modules["homcount.hom"]  # `homcount.hom` is the function
        calls = collections.Counter()
        for name in ("nice_decomposition", "rooted_order"):
            original = getattr(hom_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hom_module, name, counted)
        rng = random.Random(6)
        encoders = [PhiFunction.constant_one(), PhiFunction.coordinate(1)]
        for size in (3, 7):
            calls.clear()
            graphs = [random_connected_graph(rng, rng.randint(4, 7), 0.5) for _ in range(size)]
            features = [np.eye(2)[[v % 2 for v in range(g.num_vertices)]] for g in graphs]
            bundle = DatasetBundle("bundle", graphs, [i % 2 for i in range(size)], features)
            m = embed(bundle, patterns, phi_set=encoders)
            assert m.values.shape == (size, 6)
            assert calls["nice_decomposition"] <= 3 and calls["rooted_order"] <= 2, (size, calls)


class TestWeightLength:
    @pytest.mark.parametrize("kernel", ["brute", "tree", "treedec"])
    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 5.0]], ids=["short", "long"])
    def test_wrong_length_is_refused(self, kernel, weights):
        def count(f, w):
            if kernel == "treedec":
                return hom_treedec(f, nice_decomposition(custom_pattern(f)), EDGE, w)
            return (hom_brute if kernel == "brute" else hom_tree)(f, EDGE, weights=w)

        for f in (path_graph(2), Graph(1)):
            want = hom_brute(f, EDGE).value
            assert count(f, [1.0, 1.0]).value == count(f, np.ones(2)).value == want
            with pytest.raises(ValueError, match=f"{len(weights)} weights for a target of 2 v"):
                count(f, weights)


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
        # -1 used to read the last column, and -3 raised a bare IndexError
        for index in (5, 2, -1, -3):
            phi = PhiFunction.coordinate(index)
            with pytest.raises(ValueError, match=f"coordinate {index} out of range"):
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the named error alone, no overflow warning
            with pytest.raises(ValueError, match="finite"):
                phi(np.array([1e308]))
