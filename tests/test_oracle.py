import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import insetedge.oracle
from insetedge import (
    SimpleGraph,
    Tree,
    delta_oracle,
    parse_tree,
    random_labeled_tree,
    serialize_tree,
    tree_plus_edge,
    wiener_brute,
    wiener_tree_linear,
)
from insetedge.errors import AdjacentPair, Disconnected, IdOutOfRange, SameVertex

from conftest import graph_from_edges, path_tree, star_tree


def floyd_warshall_sum(graph):
    """Sum of all-pairs distances over unordered pairs, by Floyd-Warshall."""
    n = graph.n
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, nbrs in enumerate(graph.adjacency):
        for w in nbrs:
            d[u][w] = 1
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][m] + d[m][j] < d[i][j]:
                    d[i][j] = d[i][m] + d[m][j]
    return sum(d[i][j] for i in range(n) for j in range(i + 1, n))


@st.composite
def connected_graphs(draw):
    """A random spanning tree on up to 16 vertices, relabeled, plus extra
    edges: connected, and with several cycles once n is large enough."""
    n = draw(st.integers(1, 16))
    label = draw(st.permutations(range(n)))
    edges = {
        tuple(sorted((label[v], label[draw(st.integers(0, v - 1))]))) for v in range(1, n)
    }
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, min_size=2, max_size=3 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, sorted(edges))


class TestWienerBrute:
    def test_p2(self):
        assert wiener_brute(SimpleGraph.from_tree(path_tree(2))) == 1

    def test_s5(self):
        assert wiener_brute(SimpleGraph.from_tree(star_tree(5))) == 16

    def test_c4(self):
        c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert wiener_brute(c4) == 8

    @pytest.mark.parametrize("edges, bad", [([(0, 1), (1, -1)], (1, -1)), ([(0, 1), (3, 1)], (3, 1))])
    def test_bad_id(self, edges, bad):
        # a negative id used to wrap to vertex n - 1, and one >= n raised IndexError
        with pytest.raises(IdOutOfRange) as exc:
            graph_from_edges(3, edges)
        assert str(exc.value) == f"edge {bad} with n=3"

    def test_disconnected(self):
        # in the second graph the BFS from 0 reaches every vertex but the last
        for n, edges in ((4, [(0, 1), (2, 3)]), (6, [(0, 1), (1, 2), (2, 3), (3, 4)])):
            with pytest.raises(Disconnected):
                wiener_brute(graph_from_edges(n, edges))

    @pytest.mark.parametrize("n, seed", [(5, 0), (8, 1), (10, 2), (12, 3)])
    def test_tree_plus_edge_matches_floyd_warshall(self, n, seed):
        t = random_labeled_tree(n, seed)
        for u, v in non_adjacent_pairs(t):
            g = tree_plus_edge(t, u, v)
            assert wiener_brute(g) == floyd_warshall_sum(g)

    @given(graph=connected_graphs())
    @settings(max_examples=150, deadline=None)
    def test_graphs_with_cycles_match_floyd_warshall(self, graph):
        assert wiener_brute(graph) == floyd_warshall_sum(graph)

    def test_one_vertex(self):
        assert wiener_brute(graph_from_edges(1, [])) == 0

    def test_path_minus_any_edge_is_disconnected(self):
        for n in range(2, 10):
            edges = [(i, i + 1) for i in range(n - 1)]
            for cut in range(n - 1):
                graph = graph_from_edges(n, edges[:cut] + edges[cut + 1 :])
                with pytest.raises(Disconnected, match="unreachable from 0$"):
                    wiener_brute(graph)


class TestWienerLinear:
    def test_fixed(self, p4, s5, p7):
        assert wiener_tree_linear(p4) == 10
        assert wiener_tree_linear(s5) == 16
        assert wiener_tree_linear(p7) == 56

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute(self, n, seed):
        t = random_labeled_tree(n, seed)
        assert wiener_tree_linear(t) == wiener_brute(SimpleGraph.from_tree(t))

    def test_path_closed_form(self):
        # Wiener of the n-path is (n^3 - n) / 6
        for n in range(2, 30):
            assert wiener_tree_linear(path_tree(n)) == (n**3 - n) // 6


class TestDeltaOracle:
    def test_fixed(self, p4, s5, p7):
        assert delta_oracle(p4, 0, 3) == 2
        assert delta_oracle(s5, 1, 2) == 1
        assert delta_oracle(p7, 0, 6) == 14

    def test_same_vertex(self, p4):
        with pytest.raises(SameVertex):
            delta_oracle(p4, 1, 1)

    def test_adjacent(self, p4):
        with pytest.raises(AdjacentPair):
            delta_oracle(p4, 2, 3)

    def test_id_out_of_range(self, p5):
        # a negative id must not wrap around to vertex n-1
        for x, y in ((-1, 2), (0, 5)):
            with pytest.raises(IdOutOfRange):
                delta_oracle(p5, x, y)

    def test_always_at_least_one(self):
        for seed in range(8):
            t = random_labeled_tree(10, seed)
            for u in range(10):
                for v in range(u + 1, 10):
                    if v not in t.adjacency[u]:
                        assert delta_oracle(t, u, v) >= 1


class TestTreePlusEdge:
    def test_one_cycle(self, p5):
        g = tree_plus_edge(p5, 0, 4)
        assert sum(len(a) for a in g.adjacency) == 2 * 5  # n edges now
        assert wiener_brute(g) == 15

    def test_id_out_of_range(self, p5):
        with pytest.raises(IdOutOfRange):
            tree_plus_edge(p5, 0, -1)

    def test_same_vertex(self, p5):
        # a self-loop is not a simple graph; the check comes before the id
        # check, as in delta_oracle
        with pytest.raises(SameVertex):
            tree_plus_edge(p5, 2, 2)
        with pytest.raises(SameVertex):
            tree_plus_edge(p5, 7, 7)

    def test_tree_edge(self, p5):
        # a second copy of a tree edge would make a multigraph
        for x, y in ((0, 1), (1, 0), (3, 4)):
            with pytest.raises(AdjacentPair):
                tree_plus_edge(p5, x, y)

    def test_tree_unchanged(self):
        # the per-tree D(T) cache keys on the tree, so adding an edge must
        # leave the tree's own adjacency as it was
        t = random_labeled_tree(12, 4)
        rows = [list(a) for a in t.adjacency]
        for u, v in non_adjacent_pairs(t):
            g = tree_plus_edge(t, u, v)
            expected = list(t.adjacency)
            expected[u] += (v,)
            expected[v] += (u,)
            assert list(g.adjacency) == expected
        assert [list(a) for a in t.adjacency] == rows


def non_adjacent_pairs(tree):
    return [
        (u, v)
        for u in range(tree.n)
        for v in range(u + 1, tree.n)
        if v not in tree.adjacency[u]
    ]


class TestTreeSumOncePerTree:
    @pytest.fixture
    def brute_calls(self, monkeypatch):
        # start from an empty cache, so the first call on a tree is a miss
        insetedge.oracle._tree_wiener.cache_clear()
        calls = []

        def counting(graph):
            calls.append(graph)
            return wiener_brute(graph)

        monkeypatch.setattr(insetedge.oracle, "wiener_brute", counting)
        return calls

    def test_pairs_plus_one(self, brute_calls):
        t = random_labeled_tree(14, 3)
        pairs = non_adjacent_pairs(t)
        for u, v in pairs:
            delta_oracle(t, u, v)
        assert len(brute_calls) == len(pairs) + 1

    def test_interleaved_trees_never_stale(self, brute_calls):
        edges = random_labeled_tree(12, 1).edges
        a, a_copy = Tree.from_edges(12, edges), Tree.from_edges(12, edges)
        b = random_labeled_tree(12, 2)
        assert a != b and a_copy == a and a_copy is not a
        # the copy equals the tree just asked about, so its sum is a hit
        for t, misses in ((a, 1), (b, 1), (a, 1), (a_copy, 0)):
            del brute_calls[:]
            before = wiener_brute(SimpleGraph.from_tree(t))
            pairs = non_adjacent_pairs(t)
            for u, v in pairs:
                after = wiener_brute(tree_plus_edge(t, u, v))
                assert delta_oracle(t, u, v) == before - after
            assert len(brute_calls) == len(pairs) + misses

    def test_reloaded_copy_hits(self, brute_calls):
        # the reloaded copy lists its adjacency in another order, and is
        # the same tree to the cache
        t = random_labeled_tree(12, 1)
        back = parse_tree(serialize_tree(t))
        assert back.adjacency != t.adjacency
        delta_oracle(t, *non_adjacent_pairs(t)[0])
        hits = insetedge.oracle._tree_wiener.cache_info().hits
        delta_oracle(back, *non_adjacent_pairs(back)[0])
        assert insetedge.oracle._tree_wiener.cache_info().hits == hits + 1
