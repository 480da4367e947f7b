import gc
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import insetedge.tree
from insetedge import (
    Tree,
    anatomize,
    best_edge,
    bfs_distances,
    delta_oracle,
    leaves,
    parse_tree,
    pruning_ratio,
    random_labeled_tree,
    serialize_tree,
    sweep_path,
    tree_plus_edge,
    wiener_tree_linear,
)
from insetedge.errors import (
    AdjacentPair,
    DuplicateEdge,
    IdOutOfRange,
    MalformedLine,
    NotATree,
    SameVertex,
)

from conftest import path_between, path_tree, star_tree


class TestParse:
    def test_path4(self, p4):
        t = parse_tree("4\n0 1\n1 2\n2 3\n")
        assert t.n == 4
        assert t.edges == p4.edges

    def test_star4(self, s4):
        t = parse_tree("4\n0 1\n0 2\n0 3\n")
        assert t.edges == s4.edges

    def test_three_edges_on_three_vertices(self):
        with pytest.raises(NotATree):
            parse_tree("3\n0 1\n1 2\n2 0\n")

    def test_comments_blanks_crlf(self):
        t = parse_tree("# a comment\r\n3\r\n\r\n0 1\r\n# more\r\n1 2\r\n")
        assert t.n == 3
        assert t.edges == ((0, 1), (1, 2))

    def test_malformed_header(self):
        with pytest.raises(MalformedLine):
            parse_tree("x\n0 1\n")

    def test_malformed_edge_line(self):
        with pytest.raises(MalformedLine):
            parse_tree("3\n0 1\n1 2 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x\n0 1\n", "header must be a single integer, got 'x'"),
            ("3 4\n0 1\n", "header must be a single integer, got '3 4'"),
            ("0\n", "vertex count must be positive, got 0"),
            ("3\n0 1\n1 a\n", "expected 'u v', got '1 a'"),
            ("3\n0 1\n1 2 3\n", "expected 'u v', got '1 2 3'"),
            ("3\n0 1\n2\n", "expected 'u v', got '2'"),
            # int() alone reads each of these rows: '1_0' as 10, the
            # Arabic-Indic digit three as 3, a no-break space as a space
            ("11\n0 1_0\n", "expected 'u v', got '0 1_0'"),
            ("\u0663\n0 1\n1 2\n", "header must be a single integer, got '\u0663'"),
            ("3\n0\u00a01\n1 2\n", "expected 'u v', got '0\\xa01'"),
            # the first faulty row wins
            ("3\n1 a\n0 1_0\n", "expected 'u v', got '1 a'"),
        ],
    )
    def test_malformed_message(self, text, message):
        with pytest.raises(MalformedLine) as exc:
            parse_tree(text)
        assert str(exc.value) == message

    def test_comments_hold_any_text(self):
        t = parse_tree("# a Pr\u00fcfer_tree\n3\n0 1\n1 2\n")
        assert t.edges == ((0, 1), (1, 2))

    def test_empty_document(self):
        with pytest.raises(MalformedLine):
            parse_tree("\n# only comments\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_tree("4\n0 1\n1 0\n2 3\n")

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            parse_tree("3\n0 1\n1 7\n")

    def test_disconnected(self):
        for text, reached in (
            # 3 edges on 4 vertices, but vertex 0 is isolated (cycle on 1,2,3)
            ("4\n1 2\n2 3\n1 3\n", "1 of 4"),
            # vertex 0 reaches 1 only; 2, 3 and 4 close a cycle
            ("5\n0 1\n2 3\n3 4\n2 4\n", "2 of 5"),
        ):
            with pytest.raises(NotATree) as exc:
                parse_tree(text)
            assert str(exc.value) == f"graph is disconnected ({reached} reached)"

    def test_self_loop(self):
        with pytest.raises(NotATree):
            parse_tree("2\n1 1\n")

    def test_roundtrip(self, spider):
        # a reloaded tree builds its adjacency from the sorted edges, not
        # from the order they were generated in, and is still the same tree
        for t in (spider, *(random_labeled_tree(12, seed) for seed in range(4))):
            back = parse_tree(serialize_tree(t))
            assert back == t and hash(back) == hash(t)

    def test_not_equal_to_other_types(self, spider):
        # __eq__ returns NotImplemented, so Python falls back to identity
        assert spider.__eq__(spider.edges) is NotImplemented
        assert not spider == "x"
        assert spider != object()
        assert spider != (spider.n, spider.edges)

    def test_serialize_canonical(self):
        t = Tree.from_edges(3, [(2, 1), (1, 0)])
        assert serialize_tree(t) == "3\n0 1\n1 2\n"


class TestDistances:
    def test_path(self, p4):
        assert bfs_distances(p4, 0) == [0, 1, 2, 3]

    def test_star_center(self, s4):
        assert bfs_distances(s4, 0) == [0, 1, 1, 1]

    def test_spider(self, spider):
        assert bfs_distances(spider, 3) == [3, 2, 1, 0, 4]

    def test_bad_source(self, p4):
        with pytest.raises(IdOutOfRange):
            bfs_distances(p4, 9)


class TestPathBetween:
    def test_whole_path(self, p4):
        assert path_between(p4, 0, 3) == [0, 1, 2, 3]

    def test_via_center(self, s4):
        assert path_between(s4, 1, 2) == [1, 0, 2]

    def test_adjacent(self, p4):
        assert path_between(p4, 1, 2) == [1, 2]

    def test_same_vertex(self, p4):
        with pytest.raises(SameVertex):
            path_between(p4, 2, 2)


class TestAnatomize:
    def test_path_ends(self, p4):
        a = anatomize(p4, 0, 3)
        assert (a.k, a.k_prime) == (4, 2)
        assert a.x_side == (0, 1) and a.y_side == (3, 2)
        assert a.weights_x == (1, 1) and a.weights_y == (1, 1)
        assert a.middle is None and a.weight_middle is None

    def test_star_leaves(self, s5):
        a = anatomize(s5, 1, 2)
        assert a.k == 3
        assert a.x_side == (1,) and a.y_side == (2,)
        assert a.middle == 0 and a.weight_middle == 3
        assert a.weights_x == (1,) and a.weights_y == (1,)

    def test_spider(self, spider):
        a = anatomize(spider, 0, 3)
        assert a.k == 4
        assert a.weights_x == (2, 1) and a.weights_y == (1, 1)

    def test_weights_sum_to_n(self, spider, p7):
        for t, (x, y) in ((spider, (0, 3)), (p7, (0, 6)), (p7, (1, 4))):
            a = anatomize(t, x, y)
            total = sum(a.weights_x) + sum(a.weights_y) + (a.weight_middle or 0)
            assert total == t.n

    def test_adjacent_pair(self, p4):
        with pytest.raises(AdjacentPair):
            anatomize(p4, 1, 2)

    def test_distance_indexing(self, p7):
        # d(x_i, y_j) = k + 1 - i - j with 1-based cycle positions
        a = anatomize(p7, 0, 6)
        dist = bfs_distances(p7, 0)
        for i, u in enumerate(a.x_side, start=1):
            for j, v in enumerate(a.y_side, start=1):
                d = abs(dist[u] - dist[v])
                assert d == a.k + 1 - i - j


def component_sizes_without_path(tree, path):
    """Size of each path vertex's component once the path edges are deleted,
    by union-find over the remaining edges (no traversal from tree.py)."""
    cut = {frozenset(e) for e in zip(path, path[1:])}
    root = list(range(tree.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in tree.edges:
        if frozenset((u, v)) not in cut:
            root[find(u)] = find(v)
    count = Counter(find(v) for v in range(tree.n))
    return [count[find(v)] for v in path]


class TestAnatomyOnRandomTrees:
    @given(n=st.integers(3, 20), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_every_non_adjacent_pair(self, n, seed):
        t = random_labeled_tree(n, seed)
        for y in range(n):
            dist = bfs_distances(t, y)
            for x in range(n):
                if x == y or x in t.adjacency[y]:
                    continue
                a = anatomize(t, x, y)
                path = path_between(t, x, y)
                mid = () if a.middle is None else (a.middle,)
                assert list(a.x_side + mid + a.y_side[::-1]) == path
                assert dist[x] == len(path) - 1 == a.k - 1
                w_mid = () if a.middle is None else (a.weight_middle,)
                weights = a.weights_x + w_mid + a.weights_y[::-1]
                assert list(weights) == component_sizes_without_path(t, path)


def rooted_at_y_reference(tree, x, y):
    """The path x..y and, with the tree rooted at y, the subtree size of
    each path vertex, from one O(n) depth-first pass rooted at y."""
    parent = [-1] * tree.n
    parent[y] = y
    order = []
    stack = [y]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in tree.adjacency[u]:
            if parent[w] < 0:
                parent[w] = u
                stack.append(w)
    size = [1] * tree.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    path = [x]
    while path[-1] != y:
        path.append(parent[path[-1]])
    return path, [size[v] for v in path]


class TestPathSizes:
    # paths (0 at one end: every pair has one endpoint the other's
    # ancestor), stars (every leaf pair meets at vertex 0) and random trees
    trees = st.one_of(
        st.builds(path_tree, st.integers(3, 60)),
        st.builds(star_tree, st.integers(3, 60)),
        st.builds(random_labeled_tree, st.integers(3, 60), st.integers(0, 2**32)),
    )

    @given(t=trees)
    @settings(max_examples=40, deadline=None)
    def test_matches_rooted_at_y(self, t):
        for x in range(t.n):
            for y in range(t.n):
                if x == y:
                    continue
                if y in t.adjacency[x]:
                    with pytest.raises(AdjacentPair):
                        insetedge.tree._path_sizes(t, x, y)
                else:
                    assert insetedge.tree._path_sizes(t, x, y) == rooted_at_y_reference(t, x, y)

    def test_pair_checks(self, spider):
        with pytest.raises(SameVertex):
            insetedge.tree._path_sizes(spider, 2, 2)
        for x, y in ((-1, 2), (2, 5), (0, 5)):
            with pytest.raises(IdOutOfRange):
                insetedge.tree._path_sizes(spider, x, y)
        with pytest.raises(AdjacentPair):
            insetedge.tree._path_sizes(spider, 4, 0)

        # every entry point raises tree._check_pair's error, or none does
        def outcome(f, tree, x, y):
            try:
                f(tree, x, y)
            except Exception as exc:
                return type(exc), str(exc)
            return None

        for tree in (spider, path_tree(7)):
            n = tree.n
            raised = 0
            for x in range(-1, n + 1):
                for y in range(-1, n + 1):
                    found = {
                        outcome(f, tree, x, y)
                        for f in (insetedge.tree._path_sizes, sweep_path, tree_plus_edge)
                    }
                    assert len(found) == 1, (x, y, found)
                    raised += found != {None}
            # every ordered pair of the ids -1 .. n but the non-adjacent ones
            assert raised == (n + 2) ** 2 - (n * (n - 1) - 2 * (n - 1))


class TestKeptRootedPass:
    def test_no_pass_after_the_tree_is_built(self, monkeypatch):
        t = random_labeled_tree(30, 7)
        roots = []
        rooted = insetedge.tree._rooted

        def counting(tree, root):
            roots.append(root)
            return rooted(tree, root)

        monkeypatch.setattr(insetedge.tree, "_rooted", counting)
        for x in range(t.n):
            for y in range(t.n):
                if x != y and y not in t.adjacency[x]:
                    anatomize(t, x, y)
                    sweep_path(t, x, y)
        wiener_tree_linear(t)
        assert roots == []


class TestRootedPass:
    @given(t=TestPathSizes.trees)
    @settings(max_examples=40, deadline=None)
    def test_preorder_ranks(self, t):
        order, rank, parent, size, leaf, depth = t._root0
        n = t.n
        assert sorted(order) == list(range(n))
        assert [rank[v] for v in order] == list(range(n))
        assert parent[0] == 0
        for i in range(1, n):
            assert parent[i] < i and order[parent[i]] in t.adjacency[order[i]]
        # v is below u, rooted at 0, exactly when u lies on v's path to 0
        d0 = bfs_distances(t, 0)
        for u in range(n):
            du = bfs_distances(t, u)
            i = rank[u]
            below = {order[j] for j in range(i, i + size[i])}
            assert below == {v for v in range(n) if d0[v] == d0[u] + du[v]}
        assert [depth[rank[v]] for v in range(n)] == d0
        assert {v for v in range(n) if leaf[rank[v]]} == leaves(t)


def retained_bytes(n, edges):
    """Bytes tracemalloc still counts once Tree.from_edges(n, edges) has
    returned, with the tree kept alive."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    t = Tree.from_edges(n, edges)
    gc.collect()
    kept = tracemalloc.get_traced_memory()[0] - before
    if not tracing:
        tracemalloc.stop()
    assert t.n == n
    return kept


class TestFootprint:
    # the shared ints, adjacency's tuples and _root0's six lists come to
    # about 140 bytes a vertex on 64-bit CPython; a stored edges tuple
    # (about 64 more) or an int object per entry would pass the bound
    BYTES_PER_VERTEX = 200

    def test_routes_do_not_build_edges(self):
        for t in (random_labeled_tree(40, 3), random_labeled_tree(300, 5), path_tree(30)):
            d0 = bfs_distances(t, 0)
            x = d0.index(max(d0))
            dx = bfs_distances(t, x)
            y = dx.index(max(dx))
            best_edge(t)
            best_edge(t, "pruned")
            pruning_ratio(t)
            anatomize(t, x, y)
            sweep_path(t, x, y)
            wiener_tree_linear(t)
            assert "edges" not in t.__dict__
            # the converse: the oracle's one-entry cache of the tree's own
            # sum hashes the tree, and the hash reads edges
            delta_oracle(t, x, y)
            assert "edges" in t.__dict__
            assert t.edges is t.edges

    @pytest.mark.parametrize("n, seed", [(257, 0), (300, 1), (1024, 2), (4096, 3)])
    def test_one_int_object_per_value(self, n, seed):
        for t in (random_labeled_tree(n, seed), path_tree(n), star_tree(n)):
            order, rank, parent, size, _, depth = t._root0
            ints = {id(v) for seq in (*t.adjacency, order, rank, parent, size, depth) for v in seq}
            assert len(ints) <= n + 1

    @pytest.mark.parametrize("n", [257, 600])
    def test_shared_values_are_the_pass(self, n):
        # the same values as an unshared pass over the same adjacency
        t = random_labeled_tree(n, n)
        order, parent, rank = insetedge.tree._rooted(t.adjacency, 0)
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[parent[i]] += size[i]
        assert t._root0[:4] == (order, rank, parent, size)
        assert t._root0[5] == insetedge.tree._depths(parent)

    @pytest.mark.parametrize(
        "edges",
        [
            [(i, i + 1) for i in range(4095)],
            [(u, v) for u, v in random_labeled_tree(4096, 11).edges],
        ],
        ids=["path", "random"],
    )
    def test_retained_bytes_per_vertex(self, edges):
        # fresh int objects, as a parsed document gives them
        edges = [(int(str(u)), int(str(v))) for u, v in edges]
        assert retained_bytes(4096, edges) < self.BYTES_PER_VERTEX * 4096

    @given(
        t=st.builds(random_labeled_tree, st.integers(2, 400), st.integers(0, 2**32)),
        rnd=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_edge_order_does_not_matter(self, t, rnd):
        given_edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in t.edges]
        rnd.shuffle(given_edges)
        back = Tree.from_edges(t.n, given_edges)
        assert back == t and hash(back) == hash(t) == hash((t.n, t.edges))
        assert back.edges == tuple(sorted((min(e), max(e)) for e in given_edges))
        path = path_tree(t.n)
        assert (back == path) == (t.edges == path.edges)


class TestLeaves:
    def test_path(self, p4):
        assert leaves(p4) == {0, 3}

    def test_star(self, s4):
        assert leaves(s4) == {1, 2, 3}

    def test_spider(self, spider):
        assert leaves(spider) == {3, 4}

    def test_random_degree_check(self):
        t = star_tree(9)
        assert leaves(t) == set(range(1, 9))
        t = path_tree(2)
        assert leaves(t) == {0, 1}
