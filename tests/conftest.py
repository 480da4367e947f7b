"""Shared fixtures: small named trees used throughout the suite, and the
reference helpers only tests use."""

from itertools import accumulate
from typing import Iterable

import pytest

from insetedge import SimpleGraph, Tree, bfs_distances
from insetedge.errors import IdOutOfRange, SameVertex
from insetedge.oracle import non_adjacent_pairs
from insetedge.search import STRATEGIES, _walk
from insetedge.tree import _path_sizes, _rooted


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    """A SimpleGraph from an edge list, which may close cycles; an id
    outside 0..n-1 raises IdOutOfRange."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IdOutOfRange(f"edge ({u}, {v}) with n={n}")
        adj[u].append(v)
        adj[v].append(u)
    return SimpleGraph(n, tuple(tuple(a) for a in adj))


def path_between(tree: Tree, x: int, y: int) -> list[int]:
    """The unique simple path from x to y, inclusive, from a pass of its
    own: the tree rooted at y (rank 0), climbed by parent ranks from x."""
    if x == y:
        raise SameVertex(f"x == y == {x}")
    tree.check_ids(x, y)
    order, parent, rank = _rooted(tree.adjacency, y)
    i = rank[x]
    path = [x]
    while i:
        i = parent[i]
        path.append(order[i])
    return path


def candidate_pairs(tree: Tree, strategy: str = "exhaustive") -> list[tuple[int, int]]:
    """Every pair (u, v), u < v, a strategy visits, each once: for
    exhaustive and pruned, the pairs the search walks, where a floor of -1
    yields them all (every non-adjacent pair but skipped_pairs, or the
    leaf-pruned subset); for oracle, oracle.non_adjacent_pairs."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "oracle":
        return non_adjacent_pairs(tree)
    return [(u, v) for u, v, _ in _walk(tree, strategy == "pruned", [-1])]


def skipped_pairs(tree: Tree) -> set[tuple[int, int]]:
    """The pairs (u, v), u < v, the exhaustive walk steps over, from
    bfs_distances: the end earlier in the root-0 preorder is a leaf other
    than rank 0, and the distance is odd and at least 5."""
    rank = tree._root0[1]
    pairs = set()
    for x in range(tree.n):
        if rank[x] and len(tree.adjacency[x]) == 1:
            dist = bfs_distances(tree, x)
            pairs.update(
                (min(x, y), max(x, y)) for y in range(tree.n) if rank[y] > rank[x] and dist[y] >= 5 and dist[y] % 2
            )
    return pairs


def root_path_stacks(tree: Tree, u: int, v: int) -> tuple[list[int], list[int]]:
    """The depth stacks of the pair (u, v) as the search walk fills them,
    built from _path_sizes alone: rooted at the endpoint later in the
    root-0 preorder, sizes[j] = s_j along the path (sizes[0] = n) and
    cum[j] = s_1 + ... + s_j (cum[0] = 0), for j up to the distance
    len(sizes) - 1."""
    rank = tree._root0[1]
    root, other = (u, v) if rank[u] > rank[v] else (v, u)
    # _path_sizes roots at its second argument and ends with that root
    sizes = _path_sizes(tree, other, root)[1][::-1]
    return sizes, [0, *accumulate(sizes[1:])]


def path_tree(n: int) -> Tree:
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(n: int) -> Tree:
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


def spider_tree() -> Tree:
    # 5 vertices: path 0-1-2-3 with an extra leaf 4 hanging off 0
    return Tree.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4)])


@pytest.fixture
def p4():
    return path_tree(4)


@pytest.fixture
def p5():
    return path_tree(5)


@pytest.fixture
def p6():
    return path_tree(6)


@pytest.fixture
def p7():
    return path_tree(7)


@pytest.fixture
def s4():
    return star_tree(4)


@pytest.fixture
def s5():
    return star_tree(5)


@pytest.fixture
def spider():
    return spider_tree()
