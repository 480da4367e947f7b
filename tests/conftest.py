"""Shared fixtures: small named trees used throughout the suite, and the
reference helpers only tests use."""

from typing import Iterable

import pytest

from insetedge import SimpleGraph, Tree
from insetedge.errors import IdOutOfRange, SameVertex
from insetedge.oracle import non_adjacent_pairs
from insetedge.search import STRATEGIES, _candidates
from insetedge.tree import _rooted


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
    """Every pair (u, v), u < v, a strategy scores, each once: for
    exhaustive and pruned, all non-adjacent pairs or the leaf-pruned subset
    as the search walks them, where a floor of -1 yields them all; for
    oracle, oracle.non_adjacent_pairs."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "oracle":
        return non_adjacent_pairs(tree)
    pairs, _, _ = _candidates(tree, strategy == "pruned", [-1])
    return [(u, v) for u, v, _ in pairs]


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
