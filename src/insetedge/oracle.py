"""Brute-force ground truth: all-pairs BFS distance sums.

This is the brute-force reference that `inset verify`, `best --strategy
oracle`, `delta --method oracle` and the bounds audit check the formulas
against, so it is kept independent of the formula modules: it reads only
the graph's adjacency.  All sums are exact Python integers.
tree_plus_edge checks its pair with tree._check_pair, the one inset-edge
check of the package, which reads the adjacency and nothing else.
non_adjacent_pairs lists, from the adjacency alone, the pairs that
`inset verify` and the oracle strategy score, so that neither takes its
pairs from the search's walk.
wiener_brute runs the BFS from every source at once, one distance level
at a time: each vertex holds a bitmask of the vertices within distance t,
and the sum is read off the masks with int.bit_count.  delta_oracle
brute-forces the tree's own sum D(T) once per tree (a one-entry cache
keyed by the tree's value, holding only that sum) and the graph with the
added edge on every call.  A SimpleGraph is a typing.NamedTuple of (n,
adjacency), which tree_plus_edge builds with one tuple.__new__.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import Disconnected
from .tree import Tree, _check_pair


class SimpleGraph(NamedTuple):
    """Undirected simple graph as adjacency tuples."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_tree(cls, tree: Tree) -> "SimpleGraph":
        return cls(tree.n, tree.adjacency)


def tree_plus_edge(tree: Tree, x: int, y: int) -> SimpleGraph:
    """The unicyclic graph obtained by adding edge (x, y) to the tree; the
    tree itself is left as it is.  tree._check_pair, the one pair check,
    raises SameVertex, IdOutOfRange or AdjacentPair where the result would
    not be a simple graph with one cycle."""
    _check_pair(tree, x, y)
    adj = list(tree.adjacency)
    adj[x] += (y,)
    adj[y] += (x,)
    return tuple.__new__(SimpleGraph, (tree.n, tuple(adj)))


def non_adjacent_pairs(tree: Tree) -> list[tuple[int, int]]:
    """Every pair (u, v), u < v, that is not an edge of the tree, in
    lexicographic order."""
    n, adj = tree.n, tree.adjacency
    return [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]


def wiener_brute(graph: SimpleGraph) -> int:
    """Sum of distances over all unordered vertex pairs.

    reach[v] is the bitmask of the vertices within distance t of v; one
    level ORs in the neighbours' masks, and a full mask stays as it is.
    An ordered pair (a, b) is farther apart than t for t = 0 .. d(a, b) - 1,
    so the ordered sum is the count of such pairs summed over t.  A level
    that adds nothing leaves a mask short for good: the graph is
    disconnected."""
    n = graph.n
    adj = graph.adjacency
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    active = range(n)
    far = n * (n - 1)  # ordered pairs farther apart than t, at t = 0
    total = 0
    while far:
        total += far
        nxt = reach[:]
        keep = []
        seen = 0
        for v in active:
            m = reach[v]
            for w in adj[v]:
                m |= reach[w]
            nxt[v] = m
            if m != full:
                keep.append(v)
                seen += m.bit_count()
        reach, active = nxt, keep
        was, far = far, n * len(keep) - seen
        if far == was:
            raise Disconnected(f"vertex unreachable from {keep[0]}")
    return total // 2


@lru_cache(maxsize=1)
def _tree_wiener(tree: Tree) -> int:
    """wiener_brute of the tree itself, kept for the last tree asked about."""
    return wiener_brute(SimpleGraph.from_tree(tree))


def delta_oracle(tree: Tree, x: int, y: int) -> int:
    """Wiener decrease caused by adding edge (x, y): brute force before/after.
    The graph is built first, so a bad pair raises before any sum."""
    graph = tree_plus_edge(tree, x, y)
    return _tree_wiener(tree) - wiener_brute(graph)

