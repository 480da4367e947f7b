"""Brute-force ground truth: all-pairs BFS distance sums.

Everything here is a test fixture, deliberately independent of the
formula-based modules it validates.  All sums are exact Python integers.
wiener_brute runs one BFS per source (the visit list is the queue) and
sums each distance row.  delta_oracle brute-forces the tree's own sum D(T)
once per tree (a one-entry cache keyed by the tree's value, holding only
that BFS sum) and the graph with the added edge on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import AdjacentPair, Disconnected, SameVertex
from .tree import Tree


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph as adjacency tuples."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_tree(cls, tree: Tree) -> "SimpleGraph":
        return cls(tree.n, tree.adjacency)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return cls(n, tuple(tuple(a) for a in adj))


def tree_plus_edge(tree: Tree, x: int, y: int) -> SimpleGraph:
    """The unicyclic graph obtained by adding edge (x, y) to the tree; the
    tree itself is left as it is.  Raises SameVertex, IdOutOfRange or
    AdjacentPair, checked in that order, where the result would not be a
    simple graph with one cycle."""
    if x == y:
        raise SameVertex(f"x == y == {x}")
    tree.check_ids(x, y)
    if y in tree.adjacency[x]:
        raise AdjacentPair(f"({x}, {y}) is an edge of the tree")
    adj = list(tree.adjacency)
    adj[x] += (y,)
    adj[y] += (x,)
    return SimpleGraph(tree.n, tuple(adj))


def _bfs(graph: SimpleGraph, source: int) -> list[int]:
    dist = [-1] * graph.n
    dist[source] = 0
    visit = [source]
    adj = graph.adjacency
    # the loop reads the list it appends to, in visit order
    for u in visit:
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                visit.append(w)
    return dist


def wiener_brute(graph: SimpleGraph) -> int:
    """Sum of distances over all unordered vertex pairs."""
    total = 0
    for s in range(graph.n):
        dist = _bfs(graph, s)
        if -1 in dist:
            raise Disconnected(f"vertex unreachable from {s}")
        total += sum(dist)
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

