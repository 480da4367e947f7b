"""Optimal shortcut-edge search with exhaustive and leaf-pruned strategies.

The pruning rule drops a candidate pair only when at least one endpoint is
a leaf and the endpoint distance is outside {2, 3, 4, 6}: for any other
leaf pair there is a non-leaf candidate at least as good, so the pruned
search keeps the maximum (for n > 6, non-star trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delta import ad_prime, delta_direct
from .errors import NoCandidates
from .oracle import delta_oracle
from .tree import Tree, anatomize, bfs_distances

PRUNE_EXCEPTION_DISTANCES = frozenset({2, 3, 4, 6})

STRATEGIES = ("exhaustive", "pruned", "oracle")


@dataclass(frozen=True)
class SearchReport:
    best_pairs: tuple[tuple[int, int], ...]
    best_delta: int
    best_ad_prime: Fraction
    evaluated: int
    pruned: int
    strategy: str


def _non_adjacent_count(tree: Tree) -> int:
    # C(n, 2) pairs minus the n-1 tree edges
    return (tree.n - 1) * (tree.n - 2) // 2


def candidate_pairs(tree: Tree, strategy: str = "exhaustive") -> list[tuple[int, int]]:
    """Candidate shortcut edges: all non-adjacent pairs, or the leaf-pruned
    subset."""
    edge_set = set(tree.edges)
    pairs = [
        (u, v)
        for u in range(tree.n)
        for v in range(u + 1, tree.n)
        if (u, v) not in edge_set
    ]
    if strategy != "pruned":
        return pairs
    deg = [len(a) for a in tree.adjacency]
    dist = [bfs_distances(tree, s) for s in range(tree.n)]
    kept = []
    for u, v in pairs:
        if deg[u] > 1 and deg[v] > 1:
            kept.append((u, v))
        elif dist[u][v] in PRUNE_EXCEPTION_DISTANCES:
            kept.append((u, v))
    return kept


def best_edge(tree: Tree, strategy: str = "exhaustive") -> SearchReport:
    """All shortcut edges maximizing the savings, sorted lexicographically."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    total = _non_adjacent_count(tree)
    cands = candidate_pairs(tree, "pruned" if strategy == "pruned" else "exhaustive")
    if not cands:
        raise NoCandidates(f"n={tree.n}")

    if strategy == "oracle":
        score = lambda u, v: delta_oracle(tree, u, v)  # noqa: E731
    else:
        score = lambda u, v: delta_direct(anatomize(tree, u, v))  # noqa: E731

    best = -1
    best_pairs: list[tuple[int, int]] = []
    for u, v in cands:
        d = score(u, v)
        if d > best:
            best = d
            best_pairs = [(u, v)]
        elif d == best:
            best_pairs.append((u, v))
    return SearchReport(
        best_pairs=tuple(sorted(best_pairs)),
        best_delta=best,
        best_ad_prime=ad_prime(best, tree.n),
        evaluated=len(cands),
        pruned=total - len(cands),
        strategy=strategy,
    )


def pruning_ratio(tree: Tree) -> Fraction:
    """Fraction of non-adjacent pairs skipped by the pruned strategy."""
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    total = _non_adjacent_count(tree)
    kept = len(candidate_pairs(tree, "pruned"))
    return Fraction(total - kept, total)
