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
    """Candidate shortcut edges (u, v), u < v: all non-adjacent pairs, or
    the leaf-pruned subset.  Pairs come grouped by v, each group read from
    one distance row."""
    pruned = strategy == "pruned"
    leaf = [len(a) == 1 for a in tree.adjacency]
    pairs = []
    for v in range(tree.n):
        dist = bfs_distances(tree, v)
        for u in range(v):
            d = dist[u]
            if d < 2:
                continue
            if pruned and (leaf[u] or leaf[v]) and d not in PRUNE_EXCEPTION_DISTANCES:
                continue
            pairs.append((u, v))
    return pairs


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

    best = -1
    best_pairs: list[tuple[int, int]] = []
    # cands are grouped by v, so consecutive anatomize calls share the
    # pass rooted at v
    for u, v in cands:
        if strategy == "oracle":
            d = delta_oracle(tree, u, v)
        else:
            d = delta_direct(anatomize(tree, u, v))
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
