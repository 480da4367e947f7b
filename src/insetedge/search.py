"""Optimal shortcut-edge search with exhaustive and leaf-pruned strategies.

The pruning rule drops a candidate pair only when at least one endpoint is
a leaf and the endpoint distance is outside {2, 3, 4, 6}: for any other
leaf pair there is a non-leaf candidate at least as good, so the pruned
search keeps the maximum (for n > 6, non-star trees).

Every pair is scored by delta.delta_from_sizes from the subtree sizes
along its root path, read from one rooted pass per root vertex, without a
cycle anatomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .delta import ad_prime, delta_direct, delta_from_sizes
from .errors import NoCandidates, RouteMismatch
from .oracle import delta_oracle
from .tree import Tree, _sizes, anatomize

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


def _candidates(tree: Tree, pruned: bool) -> Iterator[tuple[int, int, int, list[int]]]:
    """Candidate pairs (u, v), u < v, at distance d >= 2, grouped by v, with
    sizes = [s_0, ..., s_d], the subtree sizes along the path from v to u
    in the tree rooted at v.  With pruned, leaf pairs are dropped by the
    pruning rule.  sizes is reused: read it before asking for the next
    pair."""
    n = tree.n
    leaf = [len(a) == 1 for a in tree.adjacency]
    for v in range(1, n):
        parent, size, order = _sizes(tree, v)
        depth = [0] * n
        sizes = [n]
        # in preorder each subtree is contiguous, so the root path of u is
        # the root path of its parent plus u
        for u in order[1:]:
            d = depth[u] = depth[parent[u]] + 1
            del sizes[d:]
            sizes.append(size[u])
            if u > v or d < 2:
                continue
            if pruned and (leaf[u] or leaf[v]) and d not in PRUNE_EXCEPTION_DISTANCES:
                continue
            yield u, v, d, sizes


def candidate_pairs(tree: Tree, strategy: str = "exhaustive") -> list[tuple[int, int]]:
    """Candidate shortcut edges (u, v), u < v: all non-adjacent pairs, or
    the leaf-pruned subset.  Pairs come grouped by v, each group read from
    one rooted pass."""
    return [(u, v) for u, v, _, _ in _candidates(tree, strategy == "pruned")]


def best_edge(tree: Tree, strategy: str = "exhaustive") -> SearchReport:
    """All shortcut edges maximizing the savings, sorted lexicographically.

    The first best pair is scored again with delta_direct on its anatomy;
    RouteMismatch is raised if the two routes disagree."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    n = tree.n
    oracle = strategy == "oracle"
    best = -1
    best_pairs: list[tuple[int, int]] = []
    evaluated = 0
    for u, v, d, sizes in _candidates(tree, strategy == "pruned"):
        evaluated += 1
        score = delta_oracle(tree, u, v) if oracle else delta_from_sizes(sizes)
        if score > best:
            best = score
            best_pairs = [(u, v)]
        elif score == best:
            best_pairs.append((u, v))
    # n >= 4 has a pair at distance 2, which no rule prunes
    best_pairs.sort()
    direct = delta_direct(anatomize(tree, *best_pairs[0]))
    if direct != best:
        raise RouteMismatch(f"{strategy} scored {best_pairs[0]} as {best}, delta_direct as {direct}")
    return SearchReport(
        best_pairs=tuple(best_pairs),
        best_delta=best,
        best_ad_prime=ad_prime(best, n),
        evaluated=evaluated,
        pruned=_non_adjacent_count(tree) - evaluated,
        strategy=strategy,
    )


def pruning_ratio(tree: Tree) -> Fraction:
    """Fraction of non-adjacent pairs skipped by the pruned strategy."""
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    total = _non_adjacent_count(tree)
    kept = sum(1 for _ in _candidates(tree, True))
    return Fraction(total - kept, total)
