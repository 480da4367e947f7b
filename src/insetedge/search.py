"""Optimal shortcut-edge search with exhaustive and leaf-pruned strategies.

The pruning rule drops a candidate pair only when at least one endpoint is
a leaf and the endpoint distance is outside {2, 3, 4, 6}: for any other
leaf pair there is a non-leaf candidate at least as good, so the pruned
search keeps the maximum (for n > 6, non-star trees).

Every pair is scored by delta.delta_from_sizes from the subtree sizes
along its path, without a cycle anatomy, and is reached once: from the
endpoint that comes later in the preorder of the tree's kept root-0 pass.
The vertices before r in that preorder are r's ancestors and, below each
ancestor, the whole subtrees of its children that precede the child
toward r, one contiguous run of the preorder per ancestor.  Rooted at r,
only an ancestor's subtree changes: it is everything outside the root-0
subtree of its child toward r.  So each root costs one walk over the
vertices it pairs with, and no rooted pass of its own.

The walk keeps the sizes along the current path in three depth stacks,
allocated once per walk: sizes[j] = s_j, rest[j - 1] = n - s_j and the
prefix sums cum[j] = s_1 + ... + s_j (cum[0] = 0).  A vertex at distance
d from r writes its entries at index d (rest at d - 1), in place over
those of the pairs walked before.  best_edge scores a pair from sizes and
rest with delta.delta_from_sizes, one or two slices and C-level sums, but
first bounds it in O(1) from cum.  Along a root path the sizes s_j fall
and the rests n - s_j rise, so each ramp sum pairs a non-increasing run
of sizes with a non-decreasing run of rests, and Chebyshev's sum
inequality caps it at (sum of the sizes) * (sum of the rests) / L for L
terms (see delta.py).  A pair whose cap is below the best score so far
cannot win or tie, and its exact sum is skipped; the comparison is in
integers and strict, so a pair that ties the best is always scored and
the report is the one the exact sums alone give.  evaluated still counts
every pair walked.  candidate_pairs, pruning_ratio and the oracle
strategy walk the same pairs without the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .delta import ad_prime, delta_direct, delta_from_sizes
from .errors import NoCandidates, RouteMismatch
from .oracle import delta_oracle
from .tree import Tree, anatomize

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


def _candidates(
    tree: Tree, pruned: bool
) -> tuple[Iterator[tuple[int, int, int]], list[int], list[int], list[int]]:
    """Candidate pairs (u, v), u < v, at distance d >= 2, each once, with
    the three depth stacks the walk writes as it goes.  Take the path
    between u and v in the tree rooted at the endpoint later in the root-0
    preorder, with subtree sizes s_0 = n, s_1, ..., s_d along it.  When
    (u, v, d) is yielded, sizes[j] = s_j for j <= d, rest[j - 1] = n - s_j
    for 1 <= j <= d, and cum[j] = s_1 + ... + s_j for j <= d.  Entries
    past those are left from earlier pairs.  The stacks are rewritten in
    place: read them before asking for the next pair.  With pruned, leaf
    pairs are dropped by the pruning rule, and the walk from a leaf stops
    at the largest distance the rule keeps."""
    n = tree.n
    sizes, rest, cum = [n] * n, [0] * n, [0] * n
    return _walk(tree, pruned, sizes, rest, cum), sizes, rest, cum


def _walk(
    tree: Tree, pruned: bool, sizes: list[int], rest: list[int], cum: list[int]
) -> Iterator[tuple[int, int, int]]:
    """The pairs of _candidates, writing the stacks it is given."""
    n = tree.n
    parent0, size0, order = tree._root0
    # relabel by preorder rank: a parent comes before its children, and
    # each subtree is the run of ranks from its root to its root + size - 1
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    parent = [rank[parent0[v]] for v in order]
    size = [size0[v] for v in order]
    leaf = [len(tree.adjacency[v]) == 1 for v in order]
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    # from a leaf, no pair farther than this is kept
    deepest = max(PRUNE_EXCEPTION_DISTANCES)
    for r in range(2, n):
        v = order[r]
        from_leaf = pruned and leaf[r]
        limit = deepest if from_leaf else n
        # rooted at r, an ancestor's subtree is everything outside the
        # root-0 subtree of its child toward r; every other size stays
        rerooted = size[:r]
        c = r
        while c:
            a = parent[c]
            rerooted[a] = n - size[c]
            c = a
        # ranks a .. c - 1 are ancestor a, then the subtrees of a's children
        # before c, in preorder; the first run starts past r's parent,
        # which is adjacent to r
        a = parent[r]
        sizes[1] = cum[1] = rerooted[a]
        rest[0] = n - rerooted[a]
        c, u = r, a + 1
        while True:
            # d(r, u) = depth[r] + depth[u] - 2 depth[a] along a's run
            off = depth[r] - 2 * depth[a]
            while u < c:
                d = off + depth[u]
                # the vertex before u on the path was the last one written
                # at d - 1: u's parent in this run or, for u = a, the child
                # c of a toward r
                s = sizes[d] = rerooted[u]
                cum[d] = cum[d - 1] + s
                rest[d - 1] = n - s
                if not (pruned and (from_leaf or leaf[u]) and d not in PRUNE_EXCEPTION_DISTANCES):
                    x = order[u]
                    yield (x, v, d) if x < v else (v, x, d)
                # at the limit, skip the vertices below u
                u += 1 if d < limit else size[u]
            if not a or depth[r] - depth[a] >= limit:
                break
            c = a
            u = a = parent[a]


def candidate_pairs(tree: Tree, strategy: str = "exhaustive") -> list[tuple[int, int]]:
    """Candidate shortcut edges (u, v), u < v: all non-adjacent pairs, or
    the leaf-pruned subset, each once."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    pairs, _, _, _ = _candidates(tree, strategy == "pruned")
    return [(u, v) for u, v, _ in pairs]


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
    pairs, sizes, rest, cum = _candidates(tree, strategy == "pruned")
    for u, v, d in pairs:
        evaluated += 1
        if oracle:
            score = delta_oracle(tree, u, v)
        else:
            # Chebyshev's cap on the L = d // 2 terms of each ramp sum:
            # score <= top * (L n - cum[L]) / L, with the one ramp sum of
            # odd d counted twice (see delta.py); skip only a pair that
            # cannot reach best
            half = d // 2
            h = d - half
            top = 2 * cum[d] - cum[h] - cum[h + 1 - d % 2]
            if top * (half * n - cum[half]) < best * half:
                continue
            score = delta_from_sizes(d, sizes, rest)
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
    pairs, _, _, _ = _candidates(tree, True)
    kept = sum(1 for _ in pairs)
    return Fraction(total - kept, total)
