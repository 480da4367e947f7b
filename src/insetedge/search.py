"""Optimal shortcut-edge search with exhaustive and leaf-pruned strategies.

The pruning rule drops a candidate pair only when at least one endpoint is
a leaf and the endpoint distance is outside {2, 3, 4, 6}: for any other
leaf pair there is a non-leaf candidate at least as good, so the pruned
search keeps the maximum (for n > 6, non-star trees).

A pair is scored by delta.delta_from_sizes from the subtree sizes along
its path, without a cycle anatomy.  Each pair is walked once, from the
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
those of the pairs walked before.  Straight after it writes cum[d], the
walk bounds the pair in O(1) from cum.  Along a root path the sizes s_j
fall and the rests n - s_j rise, so each ramp sum pairs a non-increasing
run of sizes with a non-decreasing run of rests, and Chebyshev's sum
inequality caps it at (sum of the sizes) * (sum of the rests) / L for L
terms (see delta.py).  The walk reads the running best from a list that
best_edge raises as it scores, and yields only pairs whose cap reaches
it; the comparison is in integers and not strict, so a pair that ties
the best is always yielded and scored, and the report is the one the
exact sums alone give.  best_edge scores each yielded pair from sizes
and rest with delta.delta_from_sizes, one or two slices and C-level
sums.  The walk counts every pair it walks, yielded or not, and that
count is evaluated.  pruning_ratio and the oracle strategy walk with a
floor of -1, which every pair reaches (every savings is >= 1), so they
see every pair, and the walk does not compute their caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .delta import delta_direct, delta_from_sizes
from .errors import NoCandidates, RouteMismatch
from .oracle import delta_oracle
from .tree import Tree, anatomize

PRUNE_EXCEPTION_DISTANCES = frozenset({2, 3, 4, 6})

STRATEGIES = ("exhaustive", "pruned", "oracle")


@dataclass(frozen=True)
class SearchReport:
    best_pairs: tuple[tuple[int, int], ...]
    best_delta: int
    evaluated: int
    pruned: int
    strategy: str


def _non_adjacent_count(tree: Tree) -> int:
    # C(n, 2) pairs minus the n-1 tree edges
    return (tree.n - 1) * (tree.n - 2) // 2


def _candidates(
    tree: Tree, pruned: bool, floor: list[int]
) -> tuple[Iterator[tuple[int, int, int]], list[int], list[int], list[int]]:
    """Candidate pairs (u, v), u < v, at distance d >= 2 whose Chebyshev
    cap reaches the running best, each once, with the three depth stacks
    the walk writes as it goes.  Take the path between u and v in the tree
    rooted at the endpoint later in the root-0 preorder, with subtree sizes
    s_0 = n, s_1, ..., s_d along it.  When (u, v, d) is yielded, sizes[j] =
    s_j for j <= d, rest[j - 1] = n - s_j for 1 <= j <= d, and cum[j] =
    s_1 + ... + s_j for j <= d.  Entries past those are left from earlier
    pairs.  The stacks are rewritten in place: read them before asking for
    the next pair.  With pruned, leaf pairs are dropped by the pruning
    rule, and the walk from a leaf stops at the largest distance the rule
    keeps.

    floor is a two-entry list [best, walked].  The walk yields a pair only
    when its cap is not below floor[0], which it reads again after each
    yield, so the caller raises it as it scores; a negative floor skips
    nothing.  When the walk ends, floor[1] is the number of pairs it
    walked, yielded or not."""
    n = tree.n
    sizes, rest, cum = [n] * n, [0] * n, [0] * n
    return _walk(tree, pruned, floor, sizes, rest, cum), sizes, rest, cum


# one entry: a search, or a run of them over trees of one size, reads the
# tables of its n
@lru_cache(maxsize=1)
def _cap_tables(n: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """Chebyshev's cap on the L = d // 2 terms of each ramp sum is score <=
    top * (L n - cum[L]) / L with top = 2 cum[d] - cum[h] - cum[h + 1 -
    d % 2], h = d - L: the one ramp sum of odd d counts twice (see
    delta.py).  For each distance d < n: L, L n, h and h + 1 - d % 2."""
    return (
        [d // 2 for d in range(n)],
        [d // 2 * n for d in range(n)],
        [d - d // 2 for d in range(n)],
        [d - d // 2 + 1 - d % 2 for d in range(n)],
    )


def _walk(
    tree: Tree, pruned: bool, floor: list[int], sizes: list[int], rest: list[int], cum: list[int]
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
    halves, spans, hi, lo = _cap_tables(n)
    best = floor[0]
    walked = 0
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
                total = cum[d] = cum[d - 1] + s
                rest[d - 1] = n - s
                if not (pruned and (from_leaf or leaf[u]) and d not in PRUNE_EXCEPTION_DISTANCES):
                    walked += 1
                    # yield only a pair whose cap reaches best, in integers:
                    # a pair that could tie it is always yielded, and every
                    # pair reaches a negative best, uncapped
                    half = halves[d]
                    if best < 0 or (2 * total - cum[hi[d]] - cum[lo[d]]) * (spans[d] - cum[half]) >= best * half:
                        x = order[u]
                        yield (x, v, d) if x < v else (v, x, d)
                        best = floor[0]
                # at the limit, skip the vertices below u
                u += 1 if d < limit else size[u]
            if not a or depth[r] - depth[a] >= limit:
                break
            c = a
            u = a = parent[a]
    floor[1] = walked


def best_edge(tree: Tree, strategy: str = "exhaustive") -> SearchReport:
    """All shortcut edges maximizing the savings, sorted lexicographically.

    The first best pair is scored again with delta_direct on its anatomy;
    RouteMismatch is raised if the two routes disagree."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    oracle = strategy == "oracle"
    best = -1
    best_pairs: list[tuple[int, int]] = []
    floor = [best, 0]
    pairs, sizes, rest, _ = _candidates(tree, strategy == "pruned", floor)
    # the oracle scores every walked pair: its walk's floor stays at -1
    raised = [best] if oracle else floor
    for u, v, d in pairs:
        score = delta_oracle(tree, u, v) if oracle else delta_from_sizes(d, sizes, rest)
        if score > best:
            best = raised[0] = score
            best_pairs = [(u, v)]
        elif score == best:
            best_pairs.append((u, v))
    # n >= 4 has a pair at distance 2, which no rule prunes
    best_pairs.sort()
    direct = delta_direct(anatomize(tree, *best_pairs[0]))
    if direct != best:
        raise RouteMismatch(f"{strategy} scored {best_pairs[0]} as {best}, delta_direct as {direct}")
    evaluated = floor[1]
    return SearchReport(
        best_pairs=tuple(best_pairs),
        best_delta=best,
        evaluated=evaluated,
        pruned=_non_adjacent_count(tree) - evaluated,
        strategy=strategy,
    )


def pruning_ratio(tree: Tree) -> Fraction:
    """Fraction of non-adjacent pairs skipped by the pruned strategy."""
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    total = _non_adjacent_count(tree)
    floor = [-1, 0]
    pairs, _, _, _ = _candidates(tree, True, floor)
    # a floor of -1 yields every kept pair; the walk counts them itself
    for _ in pairs:
        pass
    return Fraction(total - floor[1], total)
