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
subtree of its child toward r.  The walk keeps one copy of the root-0
sizes per call and, as the roots advance in preorder, writes each
ancestor's rooted size over its entry and restores the entry once the
preorder leaves the ancestor's subtree: O(n) writes over the whole walk.
So each root costs one walk over the vertices it pairs with, and no
rooted pass, size copy or ancestor climb of its own.  The walk reads the
kept root-0 pass (Tree._root0), which Tree.from_edges stores in preorder
ranks, so a search builds no view of the tree of its own.

The walk keeps the sizes along the current path in two depth stacks,
allocated once per walk: sizes[j] = s_j (sizes[0] = n) and the prefix
sums cum[j] = s_1 + ... + s_j (cum[0] = 0).  A vertex at distance d from
r writes its entries at index d, in place over those of the pairs walked
before.  Straight after it writes cum[d], the walk bounds the pair in
O(1) from cum, in two tiers.  Along a root path the sizes s_j fall and
the rests n - s_j rise, so each ramp sum pairs a non-increasing run of
sizes with a non-decreasing run of rests, and Chebyshev's sum inequality
caps it at (sum of the sizes) * (sum of the rests) / L for L = d // 2
terms (see delta.py).  A pair whose first cap reaches the best and has
L >= 2 meets the second tier: the same inequality on each of two blocks
of L // 2 and L - L // 2 terms, floored per block, which is never above
the first cap.  With both tiers and the seed below, 2.2% of P_512's
walked pairs reach the exact sum, against 21% with the first cap alone
from a best of -1.

The walk reads the running best from a list that best_edge raises as it
scores, and yields only pairs whose caps reach it; each comparison is in
integers and not strict, so a pair that ties the best is always yielded
and scored, and the report is the one the exact sums alone give.
best_edge starts that best at a seed: the exact score of the best
diagonal pair (p_i, p_{D-i}) of the diameter p_0 ... p_D the tree keeps
(Tree._diameter), and, with pruning, only among the pairs the rule
keeps.  The diagonals are the nested family sweep.py scores, so _seed
takes all their savings from sweep's one big-integer product
(_family_savings) and picks the first best with max and list.index.  A
diameter's ends are leaves and its inner vertices are not, so the rule
can drop only the outermost pair (p_0, p_D).  The walk meets the seed's
pair again and yields it, at least as a tie, so the seed changes which
pairs are summed and not the report.  best_edge scores each
yielded pair from sizes and cum with delta.delta_from_sizes, one or two
slices and C-level sums.

The oracle strategy has no part in the walk, the seed or the caps: it
scores every pair of oracle.non_adjacent_pairs, which reads only the
tree's adjacency, with delta_oracle, so a pair the walk missed would
still be scored.

The walk keeps no count.  evaluated depends only on the tree: every
non-adjacent pair for exhaustive and oracle, and for pruned the pairs
the rule keeps, which _kept_count counts in O(n) from the number of
leaves at each distance up to 6 from every vertex.  pruning_ratio reads
that count and walks no pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterator

from .delta import delta_direct, delta_from_sizes
from .errors import NoCandidates, RouteMismatch
from .oracle import delta_oracle, non_adjacent_pairs
from .sweep import _family_savings
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


def _kept_count(tree: Tree) -> int:
    """The non-adjacent pairs the pruning rule keeps, for n >= 3, in O(n)
    big-integer steps: the pairs of non-leaves, and the pairs with a leaf
    end at a distance in PRUNE_EXCEPTION_DISTANCES.

    The q non-leaves span a subtree, so (q - 1)(q - 2) / 2 of their pairs
    are non-adjacent.  Let L_j(y) be the number of leaves at distance j
    from y.  The sum of L_j(y) over every y counts a pair at distance j
    once if one end is a leaf and twice if both are, and the sum over
    leaves y counts the pairs of leaves alone twice; so (2 sum_y L_j(y) -
    sum_{leaf y} L_j(y)) / 2 pairs at distance j have a leaf end.

    Each vertex's L_0 .. L_6 are the digits of one int, s = 2
    n.bit_length() + 1 bits each, so that a digit summed twice over every
    vertex (below 2 n^2) never carries into the next: the Kronecker
    packing of counting._correlate.  One shift then moves every count a
    step farther, and a mask drops the digits past 6."""
    n = tree.n
    _, _, parent, _, leaf, _ = tree._root0
    s = 2 * n.bit_length() + 1
    top = (1 << (max(PRUNE_EXCEPTION_DISTANCES) + 1) * s) - 1
    # children before parents: reach[i] counts the leaves below rank i
    reach = list(map(int, leaf))
    for i in range(n - 1, 0, -1):
        reach[parent[i]] += reach[i] << s & top
    # parents before children: add those around the parent, less i's own
    # subtree, one step farther.  The subtraction borrows only past digit
    # 6, and the shift moves that past the mask
    for i in range(1, n):
        reach[i] += (reach[parent[i]] - (reach[i] << s)) << s & top
    sums = 2 * sum(reach) - sum(compress(reach, leaf))
    digit = (1 << s) - 1
    near = sum(sums >> j * s & digit for j in PRUNE_EXCEPTION_DISTANCES)
    q = n - sum(leaf)
    return ((q - 1) * (q - 2) + near) // 2


def _candidates(
    tree: Tree, pruned: bool, floor: list[int]
) -> tuple[Iterator[tuple[int, int, int]], list[int], list[int]]:
    """Candidate pairs (u, v), u < v, at distance d >= 2 whose Chebyshev
    caps reach the running best, each once, with the two depth stacks the
    walk writes as it goes.  Take the path between u and v in the tree
    rooted at the endpoint later in the root-0 preorder, with subtree sizes
    s_0 = n, s_1, ..., s_d along it.  When (u, v, d) is yielded, sizes[j] =
    s_j and cum[j] = s_1 + ... + s_j for j <= d.  Entries past those are
    left from earlier pairs.  The stacks are rewritten in place: read them
    before asking for the next pair.  With pruned, leaf pairs are dropped
    by the pruning rule, and the walk from a leaf stops at the largest
    distance the rule keeps.

    floor is a one-entry list, the running best.  The walk yields a pair
    only when no cap is below floor[0], which it reads again after each
    yield, so the caller raises it as it scores; a negative floor skips
    nothing."""
    n = tree.n
    sizes, cum = [n] * n, [0] * n
    return _walk(tree, pruned, floor, sizes, cum), sizes, cum


# one entry: a search, or a run of them over trees of one size, reads the
# table of its n
@lru_cache(maxsize=1)
def _cap_tables(n: int) -> list[tuple[int, int, int, int, tuple[int, ...]]]:
    """Chebyshev's cap on the L = d // 2 terms of each ramp sum is score <=
    top * (L n - cum[L]) / L with top = 2 cum[d] - cum[h] - cum[h + 1 -
    d % 2], h = d - L: the one ramp sum of odd d counts twice (see
    delta.py).

    The second tier splits the L terms into blocks of l_1 = L // 2 and
    l_2 = L - l_1 and caps each block on its own: score <= top_1 R_1 //
    l_1 + top_2 R_2 // l_2, with top_1 = cum[h + l_1] - cum[h] + cum[lo +
    l_1] - cum[lo] (lo = h + 1 - d % 2), top_2 = top - top_1, R_1 = l_1 n
    - cum[l_1] and R_2 = L n - cum[L] - R_1.

    One tuple for each distance d < n: (L, L n, h, lo, block), where block
    is (l_1, l_2, l_1 n, h + l_1, lo + l_1) for L >= 2 and () below."""
    tables = []
    for d in range(n):
        L = d // 2
        h = d - L
        lo = h + 1 - d % 2
        block = (L // 2, L - L // 2, L // 2 * n, h + L // 2, lo + L // 2) if L > 1 else ()
        tables.append((L, L * n, h, lo, block))
    return tables


def _walk(
    tree: Tree, pruned: bool, floor: list[int], sizes: list[int], cum: list[int]
) -> Iterator[tuple[int, int, int]]:
    """The pairs of _candidates, writing the stacks it is given."""
    n = tree.n
    # in preorder ranks: each subtree is the run of ranks from its root to
    # its root + size - 1
    order, _, parent, size, leaf, depth = tree._root0
    # rooted at r, only an ancestor's subtree changes: it is everything
    # outside the root-0 subtree of its child toward r.  rooted holds those
    # sizes for the ancestors of the current root and root-0 sizes for
    # every other vertex; see the update at each root
    rooted = size[:]
    # the vertices whose pairs the pruning rule may drop, chosen per root:
    # every vertex from a leaf root, the leaves from any other, and none
    # without pruning
    every, none = [True] * n, [False] * n
    kept = PRUNE_EXCEPTION_DISTANCES
    # from a leaf, no pair farther than this is kept
    deepest = max(kept)
    caps = _cap_tables(n)
    best = floor[0]
    # as at root 1, whose one ancestor is 0
    if n > 1:
        rooted[0] = n - size[1]
    for r in range(2, n):
        # r's parent a is r - 1 or one of its ancestors: going on from root
        # r - 1, restore the entries below a on r - 1's path, which no
        # longer hold ancestors, and a's, whose child toward the root is now
        # r.  Each vertex is set once per child and restored once, so this
        # is O(n) over the whole walk
        a = parent[r]
        c = r - 1
        while c != a:
            rooted[c] = size[c]
            c = parent[c]
        rooted[a] = n - size[r]
        v = order[r]
        from_leaf = pruned and leaf[r]
        limit = deepest if from_leaf else n
        droppable = every if from_leaf else leaf if pruned else none
        # ranks a .. c - 1 are ancestor a, then the subtrees of a's children
        # before c, in preorder; the first run starts past r's parent,
        # which is adjacent to r
        sizes[1] = cum[1] = rooted[a]
        c, u = r, a + 1
        while True:
            # d(r, u) = depth[r] + depth[u] - 2 depth[a] along a's run
            off = depth[r] - 2 * depth[a]
            while u < c:
                d = off + depth[u]
                # the vertex before u on the path was the last one written
                # at d - 1: u's parent in this run or, for u = a, the child
                # c of a toward r
                s = sizes[d] = rooted[u]
                total = cum[d] = cum[d - 1] + s
                # step past u first, so a skipped pair can continue; at the
                # limit, skip the vertices below u
                w = u
                u += 1 if d < limit else size[u]
                if droppable[w] and d not in kept:
                    continue
                # yield only a pair whose caps reach best, in integers: a
                # pair that could tie it is always yielded
                half, span, hi, lo, block = caps[d]
                top = 2 * total - cum[hi] - cum[lo]
                rests = span - cum[half]
                if top * rests < best * half:
                    continue
                if block:
                    # the second tier: a cap per block of the L terms
                    l1, l2, span1, near1, far1 = block
                    top1 = cum[near1] - cum[hi] + cum[far1] - cum[lo]
                    rest1 = span1 - cum[l1]
                    if top1 * rest1 // l1 + (top - top1) * (rests - rest1) // l2 < best:
                        continue
                x = order[w]
                yield (x, v, d) if x < v else (v, x, d)
                best = floor[0]
            if not a or depth[r] - depth[a] >= limit:
                break
            c = a
            u = a = parent[a]


def _seed(tree: Tree, pruned: bool) -> tuple[int, tuple[int, int]]:
    """A first running best for the walk: the best exact savings among the
    diagonal pairs (p_i, p_{D-i}), D - 2i >= 2, of the tree's kept diameter
    p_0 ... p_D (n >= 3), and its pair (u, v), u < v, the first i on a tie;
    with pruned, only pairs the pruning rule keeps.  All the diagonals are
    scored from one product, as sweep_path scores its diagonal family."""
    path, size = tree._diameter
    D = len(path) - 1
    savings = list(_family_savings(size, tree.n, ((0, D),))[0])
    # a diameter's ends are leaves and its inner vertices are not, so the
    # rule can drop only the outermost pair (p_0, p_D)
    first = 1 if pruned and D not in PRUNE_EXCEPTION_DISTANCES else 0
    best = max(savings[first:])
    i = savings.index(best, first)
    x, y = path[i], path[D - i]
    return best, (x, y) if x < y else (y, x)


def best_edge(tree: Tree, strategy: str = "exhaustive") -> SearchReport:
    """All shortcut edges maximizing the savings, sorted lexicographically.

    exhaustive and pruned score the pairs the walk yields from subtree
    sizes, from the seed up; oracle scores every non-adjacent pair by
    brute force, without the walk.  The first best pair is scored again
    with delta_direct on its anatomy; RouteMismatch is raised if the two
    routes disagree, or if no walked pair reached the seed."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    pruned = strategy == "pruned"
    if strategy == "oracle":
        # every savings is >= 1: the first pair scored beats a best of -1
        floor = [-1]
        scored = ((u, v, delta_oracle(tree, u, v)) for u, v in non_adjacent_pairs(tree))
    else:
        # the walk reads the running best from floor, raised as pairs score
        floor = [_seed(tree, pruned)[0]]
        pairs, sizes, cum = _candidates(tree, pruned, floor)
        scored = ((u, v, delta_from_sizes(d, sizes, cum)) for u, v, d in pairs)
    best = floor[0]
    best_pairs: list[tuple[int, int]] = []
    for u, v, score in scored:
        if score > best:
            best = floor[0] = score
            best_pairs = [(u, v)]
        elif score == best:
            best_pairs.append((u, v))
    # the walk yields the seed's pair again, at least as a tie
    if not best_pairs:
        raise RouteMismatch(f"{strategy} walk scored no pair as high as its seed {best}")
    best_pairs.sort()
    direct = delta_direct(anatomize(tree, *best_pairs[0]))
    if direct != best:
        raise RouteMismatch(f"{strategy} scored {best_pairs[0]} as {best}, delta_direct as {direct}")
    total = _non_adjacent_count(tree)
    evaluated = _kept_count(tree) if pruned else total
    return SearchReport(
        best_pairs=tuple(best_pairs),
        best_delta=best,
        evaluated=evaluated,
        pruned=total - evaluated,
        strategy=strategy,
    )


def pruning_ratio(tree: Tree) -> Fraction:
    """Fraction of non-adjacent pairs skipped by the pruned strategy."""
    if tree.n <= 3:
        raise NoCandidates(f"n={tree.n}")
    total = _non_adjacent_count(tree)
    return Fraction(total - _kept_count(tree), total)
