"""Optimal shortcut-edge search with exhaustive and leaf-pruned strategies.

The pruning rule drops a candidate pair only when at least one endpoint is
a leaf and the endpoint distance is outside {2, 3, 4, 6}: for any other
leaf pair there is a non-leaf candidate at least as good, so the pruned
search keeps the maximum (for n > 6, non-star trees).

The rule's odd half follows from an exchange identity.  Root the tree at
v and take the path v = p_0, ..., p_D = u, D >= 3, with sizes s_i (s_0 =
n), hanging weights w_i = s_i - s_{i+1} for i < D and w_D = s_D, and H =
D // 2.  Then

    delta(u, v) - delta(p_{D-1}, v)
        = w_D (n - s_H) - sum_{i=H+1}^{D-1} w_i (n - s_{i-H}).

In delta.py's ramp sums R_D(m) = sum_{j=1}^{D-m} s_{j+m} (n - s_j), the
path to p_{D-1} has the same sizes, one fewer, so

    R_{D-1}(m) = R_D(m) - s_D (n - s_{D-m}),

and with s_{D+1} = 0, R_D(H) - R_D(H + 1) = sum_{i=H+1}^{D} w_i (n -
s_{i-H}), whose last term is s_D (n - s_{D-H}).  For odd D = 2H + 1,
delta(u, v) = 2 R_D(H + 1) and delta(p_{D-1}, v) = R_{D-1}(H) +
R_{D-1}(H + 1), so the difference is R_D(H + 1) - R_D(H) plus the
shifts s_D (n - s_{H+1}) and s_D (n - s_H); the first cancels the last
term.  For even D = 2H, delta(u, v) = R_D(H) + R_D(H + 1) and
delta(p_{D-1}, v) = 2 R_{D-1}(H), so the difference is R_D(H + 1) -
R_D(H) plus twice the shift s_D (n - s_H); one cancels the last term.
So:

    (a) for odd D >= 5 and 2 s_D <= s_{D-1}, which every leaf u meets,
        delta(u, v) < delta(p_{D-1}, v): the term i = D - 1 is
        w_{D-1} (n - s_H) >= s_D (n - s_H), and the term i = H + 1 <
        D - 1 is at least 1.  No best pair has a leaf end at an odd
        distance >= 5;
    (b) at D = 3 the difference is (s_3 - w_2)(n - s_1), so a leaf ties its
        neighbour when w_2 = 1, and 3 is an exception distance.

At even D the one-step exchange can fail, and the rule's even half has
no proof here.

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
can drop only the outermost pair (p_0, p_D).  The walk yields the seed's
pair, at least as a tie, or a strictly better one (the leaf jump below
may step over (p_0, p_D)), so the seed changes which pairs are summed
and not the report.  The walk scores each pair it
yields from sizes and cum with delta.delta_from_sizes, one or two slices
and C-level sums, so the stacks never leave it.

Each root also has a distance limit, from the convexity lemma (see
bounds.py).  Root r's partners all come before it in the root-0
preorder and lie outside its root-0 subtree, so every path from r leaves
through r's root-0 parent and that whole subtree, w = size[r] vertices,
hangs at one end of the cycle.  The lemma moves every other off-cycle
vertex to an end and never moves one already there, so a pair at
distance d saves at most bounds.anchored_case_bound(n, d + 1, w).  That
bound does not rise with w, and _far tabulates, once per walk from the
starting floor, the largest distance whose bound still reaches it, per
w.  The walk sets the limit of each root not a leaf under pruning to its
entry: one lookup per root, and the walk's own distance test, subtree
jump and stop on the ancestor climb apply it.  A skipped pair cannot
reach the floor, which only rises, so it is no best pair; a tie with the
floor is walked.  On P_2048 the limit leaves a quarter of the pairs to
walk; on uniform random trees it leaves nearly all.

The walk also steps over runs of sibling leaves.  Tree._root0 puts each
vertex's leaf children straight after it, at ranks w + 1 .. w + l(w),
so from a vertex w at distance d one step of hop[w] = 1 + l(w) passes
all of w's leaf children, at d + 1.  The walk takes that step whenever
no leaf there can be a best pair: with pruning when the rule drops
d + 1, that is d + 1 not in {2, 3, 4, 6}; without, when d + 1 is odd and at
least 5, where by (a) each pair (l, r) it skips scores strictly below
(w, r), which it visits.  So the exhaustive walk skips the pairs whose
end earlier in the preorder is a leaf other than rank 0, at an odd
distance >= 5: 12-18% of a uniform random tree's pairs at n = 80 to
1024.  The jump and the root's limit are one table, steps[d][w], per
distinct limit, built on first use: hop or 1 per vertex at each distance
below the limit, and the subtree size at it.  The walk reads its step
there, with no test per visit.

The oracle strategy has no part in the walk, the seed or the caps: it
scores every pair of oracle.non_adjacent_pairs, which reads only the
tree's adjacency, with delta_oracle, so a pair the walk missed would
still be scored.

The walk keeps no count.  evaluated counts the pairs a strategy
considers, not the vertices its walk visits, and depends only on the
tree: every non-adjacent pair for exhaustive and oracle, and for pruned
the pairs the rule keeps, which _kept_count counts in O(n) from the
number of leaves at each distance up to 6 from every vertex.
pruning_ratio reads that count and walks no pair.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt
from typing import Iterator

from .bounds import _side_coefficients, anchored_case_bound
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


# one entry, as _cap_tables
@lru_cache(maxsize=1)
def _limit_tables(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """For each distance d < n, with k = d + 1 and m = n - d + 1: (m, c_1 m
    + c_0) with the c_1 and c_0 of bounds.exact_case_formula, and the bound
    of the heaviest root that reaches d, anchored_case_bound(n, k, n - d),
    which is the least bound at d.  Entries below d = 2 are placeholders."""
    rows, ends = [(0, 0)] * 2, [-1] * 2
    for d in range(2, n):
        m = n - d + 1
        c_1, c_0 = _side_coefficients(d + 1)
        rows.append((m, c_1 * m + c_0))
        ends.append(anchored_case_bound(n, d + 1, n - d))
    return rows, ends


# a pruned search straight after an exhaustive one on the same tree
# usually has the same seed, and reads the same table
@lru_cache(maxsize=1)
def _far(n: int, D: int, best: int) -> list[int]:
    """far[w] for 0 <= w <= n, at least 2: no pair farther than far[w] from
    a root of root-0 subtree size w reaches best by anchored_case_bound.  D
    is the tree's diameter.

    At distance d the bound does not rise with w, so the weights whose
    bound reaches best are those up to t_d, the largest w with (d - 1) P(w)
    >= best - c_1 m - c_0 (above m / 2, P(w) = w (m - w): one isqrt), and
    far[w] is the largest d <= D with t_d >= w.  A root of weight w reaches
    no distance past n - w.  So past the first d* <= D whose heaviest root
    reaches best, every root passes, and the roots up to n - d* get n: the
    walk's own end.  d* comes from bisecting _limit_tables' list of those
    bounds, which is not monotone near d = n; any d* is sound, since n
    never cuts, and a root heavier than n - d* reaches only d < d*."""
    rows, ends = _limit_tables(n)
    cut = bisect_left(ends, best, 2, D + 1)
    reach = n - cut if cut <= D else 0
    far = [n] * (reach + 1) + [2] * (n - reach)
    for d in range(cut - 1, 1, -1):
        m, base = rows[d]
        need = best - base
        if need <= 0:
            t = m - 1
        else:
            # P(w) >= ceil(need / (d - 1)) iff (2w - m)^2 <= m^2 - 4 ceil(..)
            gap = m * m + 4 * (need // (1 - d))
            if gap < 0:
                continue
            t = (m + isqrt(gap)) // 2
        if t > reach:
            far[reach + 1 : t + 1] = [d] * (t - reach)
            reach = t
    return far


def _walk(tree: Tree, pruned: bool, floor: list[int]) -> Iterator[tuple[int, int, int]]:
    """Candidate pairs (u, v), u < v, at distance d >= 2 whose Chebyshev
    caps reach the running best, each once, with their savings: (u, v,
    savings).  Take the path between u and v in the tree rooted at the
    endpoint later in the root-0 preorder, with subtree sizes s_0 = n, s_1,
    ..., s_d along it.  The walk's depth stacks hold sizes[j] = s_j and
    cum[j] = s_1 + ... + s_j for j <= d when it scores the pair with
    delta_from_sizes; entries past those are left from earlier pairs.  With
    pruned, leaf pairs are dropped by the pruning rule, and the walk from a
    leaf stops at the largest distance the rule keeps; from any other root
    it stops at the root's entry of _far's table for the starting floor.
    Without, the pairs whose earlier end is a leaf other than rank 0, at
    an odd distance >= 5, are stepped over: none is a best pair.

    floor is a one-entry list, the running best.  The walk yields a pair
    only when no cap is below floor[0], which it reads again after each
    yield, so the caller raises it as it scores; a negative floor skips
    nothing."""
    n = tree.n
    sizes, cum = [n] * n, [0] * n
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
    # no pair farther than far[w] from a root of root-0 size w reaches best
    far = _far(n, len(tree._diameter[0]) - 1, best)
    # hop[w] = 1 + the number of leaf children of rank w, which are the
    # ranks right after it; rank 0 is no child
    hop = [1] * n
    for i in range(1, n):
        if leaf[i]:
            hop[parent[i]] += 1
    # steps[d][w]: how far the walk goes on from w at distance d, past w's
    # leaf children when no leaf at d + 1 can be a best pair (see the
    # module docstring)
    ones = [1] * n
    if pruned:
        steps = [ones if d + 1 in kept else hop for d in range(n)]
    else:
        steps = [hop if d % 2 == 0 and d >= 4 else ones for d in range(n)]
    # one table per root limit, built on first use: at the limit the walk
    # skips the vertices below w, so no visit is farther
    tables: dict[int, list[list[int]]] = {}
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
        limit = deepest if from_leaf else far[size[r]]
        step = tables.get(limit)
        if step is None:
            step = tables[limit] = steps[:limit] + [size]
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
                # step past u first, so a skipped pair can continue
                w = u
                u += step[d][u]
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
                savings = delta_from_sizes(d, sizes, cum)
                yield (x, v, savings) if x < v else (v, x, savings)
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
        scored = _walk(tree, pruned, floor)
    best = floor[0]
    best_pairs: list[tuple[int, int]] = []
    for u, v, score in scored:
        if score > best:
            best = floor[0] = score
            best_pairs = [(u, v)]
        elif score == best:
            best_pairs.append((u, v))
    # the walk yields the seed's pair, at least as a tie, or a better one
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
