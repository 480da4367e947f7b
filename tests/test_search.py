import json
import random
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import insetedge.search
import insetedge.tree
from insetedge import (
    Tree,
    anatomize,
    best_edge,
    bfs_distances,
    build_family_tree,
    delta_direct,
    family_delta,
    family_optimum,
    leaves,
    pruning_ratio,
    random_labeled_tree,
    serialize_tree,
    sweep_path,
)
from insetedge.bounds import _family_table
from insetedge.cli import BEST_MAX_N, main
from insetedge.errors import NoCandidates, RouteMismatch
from insetedge.delta import delta_from_sizes
from insetedge.oracle import non_adjacent_pairs
from insetedge.randgen import prufer_decode
from insetedge.search import _candidates, _kept_count, _non_adjacent_count, _seed
from insetedge.tree import _path_sizes

from conftest import candidate_pairs, path_tree, star_tree


class TestCandidatePairs:
    def test_p7_exhaustive(self, p7):
        assert len(candidate_pairs(p7, "exhaustive")) == 15

    def test_p7_pruned(self, p7):
        pairs = candidate_pairs(p7, "pruned")
        assert len(pairs) == 13
        assert (0, 5) not in pairs and (1, 6) not in pairs

    def test_s5_pruned_keeps_all(self, s5):
        # all leaf pairs are at distance 2, an exception of the rule
        assert len(candidate_pairs(s5, "pruned")) == 6

    def test_unknown_strategy(self, p7):
        # the same error as best_edge, not every pair
        with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
            candidate_pairs(p7, "greedy")


class TestBestEdge:
    def test_p7(self, p7):
        r = best_edge(p7)
        assert r.best_pairs == ((1, 5),)
        assert r.best_delta == 16

    def test_p6_tie(self, p6):
        r = best_edge(p6)
        assert r.best_pairs == ((0, 4), (1, 5))
        assert r.best_delta == 9

    def test_s5(self, s5):
        r = best_edge(s5)
        assert r.best_delta == 1
        assert len(r.best_pairs) == 6

    def test_strategies_agree(self, p7, spider):
        for t in (p7, spider):
            deltas = {best_edge(t, s).best_delta for s in ("exhaustive", "pruned", "oracle")}
            assert len(deltas) == 1

    def test_counts(self, p7):
        r = best_edge(p7, "pruned")
        assert r.evaluated == 13 and r.pruned == 2
        r = best_edge(p7, "exhaustive")
        assert r.evaluated == 15 and r.pruned == 0

    def test_too_small(self):
        with pytest.raises(NoCandidates):
            best_edge(path_tree(3))

    def test_unknown_strategy(self, p7):
        with pytest.raises(ValueError):
            best_edge(p7, "greedy")


def reference_search(t, strategy):
    """Every candidate pair scored with its own anatomize, and the pruning
    rule applied to distances from bfs_distances."""
    leaf = leaves(t)
    scores, total = {}, 0
    for u in range(t.n):
        dist = bfs_distances(t, u)
        for v in range(u + 1, t.n):
            if dist[v] < 2:
                continue
            total += 1
            if strategy == "pruned" and leaf & {u, v} and dist[v] not in (2, 3, 4, 6):
                continue
            scores[u, v] = delta_direct(anatomize(t, u, v))
    best = max(scores.values())
    best_pairs = tuple(sorted(p for p, d in scores.items() if d == best))
    return best_pairs, best, len(scores), total - len(scores), set(scores)


def savings_trees():
    random_trees = st.builds(random_labeled_tree, st.integers(4, 60), st.integers(0, 2**32))
    paths = st.builds(path_tree, st.integers(4, 60))
    stars = st.builds(star_tree, st.integers(4, 30))

    @st.composite
    def family(draw):
        k = draw(st.integers(3, 40))
        w_x, w_y = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        shape = draw(st.sampled_from(["star", "path"]))
        return build_family_tree(k + w_x + w_y - 2, k, w_x, w_y, shape)[0]

    return st.one_of(random_trees, paths, stars, family())


@pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
class TestOnePassPerRoot:
    def test_no_rooted_pass_after_the_tree_is_built(self, monkeypatch, strategy):
        # the walks and the re-score read the root-0 pass the tree keeps
        t = random_labeled_tree(24, 5)
        roots = []
        rooted = insetedge.tree._rooted

        def counting(tree, root):
            roots.append(root)
            return rooted(tree, root)

        monkeypatch.setattr(insetedge.tree, "_rooted", counting)
        best_edge(t, strategy)
        assert roots == []

    @given(t=savings_trees().filter(lambda t: t.n >= 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_pair_reference(self, strategy, t):
        # beside random trees: long paths, where each walk climbs a long
        # chain of ancestors, and stars and family trees, whose many leaf
        # roots stop their pruned walks at distance 6
        best_pairs, best, evaluated, pruned, pairs = reference_search(t, strategy)
        r = best_edge(t, strategy)
        assert (r.best_pairs, r.best_delta, r.evaluated, r.pruned) == (best_pairs, best, evaluated, pruned)
        assert set(candidate_pairs(t, strategy)) == pairs
        if strategy == "pruned":
            assert pruning_ratio(t) == Fraction(pruned, evaluated + pruned)


def assert_stack_scores_match_direct(t):
    """Score every pair of the walk from the stacks as they stand when it
    is yielded, check the stacks against the root path's sizes from
    _path_sizes and their prefix sums, and return the walk's distances in
    order.  With a floor of -1 the walk yields every pair it walks."""
    rank = t._root0[1]
    pairs, sizes, cum = _candidates(t, False, [-1])
    distances = []
    for u, v, d in pairs:
        # the walk roots each pair at its endpoint later in the preorder;
        # _path_sizes roots at its second argument and ends with that root
        root, other = (u, v) if rank[u] > rank[v] else (v, u)
        expected = _path_sizes(t, other, root)[1][::-1]
        assert sizes[0] == t.n
        assert sizes[1 : d + 1] == expected[1:], (u, v, d)
        assert cum[: d + 1] == [0, *accumulate(expected[1:])], (u, v, d)
        assert delta_from_sizes(d, sizes, cum) == delta_direct(anatomize(t, u, v)), (u, v, d)
        distances.append(d)
    return distances


def chebyshev_cap(d, n, cum):
    """The cap the walk compares with its running best, as a fraction:
    top * (L n - cum[L]) / L with L = d // 2 (see delta.py)."""
    half = d // 2
    h = d - half
    top = 2 * (cum[d] - cum[h]) if d % 2 else (cum[d] - cum[h]) + (cum[d] - cum[h + 1])
    return Fraction(top * (half * n - cum[half]), half)


def two_block_cap(d, sizes):
    """The walk's second cap for L = d // 2 >= 2, from the sizes stack: the
    L terms of each ramp sum split into blocks of L // 2 and L - L // 2,
    and each block capped by floor(S * R / l), with S the block's sizes
    summed over both ramps (the one ramp of odd d twice; the far ramp of
    even d padded with s_{d+1} = 0), R its rests n - s_j and l its
    length."""
    half = d // 2
    h = d - half
    rest = [sizes[0] - s for s in sizes[1 : d + 1]]
    near = sizes[h + 1 : d + 1]
    ramps = (near, near) if d % 2 else (near, [*sizes[h + 2 : d + 1], 0])
    cap = 0
    for lo, hi in ((0, half // 2), (half // 2, half)):
        block = sum(sum(ramp[lo:hi]) for ramp in ramps)
        cap += block * sum(rest[lo:hi]) // (hi - lo)
    return cap


def comb_tree(teeth: int, length: int):
    # spine 0 .. teeth - 1, each spine vertex with a pendant path of length
    # vertices: the walks run down whole teeth before climbing back
    edges = [(i, i + 1) for i in range(teeth - 1)]
    n = teeth
    for i in range(teeth):
        edges += [(i, n), *((n + j, n + j + 1) for j in range(length - 1))]
        n += length
    return Tree.from_edges(n, edges)


DEEP_WALK_TREES = pytest.mark.parametrize(
    "t",
    [comb_tree(5, 4), comb_tree(3, 7), build_family_tree(16, 8, 2, 8, "star")[0]],
    ids=["comb-5x4", "comb-3x7", "double-broom"],
)


class TestSavings:
    @given(t=savings_trees())
    @settings(max_examples=60, deadline=None)
    def test_every_pair_matches_direct(self, t):
        assert_stack_scores_match_direct(t)

    @DEEP_WALK_TREES
    def test_deep_walk_backs_up_to_an_even_distance(self, t):
        # entries of sizes and cum past d are left from deeper
        # pairs: a pair at even d that follows a deeper one reads sizes up
        # to d, and cum[d], which must be its own
        distances = assert_stack_scores_match_direct(t)
        assert any(a > b and b % 2 == 0 for a, b in zip(distances, distances[1:]))


def assert_cap_bounds_every_pair(t):
    # the second cap is never above the first: each tier only tightens
    pairs, sizes, cum = _candidates(t, False, [-1])
    for u, v, d in pairs:
        score, cap = delta_from_sizes(d, sizes, cum), chebyshev_cap(d, t.n, cum)
        assert cap >= score, (u, v, d)
        if d // 2 >= 2:
            assert cap >= two_block_cap(d, sizes) >= score, (u, v, d)


def closed_count(t, strategy):
    """The pairs a strategy's walk walks, counted without a walk."""
    return _kept_count(t) if strategy == "pruned" else _non_adjacent_count(t)


def watch_search(t, strategy):
    """best_edge's report, every pair its walk walks in order (the same
    walk with a floor of -1, which yields them all), and the set of pairs
    the walk yields to best_edge."""
    pairs, _, _ = _candidates(t, strategy == "pruned", [-1])
    walked = [(u, v) for u, v, _ in pairs]
    assert len(walked) == closed_count(t, strategy)
    yielded = set()

    def watched(tree, pruned, floor):
        pairs, *stacks = _candidates(tree, pruned, floor)

        def watch():
            for u, v, d in pairs:
                yielded.add((u, v))
                yield u, v, d

        return watch(), *stacks

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(insetedge.search, "_candidates", watched)
        return best_edge(t, strategy), walked, yielded


class TestChebyshevSkip:
    @given(t=savings_trees())
    @settings(max_examples=60, deadline=None)
    def test_cap_bounds_every_pair(self, t):
        assert_cap_bounds_every_pair(t)

    @DEEP_WALK_TREES
    def test_cap_bounds_every_pair_of_deep_walks(self, t):
        assert_cap_bounds_every_pair(t)

    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    @given(t=savings_trees().filter(lambda t: t.n >= 4))
    @settings(max_examples=60, deadline=None)
    def test_skips_only_pairs_below_the_running_best(self, strategy, t):
        # a pair the walk does not yield must score below the seed and the
        # best of the pairs yielded before it, so a tie is always scored;
        # evaluated counts the pairs walked, yielded or not
        r, walked, yielded = watch_search(t, strategy)
        assert r.evaluated == len(walked)
        best = _seed(t, strategy == "pruned")[0]
        for u, v in walked:
            score = delta_direct(anatomize(t, u, v))
            if (u, v) in yielded:
                best = max(best, score)
            else:
                assert score < best, (u, v)
        assert best == r.best_delta

    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    @given(t=savings_trees().filter(lambda t: t.n >= 4))
    @settings(max_examples=40, deadline=None)
    def test_yields_exactly_the_pairs_both_caps_reach(self, strategy, t):
        # from the seed on, a pair leaves the walk iff its first cap and,
        # for L >= 2, its second cap reach the best of the pairs before it
        _, _, yielded = watch_search(t, strategy)
        pairs, sizes, cum = _candidates(t, strategy == "pruned", [-1])
        best, expected = _seed(t, strategy == "pruned")[0], set()
        for u, v, d in pairs:
            if chebyshev_cap(d, t.n, cum) >= best and (d // 2 < 2 or two_block_cap(d, sizes) >= best):
                expected.add((u, v))
                best = max(best, delta_from_sizes(d, sizes, cum))
        assert yielded == expected

    def test_sums_under_a_twentieth_of_a_long_path(self):
        # on P_512 the first cap alone lets about a fifth of the pairs through
        r, walked, yielded = watch_search(path_tree(512), "exhaustive")
        assert r.evaluated == len(walked)
        assert 20 * len(yielded) < len(walked)

    def test_skips_most_pairs_of_a_random_tree(self):
        r, walked, yielded = watch_search(random_labeled_tree(80, 11), "exhaustive")
        assert r.evaluated == len(walked)
        assert len(yielded) < len(walked) // 4

    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    def test_walk_yields_fewer_than_a_quarter_of_its_pairs(self, strategy):
        # the walk applies the cap itself, re-reading the floor after each
        # yield, so most pairs never leave it
        t = random_labeled_tree(80, 11)
        floor = [-1]
        pairs, sizes, cum = _candidates(t, strategy == "pruned", floor)
        yielded = 0
        for _, _, d in pairs:
            yielded += 1
            floor[0] = max(floor[0], delta_from_sizes(d, sizes, cum))
        assert 0 < yielded < closed_count(t, strategy) // 4


class TestSeed:
    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    @given(t=savings_trees().filter(lambda t: t.n >= 4))
    @settings(max_examples=60, deadline=None)
    def test_seed_is_a_walked_pair_at_most_the_best(self, strategy, t):
        # the seed is the exact score of a pair the walk meets again, so it
        # never rises above the best, and ties it only with a best pair
        seed, pair = _seed(t, strategy == "pruned")
        r = best_edge(t, strategy)
        assert 1 <= seed <= r.best_delta
        assert seed == delta_direct(anatomize(t, *pair))
        assert pair in candidate_pairs(t, strategy)
        if seed == r.best_delta:
            assert pair in r.best_pairs

    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    @pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 64])
    def test_path_seed_is_its_best_diagonal(self, strategy, n):
        # the diameter of P_n is the whole path, so the seed is the first
        # best of the pairs (i, n - 1 - i) at distance >= 2 the rule keeps
        t = path_tree(n)
        diagonals = [(i, n - 1 - i) for i in range((n - 1) // 2)]
        if strategy == "pruned":
            diagonals = kept_by_rule(t, diagonals)
        scores = [delta_direct(anatomize(t, *p)) for p in diagonals]
        best = max(scores)
        assert _seed(t, strategy == "pruned") == (best, diagonals[scores.index(best)])


def reference_seed(t, pruned):
    """The seed scored one diagonal at a time: each pair (p_i, p_{D-i}) of
    the tree's kept diameter, D - 2i >= 2, with its own delta_from_sizes
    call, the pruning rule tested on both ends, and the first best i kept.
    Rooted at p_{D-i}, the pair's root path has sizes n, c_{D-i-1}, ...,
    c_i: the reversed sizes from index i on, once entry i is set to n.  Its
    cum is the reversed sizes' prefix sums from index i + 1 on, all off by
    their first entry, which delta_from_sizes allows."""
    path, size = t._diameter
    D = len(path) - 1
    leaf = leaves(t)
    sizes = size[::-1]
    prefix = list(accumulate(sizes, initial=0))
    best, pair = -1, (0, 0)
    for i in range(D // 2):
        d, x, y = D - 2 * i, path[i], path[D - i]
        if pruned and d not in (2, 3, 4, 6) and leaf & {x, y}:
            continue
        sizes[i] = t.n
        score = delta_from_sizes(d, sizes[i : D - i + 1], prefix[i + 1 : D - i + 2])
        if score > best:
            best, pair = score, (min(x, y), max(x, y))
    return best, pair


def spine_tree(n, spine, seed):
    # a path of spine vertices, the others hung at random below earlier ones
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(v), v) for v in range(spine, n)]
    return Tree.from_edges(n, edges)


def assert_seed_matches_reference(t):
    path, _ = t._diameter
    # the kept diameter is a longest path, and its ends are leaves
    assert len(path) - 1 == max(max(bfs_distances(t, u)) for u in range(t.n))
    assert len(t.adjacency[path[0]]) == len(t.adjacency[path[-1]]) == 1
    for pruned in (False, True):
        assert _seed(t, pruned) == reference_seed(t, pruned), pruned


class TestSeedFromOneProduct:
    @given(t=savings_trees().filter(lambda t: t.n >= 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_diagonal_scorer(self, t):
        assert_seed_matches_reference(t)

    @pytest.mark.parametrize(
        "t",
        [
            *(spine_tree(n, spine, seed) for n, spine in ((40, 20), (80, 40), (80, 60)) for seed in range(3)),
            *(star_tree(n) for n in (3, 4, 5, 12)),
            comb_tree(5, 4),
            comb_tree(3, 7),
        ],
    )
    def test_spines_stars_and_combs(self, t):
        assert_seed_matches_reference(t)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 14])
    def test_pruned_drops_only_the_outermost_diagonal(self, n):
        # P_n's diameter is the path, D = n - 1: the rule keeps D in {2, 3}
        # (P_3, P_4) and drops (0, D) for D = 5 and D >= 7
        t = path_tree(n)
        assert_seed_matches_reference(t)
        D = n - 1
        full = reference_seed(t, False)
        dropped = [(i, D - i) for i in range(1, D // 2)]
        if D in (2, 3, 4, 6):
            assert _seed(t, True) == full
        else:
            scores = [delta_direct(anatomize(t, *p)) for p in dropped]
            assert _seed(t, True) == (max(scores), dropped[scores.index(max(scores))])


def count_builds(monkeypatch, name):
    """Count the builds of one of Tree's cached properties: a list that
    gets the tree each time the property's function runs."""
    prop = Tree.__dict__[name]
    build, calls = prop.func, []

    def counting(tree):
        calls.append(tree)
        return build(tree)

    monkeypatch.setattr(prop, "func", counting)
    return calls


class TestViewsBuiltOncePerTree:
    def test_searches_and_ratio_build_the_view_once(self, monkeypatch):
        # the walk reads the root-0 pass from_edges made; the diameter is
        # built on the first search and kept
        diameters = count_builds(monkeypatch, "_diameter")
        t = random_labeled_tree(40, 9)
        first = best_edge(t), best_edge(t, "pruned"), pruning_ratio(t)
        assert diameters == [t]
        # a second round reads it again
        assert (best_edge(t), best_edge(t, "pruned"), pruning_ratio(t)) == first
        assert diameters == [t]

    def test_ratio_and_sweep_build_no_diameter(self, monkeypatch):
        diameters = count_builds(monkeypatch, "_diameter")
        pruning_ratio(random_labeled_tree(40, 9))
        swept = path_tree(30)
        sweep_path(swept, 0, 29)
        sweep_path(swept, 3, 20)
        assert diameters == []


class TestOracleStrategy:
    @pytest.mark.parametrize(
        "t", [random_labeled_tree(24, 3), path_tree(20), star_tree(12)], ids=["random", "path", "star"]
    )
    def test_scores_every_walked_pair(self, monkeypatch, t):
        # the oracle scores every non-adjacent pair once and skips none: as
        # many pairs as the exhaustive walk meets, and the same report
        calls = []
        oracle = insetedge.search.delta_oracle

        def counting(tree, u, v):
            calls.append((u, v))
            return oracle(tree, u, v)

        monkeypatch.setattr(insetedge.search, "delta_oracle", counting)
        r = best_edge(t, "oracle")
        assert len(calls) == len(set(calls)) == r.evaluated == len(candidate_pairs(t))
        exhaustive = best_edge(t)
        assert (r.best_pairs, r.best_delta) == (exhaustive.best_pairs, exhaustive.best_delta)

    @pytest.mark.parametrize("t", [path_tree(7), random_labeled_tree(24, 3)], ids=["p7", "random"])
    def test_never_walks(self, monkeypatch, t):
        expected = best_edge(t, "oracle")

        def no_walk(*args):
            raise AssertionError("the oracle strategy walked")

        monkeypatch.setattr(insetedge.search, "_walk", no_walk)
        assert best_edge(t, "oracle") == expected

    def test_finds_a_pair_the_walk_misses(self, monkeypatch, p7):
        # a walk that skips P_7's one best pair hides it from the formula
        # strategies, whose seed it was, and not from the oracle
        candidates = insetedge.search._candidates

        def dropping(tree, pruned, floor):
            pairs, sizes, cum = candidates(tree, pruned, floor)
            return ((u, v, d) for u, v, d in pairs if (u, v) != (1, 5)), sizes, cum

        monkeypatch.setattr(insetedge.search, "_candidates", dropping)
        with pytest.raises(RouteMismatch, match="seed"):
            best_edge(p7)
        r = best_edge(p7, "oracle")
        assert (r.best_pairs, r.best_delta) == (((1, 5),), 16)


def assert_pairs_match_walk(t):
    """oracle.non_adjacent_pairs, which reads only the adjacency, against
    the closed count and the pairs the exhaustive walk meets: two
    enumerations that share no code."""
    pairs = non_adjacent_pairs(t)
    assert pairs == sorted(pairs)
    assert len(pairs) == _non_adjacent_count(t)
    assert set(pairs) == set(candidate_pairs(t))


class TestNonAdjacentPairs:
    @given(t=savings_trees())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_walk(self, t):
        assert_pairs_match_walk(t)

    @DEEP_WALK_TREES
    def test_matches_deep_walks(self, t):
        assert_pairs_match_walk(t)


def maximizing_rows(n):
    """The rows (k, w_x, w_y) of _family_table(n) whose savings are the
    maximum over all trees on n vertices."""
    best = family_optimum(n)[3]
    return [(k, w_x, w_y) for k, w_x, w_y, delta in _family_table(n) if delta == best]


def kept_by_rule(t, pairs):
    """The pairs the pruning rule keeps: it drops a leaf pair at a distance
    outside {2, 3, 4, 6}."""
    leaf = leaves(t)
    return [(u, v) for u, v in pairs if not leaf & {u, v} or bfs_distances(t, u)[v] in (2, 3, 4, 6)]


def family_pairs(t, rows):
    """Every pair of t whose cycle carries the family configuration of one
    of rows: hanging weights (w, 1, ..., 1, w') with {w, w'} = {w_x, w_y}."""
    pairs = []
    for x, y in candidate_pairs(t):
        a = anatomize(t, x, y)
        middle = () if a.middle is None else (a.weight_middle,)
        w = a.weights_x + middle + a.weights_y[::-1]
        ends = (a.k, min(w[0], w[-1]), max(w[0], w[-1]))
        if ends in rows and all(c == 1 for c in w[1:-1]):
            pairs.append((x, y))
    return pairs


class TestPathIsExtremal:
    # the pair (a, b), a < b, of P_n hangs weights (a + 1, 1, ..., 1, n - b),
    # the family configuration of k = b - a + 1, so P_n attains the maximum
    # over all trees, and its ties are the pairs (w_x - 1, n - w_y) of the
    # maximizing rows, in both orders of the split
    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    @pytest.mark.parametrize("n", [*range(5, 65), 80, 127, 200, 256, 300, 512])
    def test_best_is_the_family_optimum(self, strategy, n):
        rows = maximizing_rows(n)
        ties = sorted({p for _, w_x, w_y in rows for p in ((w_x - 1, n - w_y), (w_y - 1, n - w_x))})
        t = path_tree(n)
        if strategy == "pruned":
            ties = kept_by_rule(t, ties)
        r = best_edge(t, strategy)
        assert r.best_delta == family_optimum(n)[3]
        assert list(r.best_pairs) == ties

    @pytest.mark.parametrize(
        "n, ties", [(10, ((1, 7), (2, 8))), (50, ((9, 39), (10, 40))), (300, ((61, 237), (62, 238)))]
    )
    def test_known_ties(self, n, ties):
        assert best_edge(path_tree(n)).best_pairs == ties

    def test_at_the_best_limit(self):
        # the rows come from sweep_path along the whole path, a route
        # independent of _family_table: its three families are the pairs
        # (a, b) with a + b in {n - 2, n - 1, n}, which are the balanced
        # rows of every k in both orders of the split; the best row is
        # scored again by family_delta and read from the table
        n = BEST_MAX_N
        t = path_tree(n)
        records = sweep_path(t, 0, n - 1)
        best = max(r.d_prime for r in records)
        ties = sorted((r.x, r.y) for r in records if r.d_prime == best)
        a, b = ties[0]
        assert family_delta(n, b - a + 1, a + 1, n - b) == best
        assert family_optimum(n)[3] == best
        r = best_edge(t)
        assert r.best_delta == best
        assert list(r.best_pairs) == ties

    @pytest.mark.parametrize("n", range(5, 65))
    def test_star_family_tree_at_the_optimum(self, n):
        k, w_x, w_y, best = family_optimum(n)
        t, ends = build_family_tree(n, k, w_x, w_y, "star")
        ties = family_pairs(t, maximizing_rows(n))
        assert ends in ties
        for strategy, expected in (("exhaustive", ties), ("pruned", kept_by_rule(t, ties))):
            r = best_edge(t, strategy)
            assert r.best_delta == best
            assert list(r.best_pairs) == expected


class TestRouteMismatch:
    def test_rescore_disagrees(self, monkeypatch, p7, capsys, tmp_path):
        direct = insetedge.search.delta_direct
        monkeypatch.setattr(insetedge.search, "delta_direct", lambda a: direct(a) + 1)
        with pytest.raises(RouteMismatch):
            best_edge(p7)
        f = tmp_path / "p7.tree"
        f.write_text(serialize_tree(p7))
        assert main(["best", str(f)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "RouteMismatch"


    def test_seed_above_every_walked_pair(self, monkeypatch, p7):
        # a seed that no walked pair reaches leaves no best pair to report
        monkeypatch.setattr(insetedge.search, "_seed", lambda tree, pruned: (10**6, (0, 2)))
        with pytest.raises(RouteMismatch, match="seed"):
            best_edge(p7)


class TestPrunedCompleteness:
    def test_random_non_star_trees(self):
        checked = 0
        seed = 0
        while checked < 40:
            n = 7 + (seed % 20)
            t = random_labeled_tree(n, 1000 + seed)
            seed += 1
            if len(leaves(t)) == n - 1:  # star: rule does not apply
                continue
            assert best_edge(t, "pruned").best_delta == best_edge(t).best_delta
            checked += 1


class TestPruningRatio:
    def test_p7(self, p7):
        assert pruning_ratio(p7) == Fraction(2, 15)

    def test_s5(self, s5):
        assert pruning_ratio(s5) == 0

    def test_too_small(self):
        with pytest.raises(NoCandidates):
            pruning_ratio(path_tree(3))

    def test_star_large(self):
        assert pruning_ratio(star_tree(30)) == 0

    def test_walks_no_pair(self, monkeypatch, p7):
        # the ratio comes from the closed count alone
        def no_walk(*args):
            raise AssertionError("pruning_ratio walked")

        monkeypatch.setattr(insetedge.search, "_walk", no_walk)
        assert pruning_ratio(p7) == Fraction(2, 15)


def assert_count_matches_walk(t):
    kept = len(candidate_pairs(t, "pruned"))
    total = _non_adjacent_count(t)
    assert _kept_count(t) == best_edge(t, "pruned").evaluated == kept
    assert pruning_ratio(t) == Fraction(total - kept, total)


class TestKeptCount:
    @pytest.mark.parametrize(
        "n, mean", [(4, 0), (5, 0), (6, Fraction(1, 36)), (7, Fraction(144, 2401))]
    )
    def test_every_labeled_tree(self, n, mean):
        # all n^(n-2) labeled trees, one per Prufer code, and the exact mean
        # of the ratio over them
        ratios = []
        for code in product(range(n), repeat=n - 2):
            t = Tree.from_edges(n, prufer_decode(n, code))
            assert_count_matches_walk(t)
            ratios.append(pruning_ratio(t))
        assert sum(ratios) / len(ratios) == mean

    @pytest.mark.parametrize("n", [4, 5, 8, 64, 255, 256, 257, 300])
    def test_stars(self, n):
        # every pair is two leaves at distance 2: the widest digit sums
        assert_count_matches_walk(star_tree(n))

    @pytest.mark.parametrize("n, seed", [(257, 1), (300, 2), (600, 3)])
    def test_random_trees_of_shared_ints(self, n, seed):
        assert_count_matches_walk(random_labeled_tree(n, seed))

    @DEEP_WALK_TREES
    def test_deep_walks(self, t):
        assert_count_matches_walk(t)

    @pytest.mark.parametrize(
        "t",
        [path_tree(200), star_tree(12), random_labeled_tree(60, 4), comb_tree(5, 4)],
        ids=["path", "star", "random", "comb"],
    )
    def test_each_vertex_packs_its_leaves_by_distance(self, monkeypatch, t):
        # the list the count sums, read where it is filtered to the leaves:
        # digit j of rank i's int is the number of leaves at distance j from
        # it, for j <= 6, and no digit past 6 is kept
        packed = []
        compress = insetedge.search.compress

        def spying(data, selectors):
            packed.append(list(data))
            return compress(data, selectors)

        monkeypatch.setattr(insetedge.search, "compress", spying)
        _kept_count(t)
        s = 2 * t.n.bit_length() + 1
        leaf = leaves(t)
        for v, value in zip(t._root0[0], packed[0]):
            dist = bfs_distances(t, v)
            counts = [sum(dist[x] == j for x in leaf) for j in range(7)]
            assert value == sum(c << j * s for j, c in enumerate(counts)), v
