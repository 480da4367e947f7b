import json
from fractions import Fraction
from itertools import accumulate

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
    candidate_pairs,
    delta_direct,
    leaves,
    pruning_ratio,
    random_labeled_tree,
    serialize_tree,
)
from insetedge.cli import main
from insetedge.errors import NoCandidates, RouteMismatch
from insetedge.delta import delta_from_sizes
from insetedge.search import _candidates

from conftest import path_tree, star_tree


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
    is yielded, and check the prefix sums; return the walk's distances in
    order."""
    pairs, sizes, rest, cum = _candidates(t, False)
    distances = []
    for u, v, d in pairs:
        assert delta_from_sizes(d, sizes, rest) == delta_direct(anatomize(t, u, v)), (u, v, d)
        assert cum[: d + 1] == [0, *accumulate(sizes[1 : d + 1])], (u, v, d)
        distances.append(d)
    return distances


def chebyshev_cap(d, n, cum):
    """The cap best_edge compares with its running best, as a fraction:
    top * (L n - cum[L]) / L with L = d // 2 (see delta.py)."""
    half = d // 2
    h = d - half
    top = 2 * (cum[d] - cum[h]) if d % 2 else (cum[d] - cum[h]) + (cum[d] - cum[h + 1])
    return Fraction(top * (half * n - cum[half]), half)


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
        # entries of sizes, rest and cum past d are left from deeper
        # pairs: a pair at even d that follows a deeper one reads sizes up
        # to d, and cum[d], which must be its own
        distances = assert_stack_scores_match_direct(t)
        assert any(a > b and b % 2 == 0 for a, b in zip(distances, distances[1:]))


def assert_cap_bounds_every_pair(t):
    pairs, sizes, rest, cum = _candidates(t, False)
    for u, v, d in pairs:
        assert chebyshev_cap(d, t.n, cum) >= delta_from_sizes(d, sizes, rest), (u, v, d)


def watch_scoring(t, strategy):
    """best_edge's report, the pairs its walk yields in order, and the set
    of those it scores with delta_from_sizes."""
    walked, scored = [], set()

    def watched(tree, pruned):
        pairs, *stacks = _candidates(tree, pruned)

        def watch():
            for u, v, d in pairs:
                walked.append((u, v))
                yield u, v, d

        return watch(), *stacks

    def scoring(d, sizes, rest):
        scored.add(walked[-1])
        return delta_from_sizes(d, sizes, rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(insetedge.search, "_candidates", watched)
        mp.setattr(insetedge.search, "delta_from_sizes", scoring)
        return best_edge(t, strategy), walked, scored


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
        # a pair best_edge does not score must score below the best of the
        # pairs scored before it, so a tie is always scored
        r, walked, scored = watch_scoring(t, strategy)
        assert r.evaluated == len(walked)
        best = -1
        for u, v in walked:
            score = delta_direct(anatomize(t, u, v))
            if (u, v) in scored:
                best = max(best, score)
            else:
                assert score < best, (u, v)
        assert best == r.best_delta

    def test_skips_most_pairs_of_a_random_tree(self):
        _, walked, scored = watch_scoring(random_labeled_tree(80, 11), "exhaustive")
        assert len(scored) < len(walked) // 4


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
