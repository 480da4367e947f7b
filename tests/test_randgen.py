import math
from collections import Counter

import pytest

from insetedge import Corpus, SplitMix64, leaf_stats, leaves, random_labeled_tree
from insetedge.errors import IdOutOfRange, OutOfDomain
from insetedge.randgen import _prufer_code, exact_leaf_mean, prufer_decode, stream_seed


class TestSplitMix64:
    def test_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_range(self):
        rng = SplitMix64(7)
        for _ in range(100):
            assert 0 <= rng.next_u64() < 1 << 64

    def test_below(self):
        rng = SplitMix64(1)
        draws = [rng.below(5) for _ in range(1000)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_below_bad_bound(self):
        with pytest.raises(OutOfDomain):
            SplitMix64(1).below(0)

    def test_stream_seed_stateless(self):
        assert stream_seed(9, 4) == stream_seed(9, 4)
        assert stream_seed(9, 4) != stream_seed(9, 5)


class TestPrufer:
    def test_decode_is_bijective(self):
        # Cayley: the n^(n-2) codes decode to n^(n-2) distinct labeled trees
        from itertools import product

        from insetedge import Tree

        for n in range(3, 7):
            trees = {
                Tree.from_edges(n, prufer_decode(n, code)).edges
                for code in product(range(n), repeat=n - 2)
            }
            assert len(trees) == n ** (n - 2)

    def test_known_code(self):
        # code (3, 3) on 4 vertices: star centered at 3
        assert sorted(prufer_decode(4, (3, 3))) == [(0, 3), (1, 3), (2, 3)]

    @pytest.mark.parametrize("code, bad", [([-1, 0], -1), ([0, 4], 4), ([9, 9], 9)])
    def test_bad_entry(self, code, bad):
        # a negative entry used to wrap to vertex n - 1, and one >= n raised IndexError
        with pytest.raises(IdOutOfRange) as exc:
            prufer_decode(4, code)
        assert str(exc.value) == f"code entry {bad} with n=4"

    @pytest.mark.parametrize("n, code", [(5, [0]), (5, [0, 1, 2, 3]), (4, []), (2, [0])])
    def test_wrong_length(self, n, code):
        # a short code used to decode to too few edges
        with pytest.raises(OutOfDomain):
            prufer_decode(n, code)


class TestRandomLabeledTree:
    def test_n2(self):
        assert random_labeled_tree(2, 123).edges == ((0, 1),)

    def test_determinism(self):
        assert random_labeled_tree(50, 1).edges == random_labeled_tree(50, 1).edges

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            random_labeled_tree(1, 0)

    def test_uniform_n3(self):
        # 3 labeled trees on 3 vertices; each should appear ~1/3 of the time
        draws = 30000
        counts = Counter(random_labeled_tree(3, stream_seed(0, i)).edges for i in range(draws))
        assert len(counts) == 3
        sigma = math.sqrt(draws * (1 / 3) * (2 / 3))
        for c in counts.values():
            assert abs(c - draws / 3) < 3 * sigma


class TestCorpus:
    def test_reproducible(self):
        c1 = Corpus(n=12, seed=5, count=4)
        c2 = Corpus(n=12, seed=5, count=4)
        assert [t.edges for t in c1.trees()] == [t.edges for t in c2.trees()]

    def test_random_access_matches_iteration(self):
        c = Corpus(n=9, seed=2, count=5)
        assert [t.edges for t in c.trees()] == [c.tree_at(i).edges for i in range(5)]


class TestLeafStats:
    def test_exact_mean_formula(self):
        # absence probability of one vertex from n-2 uniform symbols
        assert exact_leaf_mean(50) == pytest.approx(50 * (49 / 50) ** 48)
        assert exact_leaf_mean(50) == pytest.approx(18.959, abs=0.001)
        # the one tree on two vertices has both ends as leaves
        assert exact_leaf_mean(2) == 2

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_exact_mean_below_two(self, n):
        # 1/n or 0 ** -1 used to raise ZeroDivisionError at n = 0 and 1
        with pytest.raises(OutOfDomain):
            exact_leaf_mean(n)

    def test_small_n_brute_force(self):
        # enumerate all n^(n-2) labeled trees and average the leaf counts
        from itertools import product

        for n in (3, 4, 5):
            total = 0
            count = 0
            for code in product(range(n), repeat=n - 2):
                edges = prufer_decode(n, code)
                deg = [0] * n
                for u, v in edges:
                    deg[u] += 1
                    deg[v] += 1
                total += sum(1 for d in deg if d == 1)
                count += 1
            assert total / count == pytest.approx(exact_leaf_mean(n))

    def test_within_3_se(self):
        mean, se = leaf_stats(50, 10000, seed=0)
        assert se > 0
        assert abs(mean - exact_leaf_mean(50)) < 3 * se
        # mean stays within a few percent of the asymptotic value n/e
        assert abs(mean - 50 / math.e) / (50 / math.e) < 0.04

    def test_one_sample(self):
        # one tree: its own leaf count, and no spread to estimate
        for n, seed in ((3, 0), (10, 4), (50, 7)):
            tree = Corpus(n=n, seed=seed, count=1).tree_at(0)
            assert leaf_stats(n, 1, seed) == (len(leaves(tree)), 0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 20, 50, 257, 300])
    def test_code_counts_the_leaves(self, n):
        # leaf_stats counts from the code random_labeled_tree decodes
        for seed in range(12):
            code = _prufer_code(n, seed)
            assert n - len(set(code)) == len(leaves(random_labeled_tree(n, seed)))

    @pytest.mark.parametrize("n, samples, seed", [(3, 40, 0), (10, 25, 3), (50, 30, 7)])
    def test_matches_the_corpus_trees(self, n, samples, seed):
        counts = [len(leaves(t)) for t in Corpus(n=n, seed=seed, count=samples).trees()]
        mean = sum(counts) / samples
        var = (sum(c * c for c in counts) - samples * mean * mean) / (samples - 1)
        assert leaf_stats(n, samples, seed) == (mean, math.sqrt(max(var, 0.0) / samples))

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            leaf_stats(2, 10, 0)
        with pytest.raises(OutOfDomain):
            leaf_stats(10, 0, 0)
