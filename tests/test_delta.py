import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insetedge import (
    OpCounter,
    ad_prime,
    anatomize,
    delta_direct,
    delta_from_weights,
    delta_oracle,
    random_labeled_tree,
)
from insetedge.delta import delta_from_sizes, delta_term_count
from insetedge.errors import KTooSmall, OutOfDomain
from insetedge.tree import _path_sizes

from conftest import path_tree


class TestDeltaDirect:
    def test_triangle(self, s5):
        assert delta_direct(anatomize(s5, 1, 2)) == 1

    def test_p5_ends(self, p5):
        assert delta_direct(anatomize(p5, 0, 4)) == 5

    def test_spider(self, spider):
        assert delta_direct(anatomize(spider, 0, 3)) == 4

    def test_p7_ends(self, p7):
        assert delta_direct(anatomize(p7, 0, 6)) == 14

    def test_triangle_rule_general(self):
        # any k=3 pair: delta = w_u * w_v
        t = random_labeled_tree(25, 7)
        for u in range(25):
            for v in range(u + 1, 25):
                if v in t.adjacency[u]:
                    continue
                a = anatomize(t, u, v)
                if a.k == 3:
                    assert delta_direct(a) == a.weights_x[0] * a.weights_y[0]

    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, n, seed):
        t = random_labeled_tree(n, seed)
        checked = 0
        for u in range(n):
            for v in range(u + 1, n):
                if v in t.adjacency[u]:
                    continue
                assert delta_direct(anatomize(t, u, v)) == delta_oracle(t, u, v)
                checked += 1
                if checked >= 12:  # cap per tree; full coverage in acceptance
                    return


class TestDeltaFromWeights:
    def test_unit_weights_path(self):
        for n in range(4, 12):
            a = anatomize(path_tree(n), 0, n - 1)
            assert delta_from_weights(a.k, a.weights_x, a.weights_y) == delta_direct(a)

    def test_literal_double_sum(self):
        # random non-unit weights on both sides, every k from 3 to 120: the
        # savings is the sum over all side pairs (i, j), 1 <= i, j <= k // 2,
        # of max(0, 2 (k + 1 - i - j) - k) w_x,i w_y,j
        rng = random.Random(20)
        for k in range(3, 121):
            kp = k // 2
            wx = [rng.randrange(1, 1000) for _ in range(kp)]
            wy = [rng.randrange(1, 1000) for _ in range(kp)]
            expected = sum(
                max(0, 2 * (k + 1 - i - j) - k) * wx[i - 1] * wy[j - 1]
                for i in range(1, kp + 1)
                for j in range(1, kp + 1)
            )
            assert delta_from_weights(k, wx, wy) == expected, k
            assert delta_from_weights(k, tuple(wx), tuple(wy)) == expected, k

    @pytest.mark.parametrize("k", [2, 1, 0, -3])
    def test_k_too_small(self, k):
        # k = 2 used to return 0: no cycle closes, as build_F(2) says
        with pytest.raises(KTooSmall):
            delta_from_weights(k, [1], [1])

    @pytest.mark.parametrize(
        "weights_x, weights_y",
        [
            ([1, 1, 1], [1]),  # used to return 6, reading one weight of y
            ([1], [1, 1, 1]),  # used to raise IndexError
            ([1, 1], [1, 1]),
            ([1] * 4, [1] * 4),
            ([], []),
        ],
    )
    def test_weight_count_is_k_prime(self, weights_x, weights_y):
        # k = 6 needs k // 2 = 3 weights a side
        with pytest.raises(OutOfDomain):
            delta_from_weights(6, weights_x, weights_y)

    def test_counter_matches_term_count(self):
        for k in range(3, 64):
            kp = k // 2
            c = OpCounter()
            delta_from_weights(k, (1,) * kp, (1,) * kp, c)
            assert c.ops == delta_term_count(k)

    def test_term_count_quadratic(self):
        # number of (i, j) terms with i + j <= bound grows ~ k^2 / 8
        assert delta_term_count(3) == 1
        assert delta_term_count(4) == 1
        assert delta_term_count(5) == 3
        assert delta_term_count(6) == 3
        assert delta_term_count(7) == 6


class TestDeltaFromSizes:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_with_any_cum_offset(self, seed):
        # the stacks of each pair's root path with other entries past d, as
        # the search walk leaves them, and cum shifted by a constant, as
        # the per-diagonal seed reference in test_search.py passes it: the
        # scorer reads cum only in differences
        t = random_labeled_tree(40, seed)
        rng = random.Random(seed)
        for u in range(t.n):
            for v in range(u + 1, t.n):
                if v in t.adjacency[u]:
                    continue
                path, size = _path_sizes(t, u, v)
                d = len(path) - 1
                sizes = [*size[::-1], *rng.choices(range(1, t.n), k=3)]
                offset = rng.randrange(-50, 50)
                cum = [offset + c for c in accumulate(sizes[1:], initial=0)]
                assert delta_from_sizes(d, sizes, cum) == delta_direct(anatomize(t, u, v)), (u, v)


class TestAdPrime:
    def test_fixed(self):
        assert ad_prime(2, 4) == Fraction(1, 3)
        assert ad_prime(1, 5) == Fraction(1, 10)
        assert ad_prime(14, 7) == Fraction(2, 3)

    def test_exactness(self):
        f = ad_prime(5, 5)
        assert isinstance(f, Fraction)
        assert f == Fraction(1, 2)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_fewer_than_two_vertices(self, n):
        # C(n, 2) is 0 at n = 0 and 1, which used to raise ZeroDivisionError
        with pytest.raises(OutOfDomain):
            ad_prime(0, n)
