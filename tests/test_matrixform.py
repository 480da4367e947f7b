import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insetedge import anatomize, build_F, delta_direct, delta_via_matrix, random_labeled_tree
from insetedge.errors import KTooSmall
from insetedge.matrixform import build_D, build_O


def saving_coefficient(k: int, i: int, j: int) -> int:
    """Per-pair saving coefficient: k + 2 - 2(i+j) where positive by the
    distance condition, else 0."""
    kp = k // 2
    bound = kp + 1 if k % 2 else kp
    return k + 2 - 2 * (i + j) if i + j <= bound else 0


class TestFixtures:
    def test_f4(self):
        assert build_F(4).entries == ((2, 0), (0, 0))

    def test_f5(self):
        assert build_F(5).entries == ((3, 1), (1, 0))

    def test_f6(self):
        assert build_F(6).entries == ((4, 2, 0), (2, 0, 0), (0, 0, 0))

    def test_f7(self):
        assert build_F(7).entries == ((5, 3, 1), (3, 1, 0), (1, 0, 0))

    def test_f3(self):
        assert build_F(3).entries == ((1,),)

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            build_F(2)

    def test_decomposition(self):
        # F = D for even k, D + O for odd k
        for k in range(3, 30):
            d = build_D(k).entries
            o = build_O(k).entries
            f = build_F(k).entries
            kp = k // 2
            for i in range(kp):
                for j in range(kp):
                    expected = d[i][j] + (o[i][j] if k % 2 else 0)
                    assert f[i][j] == expected


class TestAgainstCoefficients:
    def test_all_k_up_to_64(self):
        for k in range(3, 65):
            f = build_F(k)
            for i in range(1, f.k_prime + 1):
                for j in range(1, f.k_prime + 1):
                    assert f.entries[i - 1][j - 1] == saving_coefficient(k, i, j), (k, i, j)


class TestDeltaViaMatrix:
    def test_spider(self, spider):
        assert delta_via_matrix(anatomize(spider, 0, 3)) == 4

    def test_star_leaves(self, s5):
        assert delta_via_matrix(anatomize(s5, 1, 2)) == 1

    @given(n=st.integers(4, 30), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct(self, n, seed):
        t = random_labeled_tree(n, seed)
        checked = 0
        for u in range(n):
            for v in range(u + 1, n):
                if v in t.adjacency[u]:
                    continue
                a = anatomize(t, u, v)
                assert delta_via_matrix(a) == delta_direct(a)
                checked += 1
                if checked >= 10:
                    return
