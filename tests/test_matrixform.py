import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insetedge import (
    Tree,
    anatomize,
    build_F,
    delta_direct,
    delta_via_matrix,
    random_labeled_tree,
)
from insetedge.errors import KTooSmall, OutOfDomain
from insetedge.matrixform import _d_entry, _o_entry
from insetedge.tree import CycleAnatomy

from conftest import path_tree


def saving_coefficient(k: int, i: int, j: int) -> int:
    """Per-pair saving coefficient: k + 2 - 2(i+j) where positive by the
    distance condition, else 0."""
    kp = k // 2
    bound = kp + 1 if k % 2 else kp
    return k + 2 - 2 * (i + j) if i + j <= bound else 0


def reference_via_matrix(anatomy):
    """Norm one of F_k entrywise-multiplied with the weight outer product,
    cell by cell over the nonzero anti-triangle of F_k, one D_k / O_k entry
    per cell."""
    kp = anatomy.k_prime
    odd = anatomy.k % 2
    wx = anatomy.weights_x
    wy = anatomy.weights_y
    total = 0
    for i in range(1, kp + 1):
        wxi = wx[i - 1]
        for j in range(1, kp + odd - i + 1):
            f = _d_entry(kp, i, j) + (odd and _o_entry(kp, i, j))
            total += f * wxi * wy[j - 1]
    return total


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


class TestHankel:
    def test_entries_depend_on_anti_diagonal_only(self):
        # the matrix route reads one entry per anti-diagonal s = i + j, as
        # range(k % 2, k, 2) from s = k'+1 down to 2
        for k in range(3, 65):
            f = build_F(k)
            kp = f.k_prime
            diagonal = range(k % 2, k, 2)
            assert len(diagonal) == kp
            for i in range(1, kp + 1):
                for j in range(1, kp + 1):
                    s = i + j
                    expected = diagonal[kp + 1 - s] if s <= kp + 1 else 0
                    assert f.entries[i - 1][j - 1] == expected, (k, i, j)


class TestAgainstCoefficients:
    def test_all_k_up_to_64(self):
        for k in range(3, 65):
            f = build_F(k)
            for i in range(1, f.k_prime + 1):
                for j in range(1, f.k_prime + 1):
                    assert f.entries[i - 1][j - 1] == saving_coefficient(k, i, j), (k, i, j)


class TestDeltaViaMatrix:
    def test_k_too_small(self):
        # a hand-built k = 2 anatomy used to score 0 here while delta_direct raised
        a = CycleAnatomy(
            x=0, y=1, k=2, k_prime=1, x_side=(0,), y_side=(1,), middle=None,
            weights_x=(1,), weights_y=(1,), weight_middle=None,
        )
        for route in (delta_via_matrix, delta_direct):
            with pytest.raises(KTooSmall):
                route(a)

    @pytest.mark.parametrize(
        "change",
        [
            {"weights_x": (1, 1)},
            {"weights_y": (1, 1, 1, 1)},  # unequal sides used to raise OverflowError
            {"weights_x": (1, 1, 1, 1), "weights_y": (1, 1, 1, 1)},
            {"weights_x": (), "weights_y": ()},
        ],
    )
    def test_weight_count_is_k_prime(self, p7, change):
        # both weight routes take exactly k // 2 = 3 weights a side at k = 7
        a = anatomize(p7, 0, 6)._replace(**change)
        for route in (delta_via_matrix, delta_direct):
            with pytest.raises(OutOfDomain):
                route(a)

    @pytest.mark.parametrize("weight", [0, -1, -3])
    @pytest.mark.parametrize("side", ["weights_x", "weights_y"])
    def test_weight_below_one(self, p5, side, weight):
        # a hanging weight counts its own cycle vertex; at k = 5 a weight of
        # -3 used to score -19 directly and overflow the matrix route
        a = anatomize(p5, 0, 4)._replace(**{side: (weight, 1)})
        for route in (delta_via_matrix, delta_direct):
            with pytest.raises(OutOfDomain, match=">= 1"):
                route(a)

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


class TestAgainstReference:
    """delta_via_matrix equals the cell-by-cell double loop."""

    @given(n=st.integers(4, 60), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_every_pair(self, n, seed):
        t = random_labeled_tree(n, seed)
        for u in range(n):
            for v in range(u + 1, n):
                if v not in t.adjacency[u]:
                    a = anatomize(t, u, v)
                    assert delta_via_matrix(a) == reference_via_matrix(a), (u, v)

    def test_path_ends(self):
        # k = 3 and 4 have one anti-diagonal; both parities up to k = 200
        for k in range(3, 201):
            a = anatomize(path_tree(k), 0, k - 1)
            assert delta_via_matrix(a) == reference_via_matrix(a), k

    def test_long_spine_heavy_ends(self):
        # a 3001-vertex spine with 547 and 548 leaves on its ends: n = 4096,
        # k = 3001 and end weights far above the unit weights between them
        k, n = 3001, 4096
        edges = [(i, i + 1) for i in range(k - 1)]
        edges += [(0, v) for v in range(k, k + 547)]
        edges += [(k - 1, v) for v in range(k + 547, n)]
        a = anatomize(Tree.from_edges(n, edges), 0, k - 1)
        assert (a.k, a.weights_x[0], a.weights_y[0]) == (k, 548, 549)
        assert delta_via_matrix(a) == reference_via_matrix(a) == delta_direct(a)
