import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insetedge import (
    OpCounter,
    anatomize,
    delta_direct,
    init_sweep,
    random_labeled_tree,
    step_diagonal,
    sweep_path,
)
from insetedge.errors import CycleTooShort
from insetedge.sweep import shift_gain

from conftest import path_tree


class TestInitSweep:
    def test_path_fixtures(self, p4, p5, p7):
        assert init_sweep(p7, 0, 6).delta == 14
        assert init_sweep(p5, 0, 4).delta == 5
        assert init_sweep(p4, 0, 3).delta == 2

    def test_state_anchors(self, p7):
        s = init_sweep(p7, 0, 6)
        assert (s.x, s.y, s.k) == (0, 6, 7)
        assert s.path == (0, 1, 2, 3, 4, 5, 6)


class TestStepDiagonal:
    def test_p7(self, p7):
        s = step_diagonal(init_sweep(p7, 0, 6))
        assert (s.x, s.y, s.k) == (1, 5, 5)
        assert s.weights_x == (2, 1) and s.weights_y == (2, 1)
        assert s.delta == 16

    def test_p9(self):
        s = step_diagonal(init_sweep(path_tree(9), 0, 8))
        assert (s.x, s.y, s.k, s.delta) == (1, 7, 7, 37)

    def test_k4_raises(self, p4):
        with pytest.raises(CycleTooShort):
            step_diagonal(init_sweep(p4, 0, 3))

    def test_matches_fresh_anatomy(self):
        t = random_labeled_tree(30, 3)
        # walk inward from some distant pair
        from insetedge import bfs_distances

        dist = bfs_distances(t, 0)
        y = max(range(30), key=lambda v: dist[v])
        dist_y = bfs_distances(t, y)
        x = max(range(30), key=lambda v: dist_y[v])
        s = init_sweep(t, x, y)
        while s.k >= 5:
            s = step_diagonal(s)
            assert s.delta == delta_direct(anatomize(t, s.x, s.y))


class TestStepShift:
    # the shift step (x1, y1) -> (x2, y1) or (x1, y2) is scored by shift_gain
    def test_p7(self, p7):
        s = init_sweep(p7, 0, 6)
        assert s.delta + shift_gain(s, "x") == 14

    def test_p6(self, p6):
        s = init_sweep(p6, 0, 5)
        assert s.delta + shift_gain(s, "x") == 9

    def test_k3_raises(self, s5):
        with pytest.raises(CycleTooShort):
            shift_gain(init_sweep(s5, 1, 2), "x")

    def test_bad_side(self, p7):
        with pytest.raises(ValueError):
            shift_gain(init_sweep(p7, 0, 6), "z")

    def test_y_side_mirrors(self, p7):
        s = init_sweep(p7, 0, 6)
        assert s.delta + shift_gain(s, "y") == delta_direct(anatomize(p7, 0, 5))


class TestStepStateInvariants:
    @given(n=st.integers(8, 40), seed=st.integers(0, 2**32), moves=st.lists(st.sampled_from(["d", "x", "y"]), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_random_walks(self, n, seed, moves):
        t = random_labeled_tree(n, seed)
        from insetedge import bfs_distances

        dist = bfs_distances(t, 0)
        y = max(range(n), key=lambda v: dist[v])
        dist_y = bfs_distances(t, y)
        x = max(range(n), key=lambda v: dist_y[v])
        if dist_y[x] < 2:
            return
        s = init_sweep(t, x, y)
        for mv in moves:
            if mv == "d":
                if s.k < 5:
                    break
                s = step_diagonal(s)
            else:
                # score the shifted pair without moving there
                if s.k < 4:
                    break
                u, v = (s.path[s.lo + 1], s.y) if mv == "x" else (s.x, s.path[s.hi - 1])
                assert s.delta + shift_gain(s, mv) == delta_direct(anatomize(t, u, v))
                continue
            fresh = anatomize(t, s.x, s.y)
            assert s.k == fresh.k
            assert s.weights_x == fresh.weights_x
            assert s.weights_y == fresh.weights_y
            assert s.weight_middle == fresh.weight_middle
            assert s.delta == delta_direct(fresh)


class TestSweepPath:
    def test_p7(self, p7):
        recs = [(r.x, r.y, r.d_prime) for r in sweep_path(p7, 0, 6)]
        assert recs == [
            (0, 6, 14),
            (1, 5, 16),
            (2, 4, 9),
            (1, 6, 14),
            (2, 5, 12),
            (0, 5, 14),
            (1, 4, 12),
        ]

    def test_p5(self, p5):
        # the shifted pairs (1,4) and (0,3) both save 4: each is a k=4 cycle
        # whose only counted term has coefficient 2 and weights 2 and 1
        recs = [(r.x, r.y, r.d_prime) for r in sweep_path(p5, 0, 4)]
        assert recs == [(0, 4, 5), (1, 3, 4), (1, 4, 4), (0, 3, 4)]

    def test_p4(self, p4):
        recs = [(r.x, r.y, r.d_prime) for r in sweep_path(p4, 0, 3)]
        assert recs == [(0, 3, 2), (1, 3, 2), (0, 2, 2)]

    def test_every_record_sound(self):
        for seed in (0, 1, 2):
            t = random_labeled_tree(24, seed)
            from insetedge import bfs_distances, leaves

            lv = sorted(leaves(t))
            dist = {u: bfs_distances(t, u) for u in lv}
            for i, u in enumerate(lv):
                for v in lv[i + 1 :]:
                    if dist[u][v] < 2:
                        continue
                    for r in sweep_path(t, u, v):
                        assert r.d_prime == delta_direct(anatomize(t, r.x, r.y))

    def test_op_count_quadratic(self):
        ratios = []
        for n in (128, 256, 512):
            c = OpCounter()
            sweep_path(path_tree(n), 0, n - 1, c)
            ratios.append(c.ops / (n * n))
        # constant c stable across doublings
        assert max(ratios) / min(ratios) < 1.1
