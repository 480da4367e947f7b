import math
import random
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from insetedge import (
    OpCounter,
    anatomize,
    bfs_distances,
    delta_direct,
    leaves,
    random_labeled_tree,
    sweep_path,
)
import insetedge.counting
from insetedge.counting import _correlate
from insetedge.delta import DeltaRecord, delta_from_sizes
from insetedge.errors import AdjacentPair, IdOutOfRange, SameVertex
from insetedge.tree import _path_sizes

from conftest import path_tree


class TestInitSweep:
    """The first record of a sweep is the end-to-end pair."""

    def test_path_fixtures(self, p4, p5, p7):
        assert sweep_path(p7, 0, 6)[0].d_prime == 14
        assert sweep_path(p5, 0, 4)[0].d_prime == 5
        assert sweep_path(p4, 0, 3)[0].d_prime == 2

    def test_state_anchors(self, p7):
        recs = sweep_path(p7, 0, 6)
        assert (recs[0].x, recs[0].y, recs[0].k) == (0, 6, 7)
        # diagonals k = 7, 5, 3, then x-shifts and y-shifts k = 6, 4
        assert [r.k for r in recs] == [7, 5, 3, 6, 4, 6, 4]


class TestStepDiagonal:
    """Diagonal records (x_i, y_i): each step inward shortens k by 2."""

    def test_p7(self, p7):
        r = sweep_path(p7, 0, 6)[1]
        assert (r.x, r.y, r.k, r.d_prime) == (1, 5, 5, 16)

    def test_p9(self):
        r = sweep_path(path_tree(9), 0, 8)[1]
        assert (r.x, r.y, r.k, r.d_prime) == (1, 7, 7, 37)

    def test_matches_fresh_anatomy(self):
        t = random_labeled_tree(30, 3)
        # walk inward from some distant pair
        dist = bfs_distances(t, 0)
        y = max(range(30), key=lambda v: dist[v])
        dist_y = bfs_distances(t, y)
        x = max(range(30), key=lambda v: dist_y[v])
        recs = sweep_path(t, x, y)
        diagonals = recs[: dist_y[x] // 2]
        assert [r.k for r in diagonals] == list(range(dist_y[x] + 1, 2, -2))
        for r in diagonals:
            assert r.d_prime == delta_direct(anatomize(t, r.x, r.y))


class TestStepShift:
    """Shift records (x_{i+1}, y_i) and (x_i, y_{i+1}): k shortens by 1."""

    def test_p7(self, p7):
        r = sweep_path(p7, 0, 6)[3]
        assert (r.x, r.y, r.d_prime) == (1, 6, 14)

    def test_p6(self, p6):
        # two diagonals (k = 6 and 4) come first
        r = sweep_path(p6, 0, 5)[2]
        assert (r.x, r.y, r.k, r.d_prime) == (1, 5, 5, 9)

    def test_y_side_mirrors(self, p7):
        r = sweep_path(p7, 0, 6)[5]
        assert (r.x, r.y) == (0, 5)
        assert r.d_prime == delta_direct(anatomize(p7, 0, 5))


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

    @pytest.mark.parametrize(
        "x, y, error",
        [(3, 3, SameVertex), (2, 3, AdjacentPair), (0, 7, IdOutOfRange), (-1, 4, IdOutOfRange)],
    )
    def test_bad_pair_raises(self, p7, x, y, error):
        with pytest.raises(error):
            sweep_path(p7, x, y)

    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_pair_matches_direct(self, n, seed, data):
        t = random_labeled_tree(n, seed)
        x = data.draw(st.integers(0, n - 1))
        dist = bfs_distances(t, x)
        far = [v for v in range(n) if dist[v] >= 2]
        assume(far)
        y = data.draw(st.sampled_from(far))
        for r in sweep_path(t, x, y):
            assert r.k == bfs_distances(t, r.x)[r.y] + 1
            assert r.d_prime == delta_direct(anatomize(t, r.x, r.y))

    def test_every_record_sound(self):
        for seed in (0, 1, 2):
            t = random_labeled_tree(24, seed)
            lv = sorted(leaves(t))
            dist = {u: bfs_distances(t, u) for u in lv}
            for i, u in enumerate(lv):
                for v in lv[i + 1 :]:
                    if dist[u][v] < 2:
                        continue
                    for r in sweep_path(t, u, v):
                        assert r.d_prime == delta_direct(anatomize(t, r.x, r.y))

    def test_op_count_p128(self):
        # each record is charged the d // 2 terms of each ramp sum it is
        # made of: one sum for even k, two for odd k.  This is a model
        # count; the sweep computes a family's sums as one product
        c = OpCounter()
        sweep_path(path_tree(128), 0, 127, c)
        assert c.ops == 10080

    def test_op_count_quadratic(self):
        ratios = []
        for n in (128, 256, 512):
            c = OpCounter()
            sweep_path(path_tree(n), 0, n - 1, c)
            ratios.append(c.ops / (n * n))
        # constant c stable across doublings
        assert max(ratios) / min(ratios) < 1.1


def naive_correlate(c, e, count):
    return [sum(c[i + t] * e[t] for t in range(len(e) - i)) for i in range(count)]


class TestCorrelate:
    # bits is the bit length of the bound L max(c) max(e) that sizes the
    # digits at b = ceil(bits / 8) bytes (at least 1) when L = 1, so these
    # reach every width: 1, 2, 4 and 8 bytes map onto an array item as they
    # are, 3, 5, 6 and 7 are restrided into the next wider item, and from 9
    # (a bound of 2^64 or more) on the digits are packed one int at a time
    @pytest.mark.parametrize(
        "bits", [0, 7, 8, 15, 16, 23, 24, 31, 32, 39, 40, 47, 48, 55, 56, 63, 64, 65, 71, 200]
    )
    def test_matches_double_loop(self, bits):
        rng = random.Random(bits)
        for length in (1, 2, 3, 7, 40):
            # the largest entry whose bound L * top^2 has at most `bits` bits
            top = math.isqrt((2**bits - 1) // length)
            if length == 1:
                assert (top * top).bit_length() == bits
            c = [top] + [rng.randrange(top + 1) for _ in range(length - 1)]
            e = [rng.randrange(top + 1) for _ in range(length - 1)] + [top]
            # count past the length reads lags with no terms
            for count in (0, 1, length, length + 2):
                assert _correlate(c, e, count) == naive_correlate(c, e, count)

    @pytest.mark.parametrize("lag_sum", [2**63 - 1, 2**63, 2**64 - 1, 2**64])
    def test_64_bit_boundary(self, lag_sum):
        # a bound below 2^64 fits 8-byte digits and the array path; from
        # 2^64 on the digits are 9 bytes wide
        q = lag_sum // 4
        for c, e in (([lag_sum], [1]), ([q, q, q, lag_sum - 3 * q], [1, 1, 1, 1])):
            assert _correlate(c, e, 1) == [lag_sum]
            for count in (0, 1, len(e), len(e) + 2):
                assert _correlate(c, e, count) == naive_correlate(c, e, count)

    @pytest.mark.parametrize("bits, itemsize", [(8, 1), (16, 2), (64, 8)])
    def test_a_bound_of_8b_bits_packs_in_b_bytes(self, monkeypatch, bits, itemsize):
        # a digit holds values up to the bound, so a bound of 2^(8b) - 1
        # packs into the b-byte array item, not the next width up, and one
        # just below 2^64 keeps the array path
        make, codes = insetedge.counting.array, []

        def recording(code, *args):
            codes.append(code)
            return make(code, *args)

        monkeypatch.setattr(insetedge.counting, "array", recording)
        top = 2**bits - 1
        assert _correlate([top], [1], 1) == [top]
        assert codes and {make(code).itemsize for code in codes} == {itemsize}

    def test_extremes(self):
        big = 2**64 + 1
        assert _correlate([big], [big], 1) == [big * big]
        assert _correlate([big] * 5, [big] * 5, 6) == [big * big * m for m in (5, 4, 3, 2, 1, 0)]
        assert _correlate([0, 0, 3], [5, 0, 0], 3) == [0, 0, 15]
        assert _correlate([], [], 2) == [0, 0]
        # an all-zero side still leaves each digit wide enough for the other
        assert _correlate([300], [0], 1) == [0]
        assert _correlate([0], [300], 1) == [0]

    def test_anti_diagonal_sums(self):
        # count == len(c), c reversed: the shape of the matrix route, whose
        # lag i is the anti-diagonal sum sum_{i'+j = L-1-i} c[i'] * e[j]
        rng = random.Random(7)
        for length in (1, 2, 5, 33):
            c = [rng.randrange(1, 2**20) for _ in range(length)]
            e = [rng.randrange(1, 2**20) for _ in range(length)]
            expected = [
                sum(c[s - j] * e[j] for j in range(s + 1))
                for s in range(length - 1, -1, -1)
            ]
            assert _correlate(c[::-1], e, length) == expected


def reference_sweep(tree, x, y, counter=None):
    """The per-record route: one delta_from_sizes sum per record, with the
    ops sweep_path charges for it."""
    path, size = _path_sizes(tree, x, y)
    n, k = tree.n, len(path)

    def record(lo, hi):
        # the depth stacks of the root path [n, c_{hi-1}, ..., c_lo]
        sizes = [n, *reversed(size[lo:hi])]
        cum = [0, *accumulate(sizes[1:])]
        d = hi - lo
        if counter is not None:
            # d // 2 terms per ramp sum: one sum for odd d, two for even d
            counter.add(d // 2 if d % 2 else d)
        return DeltaRecord(
            x=path[lo], y=path[hi], k=hi - lo + 1, d_prime=delta_from_sizes(d, sizes, cum)
        )

    return (
        [record(i, k - 1 - i) for i in range((k - 1) // 2)]
        + [record(i + 1, k - 1 - i) for i in range((k - 2) // 2)]
        + [record(i, k - 2 - i) for i in range((k - 2) // 2)]
    )


class TestDeltaRecord:
    """The record type's contract: four named fields in a fixed order,
    built positionally or by keyword, immutable and hashable.  A record
    holds the exact savings only; the CLI derives the average-distance
    form when it prints."""

    def test_fields(self):
        assert DeltaRecord._fields == ("x", "y", "k", "d_prime")

    def test_positional_equals_keyword(self):
        a = DeltaRecord(1, 5, 5, 16)
        b = DeltaRecord(x=1, y=5, k=5, d_prime=16)
        assert a == b
        assert (a.x, a.y, a.k, a.d_prime) == (1, 5, 5, 16)

    def test_immutable_and_hashable(self):
        r = DeltaRecord(0, 6, 7, 14)
        for name in DeltaRecord._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        assert hash(r) == hash(DeltaRecord(0, 6, 7, 14))
        assert len({r, DeltaRecord(0, 6, 7, 14)}) == 1

    def test_sweep_returns_list_of_records(self):
        t = random_labeled_tree(60, 20)
        dist = bfs_distances(t, 0)
        y = max(range(60), key=lambda v: dist[v])
        recs = sweep_path(t, 0, y)
        assert type(recs) is list
        assert all(type(r) is DeltaRecord for r in recs)
        assert recs == reference_sweep(t, 0, y)


class TestPerRecordReference:
    def assert_same(self, t, x, y):
        ops, ref_ops = OpCounter(), OpCounter()
        assert sweep_path(t, x, y, ops) == reference_sweep(t, x, y, ref_ops)
        assert ops.ops == ref_ops.ops

    @given(n=st.integers(3, 80), seed=st.integers(0, 2**32), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_trees(self, n, seed, data):
        t = random_labeled_tree(n, seed)
        x = data.draw(st.integers(0, n - 1))
        dist = bfs_distances(t, x)
        far = [v for v in range(n) if dist[v] >= 2]
        assume(far)
        self.assert_same(t, x, data.draw(st.sampled_from(far)))

    @pytest.mark.parametrize("k", range(3, 10))
    def test_every_family_length(self, k):
        # k = 3 has one diagonal and empty shift families; each k adds one
        # record to the diagonals or to both shift families
        t = path_tree(k + 2)
        recs = sweep_path(t, 1, k)
        assert len(recs) == (k - 1) // 2 + 2 * ((k - 2) // 2)
        self.assert_same(t, 1, k)
        self.assert_same(t, k, 1)

    def test_every_pair_of_short_paths(self):
        # every ordered pair on P_n, n <= 20: each parity of k and each
        # offset of the path inside the tree, so every head and tail column
        # count of every family's window
        for n in range(3, 21):
            t = path_tree(n)
            for x in range(n):
                for y in range(n):
                    if abs(x - y) >= 2:
                        self.assert_same(t, x, y)

    def test_every_pair_of_small_random_trees(self):
        rng = random.Random(24)
        for _ in range(60):
            n = rng.randrange(3, 13)
            t = random_labeled_tree(n, rng.randrange(2**32))
            for x in range(n):
                dist = bfs_distances(t, x)
                for y in range(n):
                    if dist[y] >= 2:
                        self.assert_same(t, x, y)

    def test_large_sizes(self):
        # a 600-vertex stretch of a 2000-vertex path: sizes in the
        # hundreds and thousands, so each packed digit is several bytes
        t = path_tree(2000)
        self.assert_same(t, 700, 1300)


class TestOneProduct:
    @pytest.mark.parametrize("k", range(3, 41))
    def test_one_correlate_call_per_sweep(self, k, monkeypatch):
        calls = []

        def counted(c, e, count):
            calls.append(count)
            return _correlate(c, e, count)

        monkeypatch.setattr("insetedge.sweep._correlate", counted)
        t = path_tree(k + 3)
        recs = sweep_path(t, 2, k + 1)
        assert len(calls) == 1
        assert recs == reference_sweep(t, 2, k + 1)
