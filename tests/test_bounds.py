import math
import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insetedge import (
    anatomize,
    audit,
    build_family_tree,
    claimed_case_formula,
    claimed_upper,
    delta_direct,
    delta_oracle,
    exact_case_formula,
    family_delta,
    family_optimum,
)
from insetedge.bounds import (
    ExhaustiveScan,
    _family_table,
    critical_points,
    exhaustive_scan,
    prufer_decode_batch,
)
from insetedge.delta import delta_from_weights
from insetedge.errors import OutOfDomain
from insetedge.randgen import SplitMix64, prufer_decode


class TestClaimedUpper:
    def test_values(self):
        assert claimed_upper(16) == 232
        assert claimed_upper(24) == 821

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            claimed_upper(10)
        with pytest.raises(OutOfDomain):
            claimed_upper(8)


class TestCaseFormulas:
    def test_values(self):
        assert claimed_case_formula(16, 10) == 232
        assert claimed_case_formula(16, 11) == 232
        assert claimed_case_formula(16, 12) == 226

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            claimed_case_formula(16, 2)
        with pytest.raises(OutOfDomain):
            claimed_case_formula(16, 17)


class TestExactCaseFormula:
    @pytest.mark.parametrize("n", [*range(3, 121), 200, 256, 300])
    def test_equals_family_delta_on_every_row(self, n):
        for k, w_x, w_y, value in _family_table(n):
            assert value == exact_case_formula(n, k) == family_delta(n, k, w_x, w_y), k

    def test_domain(self):
        for n, k in ((16, 2), (16, 17), (3, 4)):
            with pytest.raises(OutOfDomain):
                exact_case_formula(n, k)

    def test_table_does_not_call_family_delta(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("family_delta called")

        monkeypatch.setattr("insetedge.bounds.family_delta", refuse)
        assert _family_table(16)[8] == (11, 3, 4, 234)


class TestFamilyDelta:
    def test_values(self):
        assert family_delta(16, 10, 4, 4) == 232
        assert family_delta(16, 11, 3, 4) == 234
        assert family_delta(8, 6, 2, 2) == 24

    def test_weight_constraint(self):
        with pytest.raises(OutOfDomain):
            family_delta(16, 10, 4, 5)

    def test_oracle_confirms(self):
        for n, k, wx, wy in ((16, 10, 4, 4), (16, 11, 3, 4), (8, 6, 2, 2)):
            t, pair = build_family_tree(n, k, wx, wy)
            assert delta_oracle(t, *pair) == family_delta(n, k, wx, wy)


class TestFamilyOptimum:
    def test_values(self):
        assert family_optimum(16) == (11, 3, 4, 234)
        assert family_optimum(8) == (6, 2, 2, 24)
        assert family_optimum(5) == (5, 1, 1, 5)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            family_optimum(4)

    @pytest.mark.parametrize("n", range(5, 41))
    def test_balanced_split_is_optimal(self, n):
        # every k and every anchor split; ties go to the smaller k, then to
        # the first split found, and the split is reported with w_x <= w_y
        best = None
        for k in range(3, n + 1):
            m = n - k + 2
            for w_x in range(1, m):
                value = family_delta(n, k, w_x, m - w_x)
                if best is None or value > best[3]:
                    best = (k, min(w_x, m - w_x), max(w_x, m - w_x), value)
        assert family_optimum(n) == best


def compositions(n, k):
    """The compositions of n into k positive parts, one of each pair of
    reverses: read from the other end of the cycle, the savings are the same."""
    for cuts in combinations(range(1, n), k - 1):
        w = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
        if w <= w[::-1]:
            yield w


def cycle_savings(w):
    """The savings of a cycle whose positions 0..k-1 carry hanging weights w."""
    k, kp = len(w), len(w) // 2
    return delta_from_weights(k, w[:kp], w[::-1][:kp])


@st.composite
def interior_move(draw):
    """A composition (w_0, ..., w_{k-1}), k <= 14, and an interior position
    whose weight is at least 2, so one off-cycle vertex hangs there."""
    k = draw(st.integers(3, 14))
    w = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    i = draw(st.integers(1, k - 2))
    if w[i] == 1:
        w[i] += draw(st.integers(1, 4))
    return w, i


class TestConvexityLemma:
    @pytest.mark.parametrize("n", range(5, 15))
    def test_family_row_is_the_maximum_over_all_weights(self, n):
        # any tree's savings at cycle length k depend only on the k hanging
        # weights around the cycle, so this is the maximum over all trees
        for k, _, _, value in _family_table(n):
            best = max(cycle_savings(w) for w in compositions(n, k))
            assert best == value, k

    @given(interior_move())
    @settings(max_examples=300, deadline=None)
    def test_exchange_step(self, move):
        # re-hanging one vertex from an interior position at the better of
        # the two cycle ends never lowers the savings
        w, i = move
        moved = []
        for end in (0, len(w) - 1):
            v = list(w)
            v[i] -= 1
            v[end] += 1
            moved.append(cycle_savings(v))
        assert max(moved) >= cycle_savings(w)

    @pytest.mark.parametrize("shape", ["star", "path"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_k3_is_the_anchor_product(self, n, shape):
        # at k = 3 only the two end groups are far enough apart to save
        for w_x in range(1, n - 1):
            w_y = n - 1 - w_x
            t, pair = build_family_tree(n, 3, w_x, w_y, shape)
            assert delta_oracle(t, *pair) == w_x * w_y
            assert cycle_savings([w_x, 1, w_y]) == w_x * w_y


class TestBuildFamilyTree:
    def test_star_shape(self):
        t, pair = build_family_tree(16, 10, 4, 4, "star")
        assert delta_direct(anatomize(t, *pair)) == 232

    def test_path_shape_same_delta(self):
        t_star, p1 = build_family_tree(16, 10, 4, 4, "star")
        t_path, p2 = build_family_tree(16, 10, 4, 4, "path")
        assert t_star.edges != t_path.edges
        assert delta_direct(anatomize(t_path, *p2)) == 232

    def test_small(self):
        t, pair = build_family_tree(8, 6, 2, 2, "star")
        assert delta_direct(anatomize(t, *pair)) == 24

    def test_bad_shape(self):
        with pytest.raises(OutOfDomain):
            build_family_tree(8, 6, 2, 2, "ring")


class TestExhaustiveScan:
    def test_n5(self):
        scan = exhaustive_scan(5)
        assert scan.tree_count == 125
        assert scan.lower_bound_ok
        assert scan.min_delta == 1

    def test_n6(self):
        scan = exhaustive_scan(6)
        assert scan.tree_count == 6**4
        assert scan.lower_bound_ok

    @pytest.mark.parametrize("n", [3, 10])
    def test_domain(self, n):
        with pytest.raises(OutOfDomain):
            exhaustive_scan(n)

    def test_argmax_is_oracle_true(self):
        from insetedge import Tree

        scan = exhaustive_scan(6)
        t = Tree.from_edges(6, scan.argmax_edges)
        assert delta_oracle(t, *scan.argmax_pair) == scan.max_delta

    # the first maximizing tree in Prüfer code order, then the smallest pair
    @pytest.mark.parametrize(
        "n, max_delta, argmax_edges, argmax_pair",
        [
            (4, 2, ((0, 1), (0, 2), (1, 3)), (0, 3)),
            (5, 5, ((0, 1), (0, 3), (1, 2), (2, 4)), (3, 4)),
            (6, 9, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 5)), (0, 5)),
            (7, 16, ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 6)), (0, 4)),
        ],
    )
    def test_record(self, n, max_delta, argmax_edges, argmax_pair):
        assert exhaustive_scan(n) == ExhaustiveScan(
            n=n,
            tree_count=n ** (n - 2),
            max_delta=max_delta,
            argmax_edges=argmax_edges,
            argmax_pair=argmax_pair,
            min_delta=1,
            lower_bound_ok=True,
        )


def assert_batch_decode_matches_reference(n, codes):
    import numpy as np

    lo, hi = prufer_decode_batch(n, np.array(codes).T)
    for t, code in enumerate(codes):
        assert list(zip(lo[:, t].tolist(), hi[:, t].tolist())) == prufer_decode(n, code), code


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_batch_decode_every_code(n):
    assert_batch_decode_matches_reference(n, list(product(range(n), repeat=n - 2)))


def test_batch_decode_seeded_codes_n9():
    rng = SplitMix64(9)
    assert_batch_decode_matches_reference(9, [[rng.below(9) for _ in range(7)] for _ in range(300)])


class TestCriticalPoints:
    def test_shape(self):
        cp = critical_points(16)
        assert set(cp) == {"integer_split", "fractional_split", "rounded_candidates"}
        assert all(isinstance(c, int) for c in cp["rounded_candidates"])


class TestAudit:
    def test_n16_discrepancy_surfaced(self):
        report = audit(16)
        assert report.claimed_upper == 232
        assert report.family_max == 234
        assert report.family_argmax == (11, 3, 4)
        assert report.oracle_confirmed
        flagged = [
            d
            for d in report.discrepancies
            if d["quantity_a"] == "claimed_upper(n=16)" and d["value_a"] == 232 and d["value_b"] == 234
        ]
        assert flagged, "the 232 vs 234 discrepancy must be surfaced"

    def test_n8_exhaustive(self):
        report = audit(8, exhaustive_limit=8)
        assert report.empirical_tree_count == 8**6
        assert report.empirical_max == 24
        assert report.family_max == 24
        assert report.lower_bound_ok

    def test_n5_path_is_optimal(self):
        # the best n=5 tree is P5 joined end to end (k = n, w = (1, 1)); the
        # only discrepancy left is the claimed k=3 case formula, 6 vs 4
        report = audit(5, exhaustive_limit=5)
        assert report.empirical_max == report.family_max == 5
        assert report.argmax_window_ok
        assert [d["quantity_a"] for d in report.discrepancies] == ["case_formula(n=5, k=3)"]

    @pytest.mark.parametrize(
        "n, claimed, family_max, k, k0",
        [
            (64, 16186, 17267, 39, 38),
            (128, 130418, 141414, 76, 75),
            (256, 1046242, 1144719, 151, 150),
        ],
    )
    def test_claimed_bound_falls_behind(self, n, claimed, family_max, k, k0):
        # the exact maximum grows as ((sqrt 2 - 1) / 6) n^3, above the
        # claimed n^3 / 16, and its argmax k sits just above K_0 = 2n -
        # isqrt(2 n^2), about (2 - sqrt 2) n, far from the claimed window
        # near n / 2
        report = audit(n)
        assert report.claimed_upper == claimed
        assert report.family_max == family_max
        assert report.family_argmax[0] == k
        assert 2 * n - math.isqrt(2 * n * n) == k0
        assert k0 <= k <= k0 + 2
        assert not report.argmax_window_ok
        assert family_max > n**3 / 16


# Run in a fresh interpreter: this test session already has numpy loaded.
NUMPY_PROBE = """
import contextlib, io, os, sys, tempfile

import insetedge
from insetedge import anatomize, audit, best_edge, delta_via_matrix, parse_tree, sweep_path
from insetedge.cli import main
from insetedge.search import STRATEGIES

text = "7\\n" + "".join(f"{i} {i + 1}\\n" for i in range(6))
t = parse_tree(text)
for strategy in STRATEGIES:
    best_edge(t, strategy)
sweep_path(t, 0, 6)
delta_via_matrix(anatomize(t, 0, 6))
audit(16)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "p7.tree")
    with open(path, "w") as fh:
        fh.write(text)
    for argv in (["best", path], ["sweep", path, "-p", "0", "6"], ["verify", path], ["bounds", "--n", "16"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded without a scan"

report = audit(6, exhaustive_limit=6)
assert "numpy" in sys.modules
assert report.empirical_max == report.family_max
assert report.lower_bound_ok is True
print("ok")
"""


def test_numpy_is_loaded_only_by_the_scan():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
