"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Each test prints its verdict on the real terminal (bypassing capture), so a
`pytest -v` run shows nine explicit lines.  Every expected value here was
frozen from the brute-force oracle before the formula modules were written.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from insetedge import (
    OpCounter,
    Tree,
    anatomize,
    audit,
    bfs_distances,
    build_F,
    delta_direct,
    delta_oracle,
    delta_via_matrix,
    leaves,
    random_labeled_tree,
    serialize_tree,
    sweep_path,
)
from insetedge.bounds import exhaustive_scan, family_optimum
from insetedge.delta import delta_from_weights, delta_term_count
from insetedge.randgen import exact_leaf_mean, leaf_stats, stream_seed
from insetedge.search import best_edge

from conftest import path_tree, spider_tree, star_tree

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
# the CLI subprocesses import this checkout, as pytest's own path does
SRC = Path(__file__).resolve().parent.parent / "src"


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[ACCEPTANCE] criterion {number}: {verdict} — {detail}")


def brute_deltas(tree: Tree) -> tuple[np.ndarray, int]:
    """All-pairs BFS distance matrix and the Wiener sum: the oracle's raw
    material, used to score every pair without re-running BFS per pair."""
    dist = np.array([bfs_distances(tree, s) for s in range(tree.n)], dtype=np.int64)
    return dist, int(dist.sum()) // 2


def brute_delta_pair(dist: np.ndarray, x: int, y: int) -> int:
    # in T + xy a shortest path uses the new edge at most once, so the new
    # distance is the old one or a route through (x, y) in either direction
    via_xy = dist[x][:, None] + 1 + dist[y][None, :]
    via_yx = dist[y][:, None] + 1 + dist[x][None, :]
    new = np.minimum(dist, np.minimum(via_xy, via_yx))
    return int((dist - new).sum()) // 2


def test_criterion_1_oracle_equivalence(capsys):
    """direct == matrix == oracle on every non-adjacent pair of >=500 trees."""
    trees = 500
    pairs_checked = 0
    ok = True
    for i in range(trees):
        n = 4 + (i % 57)  # covers [4, 60] uniformly
        t = random_labeled_tree(n, stream_seed(20260823, i))
        dist, before = brute_deltas(t)
        oracle_sample = 0
        for u in range(n):
            for v in range(u + 1, n):
                if v in t.adjacency[u]:
                    continue
                a = anatomize(t, u, v)
                d_direct = delta_direct(a)
                d_matrix = delta_via_matrix(a)
                d_brute = brute_delta_pair(dist, u, v)
                if not (d_direct == d_matrix == d_brute):
                    ok = False
                if oracle_sample < 5:
                    # the named oracle itself, full BFS before and after
                    if delta_oracle(t, u, v) != d_brute:
                        ok = False
                    oracle_sample += 1
                pairs_checked += 1
        if not ok:
            break
    announce(capsys, 1, ok, f"{trees} trees (n in [4,60]), {pairs_checked} pairs, direct == matrix == oracle")
    assert ok


def test_criterion_2_fixed_values(capsys):
    checks = [
        (delta_oracle(path_tree(4), 0, 3), 2),
        (delta_oracle(path_tree(5), 0, 4), 5),
        (delta_oracle(path_tree(6), 0, 5), 8),
        (delta_oracle(path_tree(7), 0, 6), 14),
        (delta_oracle(spider_tree(), 0, 3), 4),
    ]
    ok = all(got == want for got, want in checks)
    # triangle rule on every k=3 pair of a handful of random trees
    for seed in range(5):
        t = random_labeled_tree(20, stream_seed(2, seed))
        for u in range(20):
            for v in range(u + 1, 20):
                if v in t.adjacency[u]:
                    continue
                a = anatomize(t, u, v)
                if a.k == 3 and delta_direct(a) != a.weights_x[0] * a.weights_y[0]:
                    ok = False
    announce(capsys, 2, ok, "P4=2 P5=5 P6=8 P7=14 spider=4, k=3 pairs = w_u*w_v")
    assert ok


def test_criterion_3_sweep(capsys):
    ok = True
    records_checked = 0
    # soundness: every emitted value equals a from-scratch evaluation,
    # on every leaf-to-leaf path of a 60-tree corpus
    for i in range(60):
        n = 6 + (i % 43)
        t = random_labeled_tree(n, stream_seed(31, i))
        lv = sorted(leaves(t))
        dist = {u: bfs_distances(t, u) for u in lv}
        for a_i, u in enumerate(lv):
            for v in lv[a_i + 1 :]:
                if dist[u][v] < 2:
                    continue
                for r in sweep_path(t, u, v):
                    if r.d_prime != delta_direct(anatomize(t, r.x, r.y)):
                        ok = False
                    records_checked += 1
    # instrumented counter equals the analytic per-k term count
    for k in range(3, 50):
        c = OpCounter()
        delta_from_weights(k, (1,) * (k // 2), (1,) * (k // 2), c)
        if c.ops != delta_term_count(k):
            ok = False
    # operation scaling: c = ops / k^2 stable, and >= 10x under recompute
    constants = {}
    recompute_at = {}
    sweep_at = {}
    for n in (256, 512, 1024, 2048, 4096, 8192):
        c = OpCounter()
        recs = sweep_path(path_tree(n), 0, n - 1, c)
        constants[n] = c.ops / (n * n)
        sweep_at[n] = c.ops
        recompute_at[n] = sum(delta_term_count(r.k) for r in recs)
    spread = max(constants.values()) / min(constants.values())
    if spread > 1.15:
        ok = False
    ratio = recompute_at[4096] / sweep_at[4096]
    if ratio < 10:
        ok = False
    announce(
        capsys,
        3,
        ok,
        f"{records_checked} sweep records sound; ops/k^2 spread {spread:.3f}; recompute/sweep at n=4096 = {ratio:.0f}x",
    )
    assert ok


def test_criterion_4_matrix_fixtures(capsys):
    ok = (
        build_F(4).entries == ((2, 0), (0, 0))
        and build_F(5).entries == ((3, 1), (1, 0))
        and build_F(6).entries == ((4, 2, 0), (2, 0, 0), (0, 0, 0))
    )
    # two independent constructions agree for all k <= 64: the assembled
    # matrix versus the per-pair saving coefficient k + 2 - 2(i+j)
    for k in range(3, 65):
        f = build_F(k)
        kp = f.k_prime
        bound = kp + 1 if k % 2 else kp
        for i in range(1, kp + 1):
            for j in range(1, kp + 1):
                coeff = k + 2 - 2 * (i + j) if i + j <= bound else 0
                if f.entries[i - 1][j - 1] != coeff:
                    ok = False
    announce(capsys, 4, ok, "F4/F5/F6 fixtures exact; F_k == saving coefficients for k <= 64")
    assert ok


def test_criterion_5_pruned_completeness(capsys):
    ok = True
    checked = 0
    i = 0
    while checked < 300:
        n = 7 + (i % 54)
        t = random_labeled_tree(n, stream_seed(55, i))
        i += 1
        if len(leaves(t)) == n - 1:  # star: pruning rule out of scope
            continue
        full = best_edge(t, "exhaustive")
        pruned = best_edge(t, "pruned")
        if pruned.best_delta != full.best_delta:
            ok = False
            ARTIFACT_DIR.mkdir(exist_ok=True)
            path = ARTIFACT_DIR / f"criterion5_violation_{checked}.tree"
            path.write_text(serialize_tree(t))
            break
        checked += 1
    announce(capsys, 5, ok, f"{checked} non-star trees (n in [7,60]): pruned max == exhaustive max")
    assert ok


def test_criterion_6_lower_bound(capsys):
    ok = True
    total = 0
    for n in range(4, 9):
        scan = exhaustive_scan(n)
        total += scan.tree_count
        if scan.min_delta < 1 or not scan.lower_bound_ok:
            ok = False
    announce(capsys, 6, ok, f"{total} labeled trees (n=4..8): delta >= 1, == 1 exactly at leaf pairs at distance 2")
    assert ok


def test_criterion_7_bounds_audit(capsys):
    r16 = audit(16)
    flagged = any(
        d["quantity_a"] == "claimed_upper(n=16)" and d["value_a"] == 232 and d["value_b"] == 234
        for d in r16.discrepancies
    )
    ok = (
        r16.claimed_upper == 232
        and r16.family_max == 234
        and r16.family_argmax == (11, 3, 4)
        and r16.oracle_confirmed
        and flagged
    )
    r8 = audit(8, exhaustive_limit=8)
    if not (
        r8.empirical_tree_count == 8**6
        and r8.empirical_max == 24
        and family_optimum(8)[3] == 24
        and r8.empirical_max == r8.family_max
    ):
        ok = False
    announce(
        capsys,
        7,
        ok,
        f"audit(16): claimed 232 vs family max 234 at (11,3,4), oracle-confirmed, discrepancy flagged; "
        f"audit(8): empirical max {r8.empirical_max} over {r8.empirical_tree_count} trees == family optimum 24",
    )
    assert ok


def test_criterion_8_leaf_statistics(capsys):
    mean, se = leaf_stats(50, 10000, seed=0)
    exact = exact_leaf_mean(50)  # 50 * (49/50)^48: absence from 48 symbols
    asym = 50 / math.e
    ok = se > 0 and abs(mean - exact) < 3 * se
    announce(
        capsys,
        8,
        ok,
        f"mean {mean:.4f} ± {se:.4f} over 10000 samples; exact {exact:.4f} (within 3 SE), n/e {asym:.4f}",
    )
    assert ok


def test_criterion_9_cli_determinism(capsys, tmp_path):
    tree_file = tmp_path / "spider.tree"
    tree_file.write_text(serialize_tree(spider_tree()))
    commands = [
        ["best", str(tree_file)],
        ["sweep", str(tree_file), "-p", "0", "3"],
        ["random", "--n", "12", "--count", "3", "--seed", "7"],
        ["bounds", "--n", "16"],
    ]
    ok = True
    for argv in commands:
        outputs = set()
        for _ in range(4):
            proc = subprocess.run(
                [sys.executable, "-m", "insetedge.cli", *argv],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True,
            )
            if proc.returncode != 0:
                ok = False
            outputs.add(proc.stdout)
        if len(outputs) != 1:
            ok = False
        else:
            json.loads(outputs.pop())  # must be one valid JSON document
    announce(capsys, 9, ok, "4 CLI commands byte-identical across 4 repeated runs each")
    assert ok
