"""Claim-checker for the extremal savings bounds.

The closed-form bound and per-cycle-length case formulas are treated as
claims, never as ground truth: the audit evaluates them, evaluates the
extremal weight configuration exactly through the savings formula, checks
the built extremal tree against the brute-force oracle, optionally sweeps
every labeled tree at small n, and reports every mismatch instead of
suppressing it.

The family values are the exact maxima over all trees (the convexity
lemma).  A shortcut edge closing a cycle of length k saves
sum c(|pos a - pos b|) over vertex pairs, where pos is the cycle position
of the group a vertex hangs from and c(g) = max(0, 2g - k).  With every
other vertex fixed, one off-cycle vertex's share as a function of its
position p in 0..k-1 is sum_b c(|p - pos b|), a sum of convex functions,
so moving it to one of the two cycle ends loses nothing.  Repeating this
turns any tree into the family configuration (w_x, 1, ..., 1, w_y) with
the same k and savings at least as large, and the balanced split argument
of family_optimum finishes: the maximum over all trees on n vertices at
cycle length k is the balanced row of _family_table(n), and the maximum
over all trees is family_optimum(n).

The lemma never moves a vertex that already hangs at an end, so it also
bounds a pair one of whose ends carries a known weight w: the family
configuration it reaches has a first anchor of at least w, and with m =
n - k + 2 the anchor product is at most floor(m/2) ceil(m/2) for 2w <= m
and w (m - w) above.  anchored_case_bound is that root bound; the search
walk reads it as a distance limit per root (search.py).

The path P_n attains that maximum.  Its pair (a, b), a < b, hangs the
weights (a + 1, 1, ..., 1, n - b), the family configuration of cycle
length k = b - a + 1, so every row of _family_table(n) is a pair of P_n:
(w_x - 1, n - w_y) and, for the other order of the split, (w_y - 1,
n - w_x).  search.best_edge on P_n therefore reports family_optimum(n),
with the pairs of the maximizing rows as its ties.

Every term is >= 0 and the end pair alone gives w_x w_y (k - 2), so the
savings are >= 1; for k = 3 they are w_x w_y exactly, so they equal 1
only at two leaves at distance 2.

The claimed bound n^3/16 has the wrong leading constant.  With m = n -
k + 2, the balanced row at k is about k n (n - k) / 4 + k^3 / 24, which
peaks at k = (2 - sqrt 2) n with value ((sqrt 2 - 1) / 6) n^3, about
0.0690 n^3.  So the exact maximum grows as ((sqrt 2 - 1) / 6) n^3, and
claimed_upper falls ever further below it: 16,186 against 17,267 at n =
64, 1,046,242 against 1,144,719 at n = 256.  The smallest maximizing k
lies in K_0 .. K_0 + 2 with K_0 = 2n - isqrt(2 n^2), not in the claimed
window ceil(n/2) + 1 .. ceil(n/2) + 4; that was checked numerically for
5 <= n <= 3000 and is not proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .delta import delta_direct, delta_from_weights
from .errors import OutOfDomain
from .oracle import delta_oracle
from .randgen import prufer_decode
from .tree import Tree, anatomize


def claimed_upper(n: int) -> int:
    """Claimed maximum savings over all trees on n vertices:
    n^3/16 - n^2/32 - 9n/8 + 2, stated for n = 0 mod 8, n >= 16."""
    if n % 8 != 0 or n < 16:
        raise OutOfDomain(f"n={n}: need n = 0 mod 8 and n >= 16")
    value = (
        Fraction(n**3, 16) - Fraction(n**2, 32) - Fraction(9 * n, 8) + 2
    )
    assert value.denominator == 1
    return int(value)


def claimed_case_formula(n: int, k: int) -> int:
    """Claimed maximal savings at fixed cycle length k: with m = n - k + 2,
    (k - 2) floor(m/2) ceil(m/2) + a m / 4 + b / 2 - c / 8, where the
    claim's three parity cases each give one row (a, b, c)."""
    if k < 3 or k > n:
        raise OutOfDomain(f"n={n}, k={k}")
    m = n - k + 2  # total weight at the two anchors
    if k % 2:
        a, b, c = (k - 3) ** 2, (k - 5) ** 2, (k - 5) * (k - 3)
    elif k % 4 == 2:
        a, b, c = (k - 2) * (k - 4), (k - 4) * (k - 6), (k - 6) * (k - 2)
    else:
        a, b, c = (k - 2) * (k - 4), (k - 4) * (k - 6), (k - 4) ** 2
    eighths = 8 * (k - 2) * (m // 2) * ((m + 1) // 2) + 2 * a * m + 4 * b - c
    assert eighths % 8 == 0
    return eighths // 8


def exact_case_formula(n: int, k: int) -> int:
    """Exact maximal savings at fixed cycle length k, in O(1): the balanced
    family row (k - 2) floor(m/2) ceil(m/2) + c_1 m + c_0 with m = n - k + 2,
    where c_1 = (k-3)^2/4 and c_0 = (k-3)(k-4)(k-5)/24 for odd k, and
    c_1 = (k-2)(k-4)/4 and c_0 = (k-2)(k-4)(k-6)/24 for even k.  It is the
    row family_delta evaluates term by term; the tests compare the two."""
    if k < 3 or k > n:
        raise OutOfDomain(f"n={n}, k={k}")
    m = n - k + 2
    c_1, c_0 = _side_coefficients(k)
    return (k - 2) * (m // 2) * ((m + 1) // 2) + c_1 * m + c_0


def _side_coefficients(k: int) -> tuple[int, int]:
    """(c_1, c_0) of the family row at cycle length k >= 3: its savings are
    (k - 2) w_x w_y + c_1 (w_x + w_y) + c_0."""
    if k % 2:
        return (k - 3) ** 2 // 4, (k - 3) * (k - 4) * (k - 5) // 24
    return (k - 2) * (k - 4) // 4, (k - 2) * (k - 4) * (k - 6) // 24


def anchored_case_bound(n: int, k: int, w: int) -> int:
    """Most savings a shortcut edge closing a cycle of length k can reach in
    a tree on n vertices when one end of its path already carries the
    hanging weight w, 1 <= w <= m - 1 with m = n - k + 2: (k - 2) P + c_1 m
    + c_0 with exact_case_formula's c_1 and c_0, where P = floor(m/2)
    ceil(m/2) if 2w <= m and P = w (m - w) otherwise.

    The convexity lemma (module docstring) moves every off-cycle vertex at
    an inner position to an end and never moves one that sits at an end,
    so it reaches a family configuration whose first anchor carries at
    least w; the product of the two anchors is then at most P.  With 2w
    <= m this is exact_case_formula(n, k)."""
    m = n - k + 2
    if k < 3 or k > n or not 1 <= w < m:
        raise OutOfDomain(f"n={n}, k={k}, w={w}")
    c_1, c_0 = _side_coefficients(k)
    product = (m // 2) * ((m + 1) // 2) if 2 * w <= m else w * (m - w)
    return (k - 2) * product + c_1 * m + c_0


def _check_family(n: int, k: int, w_x: int, w_y: int) -> None:
    """Raise OutOfDomain unless (k, w_x, w_y) is a family configuration on
    n vertices: k >= 3 and positive anchor weights summing to n - k + 2."""
    if k < 3 or w_x < 1 or w_y < 1 or w_x + w_y != n - k + 2:
        raise OutOfDomain(f"n={n}, k={k}, w_x={w_x}, w_y={w_y}")


def family_delta(n: int, k: int, w_x: int, w_y: int) -> int:
    """Exact savings of the extremal-family configuration: cycle length k,
    anchor weights w_x / w_y, every other cycle weight 1."""
    _check_family(n, k, w_x, w_y)
    kp = k // 2
    weights_x = [w_x] + [1] * (kp - 1)
    weights_y = [w_y] + [1] * (kp - 1)
    return delta_from_weights(k, weights_x, weights_y)


def _family_table(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(k, w_x, w_y, exact_case_formula) for 3 <= k <= n with the balanced
    anchor split w_x = floor(m/2), w_y = ceil(m/2), m = n - k + 2, in order
    of k: the family_delta of each row, in O(1) a row."""
    return tuple(
        (k, (n - k + 2) // 2, (n - k + 3) // 2, exact_case_formula(n, k))
        for k in range(3, n + 1)
    )


def family_optimum(n: int) -> tuple[int, int, int, int]:
    """(k, w_x, w_y, value) maximizing family_delta over every feasible k and
    anchor split.  Ties break toward smaller k, and w_x <= w_y.

    Only the balanced split needs evaluating.  Every cycle weight but the
    two anchors is 1 and the side coefficients are symmetric, so the
    savings are (k - 2) w_x w_y + c_1 (w_x + w_y) + c_0 with c_0, c_1
    fixed by k.  With w_x + w_y = m fixed, the product w_x w_y, and with
    it the savings, is largest at the balanced split."""
    if n < 5:
        raise OutOfDomain(f"n={n} < 5")
    return max(_family_table(n), key=lambda row: row[3])


def build_family_tree(
    n: int, k: int, w_x: int, w_y: int, shape: str = "star"
) -> tuple[Tree, tuple[int, int]]:
    """A tree realizing the family configuration: a k-vertex path 0..k-1
    with w_x - 1 extra vertices attached at 0 and w_y - 1 at k-1, the
    attachments shaped as a star or a path.  Returns (tree, (0, k-1))."""
    if shape not in ("star", "path"):
        raise OutOfDomain(f"shape={shape!r}")
    _check_family(n, k, w_x, w_y)
    edges = [(i, i + 1) for i in range(k - 1)]
    next_id = k
    for anchor, count in ((0, w_x - 1), (k - 1, w_y - 1)):
        prev = anchor
        for _ in range(count):
            edges.append((prev, next_id))
            if shape == "path":
                prev = next_id
            next_id += 1
    return Tree.from_edges(n, edges), (0, k - 1)


@dataclass(frozen=True)
class ExhaustiveScan:
    """Extremes of the savings over every labeled tree on n vertices."""

    n: int
    tree_count: int
    max_delta: int
    argmax_edges: tuple[tuple[int, int], ...]
    argmax_pair: tuple[int, int]
    min_delta: int
    lower_bound_ok: bool  # delta >= 1 everywhere, == 1 iff leaves at distance 2


# trees per vectorized batch in exhaustive_scan
_SCAN_BATCH = 2048


def prufer_decode_batch(n: int, codes):
    """Edges of the labeled trees whose Prüfer sequences are the columns of
    codes, an (n - 2, b) integer array, as two (n - 1, b) arrays lo < hi.
    Column by column this is randgen.prufer_decode, the reference decoder:
    each of the n - 2 steps joins the smallest vertex of degree 1 in every
    column to that column's next code entry, and the last step joins the
    two vertices left."""
    import numpy as np

    b = codes.shape[1]
    cols = np.arange(b)
    deg = 1 + (codes[:, None, :] == np.arange(n)[:, None]).sum(axis=0, dtype=np.int8)
    lo = np.empty((n - 1, b), dtype=np.intp)
    hi = np.empty((n - 1, b), dtype=np.intp)
    for i, v in enumerate(codes):
        leaf = (deg == 1).argmax(axis=0)
        np.minimum(leaf, v, out=lo[i])
        np.maximum(leaf, v, out=hi[i])
        deg[leaf, cols] = 0
        deg[v, cols] -= 1
    last = deg == 1
    lo[-1] = last.argmax(axis=0)
    hi[-1] = n - 1 - last[::-1].argmax(axis=0)
    return lo, hi


def exhaustive_scan(n: int) -> ExhaustiveScan:
    """Scan all n^(n-2) labeled trees (Prüfer enumeration) and all candidate
    pairs.  Savings come from the tree distance matrix (Floyd–Warshall): for
    a pair x < y the new distance of u, v is min(d(u, v), r(u, v), r(v, u))
    with r(u, v) = d(u, x) + 1 + d(y, v).  A batch's codes are the base-n
    digits of a range of indices, in itertools.product order; the batch is
    decoded and scored in numpy, with int8 distances and the tree index as
    the last axis, so no Python code runs per tree.  This is the package's
    only use of numpy, and the only place that imports it, so a run that
    never scans never loads it."""
    if not 4 <= n <= 9:
        raise OutOfDomain(f"n={n}: exhaustive scan supported for 4 <= n <= 9")
    import numpy as np

    big = 4 * n
    # the largest sum formed: two distances of at most big, plus the new edge
    assert 2 * big + 1 <= np.iinfo(np.int8).max
    eye = np.eye(n, dtype=bool)
    xs, ys = np.triu_indices(n, 1)
    powers = n ** np.arange(n - 3, -1, -1)[:, None]

    best = -1
    best_code: list[int] = []
    best_pair = (-1, -1)
    # every tree with n >= 4 has a non-adjacent pair, so none keeps the fill
    fill = min_delta = big * n * n
    lower_ok = True
    total = n ** (n - 2)

    for start in range(0, total, _SCAN_BATCH):
        codes = np.arange(start, min(start + _SCAN_BATCH, total)) // powers % n
        b = codes.shape[1]
        lo, hi = prufer_decode_batch(n, codes)
        cols = np.arange(b)
        dist = np.full((n, n, b), big, dtype=np.int8)
        dist[eye] = 0
        dist[lo, hi, cols] = 1
        dist[hi, lo, cols] = 1
        for m in range(n):
            np.minimum(dist, dist[:, m, None] + dist[None, m], out=dist)
        # route[p, u, v, t] = d(u, x_p) + 1 + d(y_p, v) in tree t
        to_x = dist[xs] + 1
        to_y = dist[ys]
        route = to_x[:, :, None] + to_y[:, None, :]
        np.minimum(route, to_y[:, :, None] + to_x[:, None, :], out=route)
        np.minimum(route, dist, out=route)
        old = dist.sum(axis=(0, 1), dtype=np.int32)
        delta = (old - route.sum(axis=(1, 2), dtype=np.int32)) // 2  # (P, b)
        pair_dist = dist[xs, ys]
        nonadj = pair_dist > 1

        # tree-major, so argmax takes the first tree, then the first pair
        masked_max = np.where(nonadj, delta, -1).T
        local_max = int(masked_max.max())
        if local_max > best:
            best = local_max
            t, p = np.unravel_index(int(masked_max.argmax()), masked_max.shape)
            best_code = codes[:, t].tolist()
            best_pair = (int(xs[p]), int(ys[p]))

        local_min = int(np.where(nonadj, delta, fill).min())
        min_delta = min(min_delta, local_min)
        if local_min < 1:
            lower_ok = False
        leaf = (dist == 1).sum(axis=1) == 1
        ones = (delta == 1) & nonadj
        leaf_pairs_at_2 = leaf[xs] & leaf[ys] & (pair_dist == 2)
        if not np.array_equal(ones, leaf_pairs_at_2):
            lower_ok = False

    # the reference decoder lists the first maximizing tree's edges
    return ExhaustiveScan(
        n=n,
        tree_count=total,
        max_delta=best,
        argmax_edges=tuple(sorted(prufer_decode(n, best_code))),
        argmax_pair=best_pair,
        min_delta=min_delta,
        lower_bound_ok=lower_ok,
    )


def critical_points(n: int) -> dict:
    """The claimed derivative roots of the three case formulas, both for the
    even-split and odd-split anchor cases, as exact rationals."""
    d = 2 * n - 7
    integer_case = {
        "k1": Fraction(n * n + 2 * n - 24, d),
        "k2": Fraction(n * n - 2 * n - 24, d),
        "k3": Fraction(n * n - 2 * n - 25, d),
    }
    fractional_case = {
        "k1": Fraction(n * n + 2 * n - 26, d),
        "k2": Fraction(n * n - 2 * n - 25, d),
        "k3": Fraction(n * n - 2 * n - 26, d),
    }
    candidates = sorted(
        {
            rounded(v)
            for case in (integer_case, fractional_case)
            for v in case.values()
            for rounded in (math.floor, math.ceil)
        }
    )
    return {
        "integer_split": integer_case,
        "fractional_split": fractional_case,
        "rounded_candidates": candidates,
    }


@dataclass
class BoundsReport:
    """What audit found, built once when every check has run.  The three
    empirical fields are None unless the exhaustive scan ran."""

    n: int
    claimed_upper: Optional[int]
    family_max: int
    family_argmax: tuple[int, int, int]  # (k, w_x, w_y)
    case_values: dict[int, dict[str, int]]  # k -> {"claimed": .., "exact": ..}
    critical_points: dict
    oracle_confirmed: bool
    argmax_window_ok: bool
    empirical_max: Optional[int]
    empirical_tree_count: Optional[int]
    lower_bound_ok: Optional[bool]
    discrepancies: list[dict]


def audit(n: int, exhaustive_limit: int = 0) -> BoundsReport:
    """Evaluate every claimed bound against the exact family values, confirm
    the family optimum on a built tree with the brute-force oracle, and (for
    n <= exhaustive_limit) against a distance-matrix scan of every labeled
    tree, a check independent of the savings formula.  family_max is
    already the exact maximum (the convexity lemma in the module
    docstring), so each discrepancy on a claimed bound is an error in the
    claim.  Every failed check is one discrepancy record, in the order
    checked.  family_optimum raises OutOfDomain for n < 5."""
    discrepancies: list[dict] = []

    def check(ok: bool, quantity_a: str, value_a, quantity_b: str, value_b, note: str) -> bool:
        if not ok:
            discrepancies.append(
                {
                    "quantity_a": quantity_a,
                    "value_a": value_a,
                    "quantity_b": quantity_b,
                    "value_b": value_b,
                    "note": note,
                }
            )
        return ok

    try:
        claimed = claimed_upper(n)
    except OutOfDomain:
        claimed = None

    k_opt, w_x, w_y, family_max = family_optimum(n)

    case_values: dict[int, dict[str, int]] = {}
    for k, _, _, exact in _family_table(n)[:-1]:  # the case formulas stop at k = n - 1
        case = claimed_case_formula(n, k)
        case_values[k] = {"exact": exact, "claimed": case}
        check(
            case == exact,
            f"case_formula(n={n}, k={k})", case,
            f"family_delta(n={n}, k={k}, balanced)", exact,
            "claimed per-k formula disagrees with exact evaluation",
        )

    check(
        claimed is None or claimed == family_max,
        f"claimed_upper(n={n})", claimed,
        "family_max", family_max,
        "claimed global bound disagrees with exact family optimum",
    )

    # confirm the optimum on a concrete tree, both formula and oracle
    extremal_tree, pair = build_family_tree(n, k_opt, w_x, w_y, "star")
    direct = delta_direct(anatomize(extremal_tree, *pair))
    oracle_value = delta_oracle(extremal_tree, *pair)
    oracle_confirmed = check(
        direct == family_max == oracle_value,
        "family_max", family_max,
        "delta_oracle(built extremal tree)", oracle_value,
        "oracle confirmation failed",
    )

    window = range(-(-n // 2) + 1, -(-n // 2) + 5)
    argmax_window_ok = check(
        k_opt in window,
        "family argmax k", k_opt,
        "claimed window ceil(n/2)+1..ceil(n/2)+4", [window.start, window.stop - 1],
        "family argmax outside the claimed window",
    )

    scan = exhaustive_scan(n) if n <= exhaustive_limit else None
    if scan is not None:
        check(
            scan.max_delta == family_max,
            "empirical_max (all labeled trees)", scan.max_delta,
            "family_max", family_max,
            "global maximum differs from family optimum",
        )
        check(
            scan.lower_bound_ok,
            "min delta / equality condition", scan.min_delta,
            "claimed lower bound 1 at leaf pairs at distance 2", 1,
            "lower-bound equality condition violated",
        )

    return BoundsReport(
        n=n,
        claimed_upper=claimed,
        family_max=family_max,
        family_argmax=(k_opt, w_x, w_y),
        case_values=case_values,
        critical_points=critical_points(n),
        oracle_confirmed=oracle_confirmed,
        argmax_window_ok=argmax_window_ok,
        empirical_max=scan and scan.max_delta,
        empirical_tree_count=scan and scan.tree_count,
        lower_bound_ok=scan and scan.lower_bound_ok,
        discrepancies=discrepancies,
    )
