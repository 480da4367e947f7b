"""Incremental savings evaluation along one tree path.

Starting from the shortcut edge joining the two path ends, the edge can be
slid inward: a diagonal step replaces (x1, y1) by (x2, y2) (cycle length
k -> k-2), a shift step replaces it by (x2, y1) or (x1, y2) (k -> k-1).
Each step re-anchors the indexing, merges the weight that fell off the
cycle into the new first entry, and updates the savings with an O(k)
difference computed from the running O-norm and side prefix sums.  The
whole-path batch therefore costs O(k^2) beyond the O(n) anatomy, versus
O(k^3)-ish for per-pair recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional

from .counting import OpCounter
from .delta import DeltaRecord, ad_prime, delta_from_weights
from .errors import CycleTooShort
from .tree import Tree, anatomize


@dataclass(frozen=True)
class SweepState:
    """Current shortcut edge on a fixed tree path, with running aggregates.

    path is the original tree path; the current anchors are path[lo] and
    path[hi].  delta always equals the from-scratch savings of the current
    pair; o_norm is the sum of w_{x_i} * w_{y_j} over i+j <= k'+1.
    """

    n: int
    path: tuple[int, ...]
    lo: int
    hi: int
    k: int
    weights_x: tuple[int, ...]
    weights_y: tuple[int, ...]
    weight_middle: Optional[int]
    delta: int
    o_norm: int

    @property
    def x(self) -> int:
        return self.path[self.lo]

    @property
    def y(self) -> int:
        return self.path[self.hi]


def _o_norm(k_prime: int, wx, wy, counter: Optional[OpCounter] = None) -> int:
    # sum over i+j <= k'+1; for i in 1..k' the j-range is 1..k'+1-i (<= k')
    pref = list(accumulate(wy))
    total = 0
    for i in range(1, k_prime + 1):
        total += wx[i - 1] * pref[k_prime - i]
    if counter is not None:
        counter.add(2 * k_prime)
    return total


def init_sweep(tree: Tree, x: int, y: int, counter: Optional[OpCounter] = None) -> SweepState:
    """Anchor the sweep at (x, y): O(k'^2 + n) setup."""
    anatomy = anatomize(tree, x, y)
    delta = delta_from_weights(anatomy.k, anatomy.weights_x, anatomy.weights_y, counter)
    o_norm = _o_norm(anatomy.k_prime, anatomy.weights_x, anatomy.weights_y, counter)
    return SweepState(
        n=tree.n,
        path=tuple(anatomy.x_side)
        + ((anatomy.middle,) if anatomy.middle is not None else ())
        + tuple(reversed(anatomy.y_side)),
        lo=0,
        hi=anatomy.k - 1,
        k=anatomy.k,
        weights_x=anatomy.weights_x,
        weights_y=anatomy.weights_y,
        weight_middle=anatomy.weight_middle,
        delta=delta,
        o_norm=o_norm,
    )


def diagonal_gain(state: SweepState, counter: Optional[OpCounter] = None) -> int:
    """Savings difference of the (x2, y2) edge relative to the current one.

    Even k:  2 * (sum_{i,j>1, i+j<=k'+1} w_ij - w_11)
    Odd k:   2 * (that sum) + sum_{i+j=k'+2} w_ij
    both reduced to the O-norm minus the first row and column.  (The even
    case carries a factor 2 that term-by-term expansion requires; the
    from-scratch evaluation is the arbiter and the tests pin it.)
    """
    if state.k < 5:
        raise CycleTooShort(f"k={state.k} < 5")
    wx, wy = state.weights_x, state.weights_y
    kp = state.k // 2
    sx = sum(wx)
    sy = sum(wy)
    base = state.o_norm - wx[0] * sy - wy[0] * sx
    if counter is not None:
        counter.add(2 * kp)
    if state.k % 2 == 0:
        return 2 * base
    diag = sum(wx[i - 1] * wy[kp + 1 - i] for i in range(2, kp + 1))
    if counter is not None:
        counter.add(kp)
    return 2 * base + diag


def step_diagonal(state: SweepState, counter: Optional[OpCounter] = None) -> SweepState:
    """Move the shortcut edge from (x1, y1) to (x2, y2): k -> k-2."""
    gain = diagonal_gain(state, counter)
    wx, wy = state.weights_x, state.weights_y
    new_wx = (wx[0] + wx[1],) + wx[2:]
    new_wy = (wy[0] + wy[1],) + wy[2:]
    new_k = state.k - 2
    return replace(
        state,
        lo=state.lo + 1,
        hi=state.hi - 1,
        k=new_k,
        weights_x=new_wx,
        weights_y=new_wy,
        delta=state.delta + gain,
        o_norm=_o_norm(new_k // 2, new_wx, new_wy, counter),
    )


def shift_gain(state: SweepState, side: str, counter: Optional[OpCounter] = None) -> int:
    """Savings difference of advancing one anchor: (x2, y1) or (x1, y2).

    sum_{i>1, j<k', i+j<=k'+1} w_ij  minus the first-row sum over j < k'
    (even k) or j <= k' (odd k); mirrored for side='y'.
    """
    if state.k < 4:
        raise CycleTooShort(f"k={state.k} < 4")
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    a, b = (
        (state.weights_x, state.weights_y)
        if side == "x"
        else (state.weights_y, state.weights_x)
    )
    kp = state.k // 2
    pref = list(accumulate(b))
    cross = 0
    for i in range(2, kp + 1):
        m = min(kp - 1, kp + 1 - i)
        if m < 1:
            break
        cross += a[i - 1] * pref[m - 1]
    row_limit = kp - 1 if state.k % 2 == 0 else kp
    if counter is not None:
        counter.add(2 * kp)
    return cross - a[0] * pref[row_limit - 1]


def sweep_path(
    tree: Tree, x: int, y: int, counter: Optional[OpCounter] = None
) -> list[DeltaRecord]:
    """Score the diagonal family (x_i, y_i) and both near-diagonal families
    (x_{i+1}, y_i), (x_i, y_{i+1}) along the x..y path, in O(k^2) total.

    Records are emitted in family order: diagonals inward, then x-advanced
    shifts, then y-advanced shifts; pairs whose own cycle length would drop
    below 3 (adjacent pairs) are omitted rather than errored.
    """
    state = init_sweep(tree, x, y, counter)
    n = tree.n
    path = state.path

    def record(u: int, v: int, k: int, d: int) -> DeltaRecord:
        return DeltaRecord(x=u, y=v, k=k, d_prime=d, ad_prime=ad_prime(d, n))

    diagonals: list[DeltaRecord] = []
    x_shifts: list[DeltaRecord] = []
    y_shifts: list[DeltaRecord] = []
    while True:
        diagonals.append(record(state.x, state.y, state.k, state.delta))
        if state.k >= 4:
            gx = shift_gain(state, "x", counter)
            x_shifts.append(
                record(path[state.lo + 1], path[state.hi], state.k - 1, state.delta + gx)
            )
            gy = shift_gain(state, "y", counter)
            y_shifts.append(
                record(path[state.lo], path[state.hi - 1], state.k - 1, state.delta + gy)
            )
        if state.k >= 5:
            state = step_diagonal(state, counter)
        else:
            break
    return diagonals + x_shifts + y_shifts
