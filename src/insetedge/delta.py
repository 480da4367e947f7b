"""Evaluation of the Wiener decrease from a cycle anatomy or from subtree sizes.

The decrease caused by shortcut edge (x, y) with cycle length k depends on
the tree only through k and the hanging-subtree weights: it is the sum of
(2*d - k) * w_{x_i} * w_{y_j} over side pairs whose tree distance
d = k+1-i-j exceeds k/2.  In integers the condition is 2*(k+1-i-j) > k,
i.e. i+j <= k' for even k and i+j <= k'+1 for odd k (k' = k // 2), and the
coefficient is always k + 2 - 2*(i+j) on that range.

The same savings follows from subtree sizes along one root path, without
the weight tuples.  Root the tree at v and take the path v = p_0, ..., p_D
= u (D = d(u, v), cycle length k = D + 1, h = k // 2), with s_j =
size(p_j), so s_0 = n.  The hanging weights are w_D = s_D and w_j = s_j -
s_{j+1} below it, so the suffix sum w_a + ... + w_D is s_a and the prefix
sum w_0 + ... + w_{j-1} is n - s_j.  A pair of hanging vertices at p_i and
p_l (i < l) saves max(0, 2(l - i) - k), which is a sum of ramps
r_m = max(0, (l - i) - m): 2 r_h for even k, r_h + r_{h+1} for odd k.
Summed by parts, r_m counts the cut points j with i < j <= l - m, so

    R(m) = sum over pairs of w_i w_l r_m = sum_{j=1}^{D-m} s_{j+m} (n - s_j)

and

    even k:  delta(u, v) = 2 R(h)
    odd k:   delta(u, v) = R(h) + R(h + 1),

about k/2 products per pair, where the weight formula sums about k^2/8.

delta_from_sizes reads the factors from two depth stacks that a walk
down the root path writes in place: sizes[j] = s_j and the prefix sums
cum[j] = s_1 + ... + s_j (cum[0] = 0).  Splitting each term s_{j+m} (n -
s_j) into its two products gives

    R(m) = n (cum[D] - cum[m]) - sum_{j=1}^{D-m} s_{j+m} s_j,

and moving the j = 0 term s_m s_0 = n s_m from the first part into the
sum gives R(m) = n (cum[D] - cum[m - 1]) - sum_{j=0}^{D-m} s_{j+m} s_j.
The sum is then one slice of sizes, from sizes[m], zipped with the whole
stack from sizes[0] = n: one slice and one C-level sum per ramp sum, and
no stack of rests.

The walk bounds a pair in O(1) from cum before search.best_edge sums
it.  Along the root path the sizes fall, s_1 >= s_2 >= ... >= s_D, and
the rests n - s_j rise, so both ramp sums pair a non-increasing run of
sizes with a non-decreasing run of rests over the same L = D // 2 rests
(R(h + 1) has L - 1 terms; padding it with s_{D+1} = 0 keeps its sizes
non-increasing).  Chebyshev's sum inequality, L * sum a_i b_i <= (sum
a_i)(sum b_i) for oppositely ordered a and b, then gives

    R(h) <= (cum[D] - cum[h]) (L n - cum[L]) / L
    R(h + 1) <= (cum[D] - cum[h + 1]) (L n - cum[L]) / L,

so delta(u, v) <= top (L n - cum[L]) / L, with top = 2 (cum[D] -
cum[h]) for even k and (cum[D] - cum[h]) + (cum[D] - cum[h + 1]) for odd
k.  The walk in search.py applies this cap straight after it writes
cum[D], against the best score best_edge has found so far: it skips a
pair, which then never reaches the exact sum, only when top (L n -
cum[L]) < best * L in integers, i.e. when the pair scores strictly below
that best; a pair that could tie the best is always summed.  The cap is
exact at L = 1 (D = 2 or 3).

For L >= 2 the walk then applies the same inequality to each of two
blocks of the L terms, l_1 = L // 2 and l_2 = L - l_1 of them.  A block's
rest sum is R_1 = l_1 n - cum[l_1] or R_2 = (L n - cum[L]) - R_1, and its
size sum, over both ramp sums as in top, is top_1 = (cum[h + l_1] -
cum[h]) + (cum[lo + l_1] - cum[lo]) or top_2 = top - top_1, with lo = h
for even k and h + 1 for odd k (the far ramp's sizes are the near ramp's
shifted by one, padded with s_{D+1} = 0, over the same rests).  Each
block's part of delta(u, v) is an integer, so

    delta(u, v) <= floor(top_1 R_1 / l_1) + floor(top_2 R_2 / l_2),

and the pair is skipped when that is below the best.  The sizes fall and
the rests rise from block to block as well, so by Chebyshev on the
block means this is never above the one-block cap.

sweep.sweep_path, which evaluates the same ramp sums along a path, is
where this route's operations are counted: D // 2 terms per ramp sum,
one sum for even k and two for odd k.

A scored edge is a DeltaRecord, a typing.NamedTuple of (x, y, k,
d_prime): immutable, hashable and built positionally or by keyword.  A
tuple subclass takes a few hundred nanoseconds to build where a frozen
dataclass's __init__ takes over a microsecond, and sweep_path builds one
per record, column-wise with map.  A record holds the exact savings only:
its average-distance form ad_prime(d_prime, n) is that integer over the
constant C(n, 2), so the CLI builds it when it prints.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .counting import OpCounter
from .errors import KTooSmall, OutOfDomain
from .tree import CycleAnatomy


class DeltaRecord(NamedTuple):
    """One scored shortcut edge: its endpoints, cycle length and savings."""

    x: int
    y: int
    k: int
    d_prime: int


def _check_weights(k: int, weights_x: Sequence[int], weights_y: Sequence[int]) -> None:
    """Raise KTooSmall for k < 3, then OutOfDomain unless each side has
    exactly k // 2 weights, each at least 1 (a hanging weight counts its own
    cycle vertex): what both weight routes accept."""
    if k < 3:
        raise KTooSmall(f"k={k}")
    if len(weights_x) != k // 2 or len(weights_y) != k // 2:
        raise OutOfDomain(f"k={k} needs {k // 2} weights a side, got {len(weights_x)} and {len(weights_y)}")
    if min(weights_x) < 1 or min(weights_y) < 1:
        raise OutOfDomain(f"weights must be >= 1, got {min(weights_x)} and {min(weights_y)}")


def delta_from_weights(
    k: int,
    weights_x: Sequence[int],
    weights_y: Sequence[int],
    counter: Optional[OpCounter] = None,
) -> int:
    """Savings for cycle length k >= 3 and side weight sequences of k // 2
    entries each (1-based math, 0-based storage).  Iterates only the
    i+j <= bound terms."""
    _check_weights(k, weights_x, weights_y)
    k_prime = k // 2
    bound = k_prime + 1 if k % 2 else k_prime
    coeff = [k + 2 - 2 * s for s in range(bound + 1)]
    total = 0
    for i in range(1, k_prime + 1):
        m = min(k_prime, bound - i)
        if m < 1:
            break
        # the coefficient slice has m entries, and map stops at the shorter
        # input, so only weights_y[:m] is read
        total += weights_x[i - 1] * sum(map(mul, coeff[i + 1 : i + 1 + m], weights_y))
        if counter is not None:
            counter.add(m)
    return total


def delta_term_count(k: int) -> int:
    """Exact number of multiply-accumulate terms delta_from_weights performs
    for cycle length k (matches the instrumented counter)."""
    k_prime = k // 2
    return k_prime * (k_prime + 1) // 2 if k % 2 else k_prime * (k_prime - 1) // 2


def delta_from_sizes(d: int, sizes: Sequence[int], cum: Sequence[int]) -> int:
    """Savings of a pair at distance d >= 2 from the depth stacks of its
    root path: sizes[j] = s_j (sizes[0] = n) and the prefix sums cum[j] =
    s_1 + ... + s_j, read up to index d (see the module docstring).  Only
    differences of cum are read, so its entries may all be off by one
    constant; entries past d may hold anything.  Each ramp sum is one slice
    and one C-level sum."""
    n = sizes[0]
    h = (d + 1) // 2
    near = sum(map(mul, sizes[h : d + 1], sizes))
    if d % 2:  # k = d + 1 even
        return 2 * (n * (cum[d] - cum[h - 1]) - near)
    return n * (2 * cum[d] - cum[h - 1] - cum[h]) - near - sum(map(mul, sizes[h + 1 : d + 1], sizes))


def delta_direct(anatomy: CycleAnatomy) -> int:
    """Savings D(T) - D(T + xy) evaluated directly from the anatomy."""
    return delta_from_weights(anatomy.k, anatomy.weights_x, anatomy.weights_y)


def ad_prime(d_prime: int, n: int) -> Fraction:
    """Average-distance decrease: d_prime / C(n, 2), in lowest terms; n >= 2."""
    if n < 2:
        raise OutOfDomain(f"n={n}")
    return Fraction(d_prime, n * (n - 1) // 2)
