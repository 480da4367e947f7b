"""Savings of every shortcut edge nested along one tree path.

With the tree rooted at y, the subtree sizes c_0, ..., c_{k-1} of the
path x = p_0, ..., p_{k-1} = y are the prefix sums of its hanging weights
(c_{k-1} = n).  Rooting at p_b instead leaves the subtree of every p_i
with i < b unchanged, so the pair (p_a, p_b) has root-path sizes
[n, c_{b-1}, ..., c_a] and is scored by delta_from_sizes in O(b - a).
The whole batch costs O(k^2), and reads the sizes from the tree's kept
root-0 pass.
"""

from __future__ import annotations

from typing import Optional

from .counting import OpCounter
from .delta import DeltaRecord, ad_prime, delta_from_sizes
from .tree import Tree, _path_sizes


def sweep_path(
    tree: Tree, x: int, y: int, counter: Optional[OpCounter] = None
) -> list[DeltaRecord]:
    """Score the diagonal family (x_i, y_i) and both near-diagonal families
    (x_{i+1}, y_i), (x_i, y_{i+1}) along the x..y path, in O(k^2) total.

    Records are emitted in family order: diagonals inward, then x-advanced
    shifts, then y-advanced shifts; pairs whose own cycle length would drop
    below 3 (adjacent pairs) are omitted rather than errored.
    """
    # size[i] = c_i, the subtree size of path[i] with the tree rooted at y
    path, size = _path_sizes(tree, x, y)
    n, k = tree.n, len(path)

    def record(lo: int, hi: int) -> DeltaRecord:
        d = hi - lo
        delta = delta_from_sizes([n, *reversed(size[lo:hi])], counter)
        return DeltaRecord(
            x=path[lo], y=path[hi], k=d + 1, d_prime=delta, ad_prime=ad_prime(delta, n)
        )

    return (
        [record(i, k - 1 - i) for i in range((k - 1) // 2)]
        + [record(i + 1, k - 1 - i) for i in range((k - 2) // 2)]
        + [record(i, k - 2 - i) for i in range((k - 2) // 2)]
    )
