"""Coefficient-matrix route: a second, independent evaluation of the savings.

F_k is the k' x k' matrix of per-pair saving coefficients (k' = k // 2).
It is D_k (entries 2*(k'-i-j+1) on i+j <= k', zero elsewhere) plus, for odd
k, the anti-triangular all-ones matrix O_k (ones on i+j <= k'+1).  The
savings equal the norm one (sum of entries) of the entrywise product of F_k
with the outer product of the two weight vectors.  The evaluation streams
over the nonzero anti-triangle of F_k and never materializes the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import KTooSmall
from .tree import CycleAnatomy


@dataclass(frozen=True)
class CoefficientMatrix:
    k: int
    k_prime: int
    entries: tuple[tuple[int, ...], ...]


def _d_entry(k_prime: int, i: int, j: int) -> int:
    # i, j are 1-based
    return 2 * (k_prime - i - j + 1) if i + j <= k_prime else 0


def _o_entry(k_prime: int, i: int, j: int) -> int:
    return 1 if i + j - 1 <= k_prime else 0


def _build(k: int, entry: Callable[[int, int, int], int]) -> CoefficientMatrix:
    """The k' x k' matrix of entry(k', i, j), i and j 1-based."""
    if k < 3:
        raise KTooSmall(f"k={k}")
    kp = k // 2
    rows = tuple(
        tuple(entry(kp, i, j) for j in range(1, kp + 1)) for i in range(1, kp + 1)
    )
    return CoefficientMatrix(k, kp, rows)


def build_D(k: int) -> CoefficientMatrix:
    return _build(k, _d_entry)


def build_O(k: int) -> CoefficientMatrix:
    return _build(k, _o_entry)


def build_F(k: int) -> CoefficientMatrix:
    """F_k = D_k + O_k for odd k, D_k for even k."""
    odd = k % 2
    return _build(k, lambda kp, i, j: _d_entry(kp, i, j) + (odd and _o_entry(kp, i, j)))


def delta_via_matrix(anatomy: CycleAnatomy) -> int:
    """Norm one of F_k entrywise-multiplied with the weight outer product.

    Only the nonzero anti-triangle of F_k is visited: j <= k'+1-i for odd k,
    j <= k'-i for even k.  Entries come from the D_k / O_k definitions.
    """
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
