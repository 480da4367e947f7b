"""Coefficient-matrix route: a second, independent evaluation of the savings.

F_k is the k' x k' matrix of per-pair saving coefficients (k' = k // 2).
It is D_k (entries 2*(k'-i-j+1) on i+j <= k', zero elsewhere) plus, for odd
k, the anti-triangular all-ones matrix O_k (ones on i+j <= k'+1).  The
savings equal the norm one (sum of entries) of the entrywise product of F_k
with the outer product of the two weight vectors.

Both D_k and O_k depend on i + j alone, so F_k is a Hankel matrix: with f_s
its entry on the anti-diagonal i + j = s and A_s = sum_{i+j=s} w_x,i w_y,j
the matching anti-diagonal sum of the outer product, the norm is
sum_s f_s A_s.  On the anti-diagonals that can be nonzero, s = 2 ... k'+1,
f_s = k + 2 - 2s, delta_from_weights' per-pair coefficient, so the k'
entries from s = k'+1 down to 2 are range(k % 2, k, 2).  The A_s are the
coefficients of the product of the two weight polynomials, so
counting._correlate takes all k' of them from one exact product of two
Python ints; the matrix is never built.  build_F builds F_k cell by cell
from D_k and O_k, the independent construction the tests check this closed
form against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .counting import _correlate
from .delta import _check_weights
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


def build_F(k: int) -> CoefficientMatrix:
    """F_k = D_k + O_k for odd k, D_k for even k."""
    if k < 3:
        raise KTooSmall(f"k={k}")
    kp = k // 2
    odd = k % 2
    rows = tuple(
        tuple(_d_entry(kp, i, j) + (odd and _o_entry(kp, i, j)) for j in range(1, kp + 1))
        for i in range(1, kp + 1)
    )
    return CoefficientMatrix(k, kp, rows)


def delta_via_matrix(anatomy: CycleAnatomy) -> int:
    """Norm one of F_k entrywise-multiplied with the weight outer product,
    as sum_s f_s A_s over F_k's anti-diagonals.

    Both weight vectors have k' entries, and the input is checked as
    delta_from_weights checks it (KTooSmall, then OutOfDomain).  With w_x
    reversed, lag i of its correlation with w_y is the anti-diagonal sum
    A_s for s = k'+1-i, so the k' sums come out from s = k'+1 down to 2,
    the order of the coefficients f_s = k + 2 - 2s in range(k % 2, k, 2).
    """
    _check_weights(anatomy.k, anatomy.weights_x, anatomy.weights_y)
    sums = _correlate(anatomy.weights_x[::-1], anatomy.weights_y, anatomy.k_prime)
    return sum(map(mul, range(anatomy.k % 2, anatomy.k, 2), sums))
