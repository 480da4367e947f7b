"""Operation counter for the scaling benchmarks, and the exact big-integer
correlation that the sweep and the coefficient-matrix route share.

OpCounter counts the multiply-accumulate terms of the sums a result is
made of, so counts are deterministic functions of the input sizes and
comparable across evaluation strategies.  It is a model count, not a
count of machine multiplies: the sweep, for one, computes a family's sums
as one big-integer product (_correlate) and is charged the terms of the
per-record sums.
"""

from typing import Sequence


class OpCounter:
    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0

    def add(self, n: int) -> None:
        self.ops += n


def _correlate(c: Sequence[int], e: Sequence[int], count: int) -> list[int]:
    """[sum_t c[i + t] * e[t] for i in range(count)] for non-negative ints,
    len(c) == len(e), exactly.  Both sequences are packed as base-2^(8b)
    digits, b bytes wide enough for any coefficient, c reversed (big-endian)
    and e in order (little-endian); with L = len(e), coefficient L-1-i of
    their product is the lag-i sum."""
    L = len(e)
    b = (L * max(c, default=0) * max(e, default=0)).bit_length() // 8 + 1
    rev_c = int.from_bytes(b"".join([v.to_bytes(b, "big") for v in c]), "big")
    fwd_e = int.from_bytes(b"".join([v.to_bytes(b, "little") for v in e]), "little")
    digits = (rev_c * fwd_e).to_bytes(2 * L * b, "little")
    return [
        int.from_bytes(digits[(L - 1 - i) * b : (L - i) * b], "little")
        for i in range(min(count, L))
    ] + [0] * (count - L)
