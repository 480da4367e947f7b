"""Operation counter for the scaling benchmarks, and the exact big-integer
correlation that the sweep and the coefficient-matrix route share.

OpCounter counts the multiply-accumulate terms of the sums a result is
made of, so counts are deterministic functions of the input sizes and
comparable across evaluation strategies.  It is a model count, not a
count of machine multiplies: the sweep, for one, computes all of a path's
sums from one big-integer product (_correlate) and is charged the terms
of the per-record sums.

_correlate sizes its digits for the largest lag sum and for the largest
entry of either side, so a side of zeros (the sweep pads its rests with
a zero) never shrinks a digit below the other side's entries.
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
    digits, c reversed (big-endian) and e in order (little-endian); with
    L = len(e), coefficient L-1-i of their product is the lag-i sum.  A
    digit of b bytes holds more than the largest of L max(c) max(e), which
    bounds every coefficient, max(c) and max(e), so every input entry packs
    and no coefficient carries into the next even when one side is all
    zeros."""
    L = len(e)
    top_c, top_e = max(c, default=0), max(e, default=0)
    b = max(L * top_c * top_e, top_c, top_e).bit_length() // 8 + 1
    rev_c = int.from_bytes(b"".join([v.to_bytes(b, "big") for v in c]), "big")
    fwd_e = int.from_bytes(b"".join([v.to_bytes(b, "little") for v in e]), "little")
    digits = (rev_c * fwd_e).to_bytes(2 * L * b, "little")
    return [
        int.from_bytes(digits[(L - 1 - i) * b : (L - i) * b], "little")
        for i in range(min(count, L))
    ] + [0] * (count - L)
