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
a zero) never shrinks a digit below the other side's entries.  A digit
of b <= 8 bytes is packed and unpacked in C: each side goes through an
array of the narrowest machine width w >= b (1, 2, 4 or 8 bytes), and
when w > b, b strided slice copies narrow each item to its b low bytes;
the product's digits are widened back the same way and read with
array.tolist().  Only digits of 9 bytes or more, sized for a bound of
2^64 or above, are packed one int.to_bytes per value, as no array item
holds them.  The digits stay exactly b bytes wide: rounding them up to w
would make the product longer, which costs more than the restriding from
L ~ 1000 on.
"""

from array import array
from sys import byteorder
from typing import Sequence

# (itemsize, typecode) of the narrowest unsigned array item of at least b
# bytes, at index b = 1 .. 8
_ITEM = [None] + [
    min((array(t).itemsize, t) for t in "BHILQ" if array(t).itemsize >= b) for b in range(1, 9)
]
# array items are in native byte order; the packed ints are little-endian
_SWAP = byteorder == "big"


class OpCounter:
    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0

    def add(self, n: int) -> None:
        self.ops += n


def _restride(data: bytes, count: int, src: int, dst: int) -> bytearray:
    """count little-endian items of src bytes each, as items of dst bytes:
    the low min(src, dst) bytes of each, one strided slice copy per byte,
    zero-padded when dst > src."""
    out = bytearray(count * dst)
    for j in range(min(src, dst)):
        out[j::dst] = data[j::src]
    return out


def _correlate(c: Sequence[int], e: Sequence[int], count: int) -> list[int]:
    """[sum_t c[i + t] * e[t] for i in range(count)] for non-negative ints,
    len(c) == len(e), exactly.  Both sequences are packed as little-endian
    base-2^(8b) digits, c in order and e reversed; with L = len(e),
    coefficient L-1+i of their product is the lag-i sum.  b is the fewest
    bytes (at least 1) whose digit holds values up to the largest of L
    max(c) max(e), which bounds every coefficient, max(c) and max(e), so
    every input entry packs and no coefficient carries into the next even
    when one side is all zeros."""
    L = len(e)
    top_c, top_e = max(c, default=0), max(e, default=0)
    b = (max(L * top_c * top_e, top_c, top_e).bit_length() + 7) // 8 or 1
    m = min(count, L)
    if m <= 0:
        return [0] * count
    if b > 8:
        fwd_c = int.from_bytes(b"".join([v.to_bytes(b, "little") for v in c]), "little")
        rev_e = int.from_bytes(b"".join([v.to_bytes(b, "big") for v in e]), "big")
        digits = (fwd_c * rev_e).to_bytes(2 * L * b, "little")
        return [
            int.from_bytes(digits[(L - 1 + i) * b : (L + i) * b], "little") for i in range(m)
        ] + [0] * (count - L)
    w, code = _ITEM[b]
    fwd = array(code, c)
    rev = array(code, e)
    rev.reverse()
    if _SWAP:
        fwd.byteswap()
        rev.byteswap()
    if w > b:
        fwd = _restride(fwd.tobytes(), L, w, b)
        rev = _restride(rev.tobytes(), L, w, b)
    product = int.from_bytes(fwd, "little") * int.from_bytes(rev, "little")
    digits = product.to_bytes(2 * L * b, "little")[(L - 1) * b : (L - 1 + m) * b]
    if w > b:
        digits = _restride(digits, m, b, w)
    lags = array(code, digits)
    if _SWAP:
        lags.byteswap()
    return lags.tolist() + [0] * (count - L)
