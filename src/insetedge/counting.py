"""Lightweight operation counter used by the scaling benchmarks.

Counts the multiply-accumulate terms of the sums a result is made of, so
counts are deterministic functions of the input sizes and comparable
across evaluation strategies.  It is a model count, not a count of machine
multiplies: the sweep, for one, computes a family's sums as one big-integer
product and is charged the terms of the per-record sums.
"""


class OpCounter:
    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0

    def add(self, n: int) -> None:
        self.ops += n

    def __repr__(self) -> str:
        return f"OpCounter(ops={self.ops})"
