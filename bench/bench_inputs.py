"""Seeded inputs for the benchmark's workloads.

The generator is the benchmark's own (splitmix64, Prüfer decoding and a
spine builder), so a change to the program's random-tree or extremal-tree
code cannot change what is measured.  Trees leave this module only as
edge-list text, which the program reads through `parse_tree`.

The vertex count of every workload is fixed.  Where the spine length
varies, the pool is stratified on it: input i takes the midpoint of the
i-th of equal slices of the range, and the seed decides everything else
(the tree's shape and labels).  Every seed's pool thus has the same mix of
sizes, which keeps the per-task medians steady from seed to seed.  The
pool is ordered so that every prefix covers the range evenly, and the
first input, the untimed warm-up task, sits in the middle slice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Rng:
    """splitmix64 with the seed as the full 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) / (1 << 53)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # sizes of the measured configuration and of the tiny one the tests run
    sizes: dict
    tiny_sizes: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-random",
            "uniform random trees have short cycles, so best_edge time goes to the O(n)-per-pair anatomize",
            {"n": 80},
            {"n": 14},
        ),
        Workload(
            "search-spine",
            "long spines make the O(k^2) per-pair weight sum a large share of best_edge, under heavy (star) and light (path) pruning",
            {"n": 56},
            {"n": 14},
        ),
        Workload(
            "long-cycle",
            "one huge cycle: sweep_path and delta_via_matrix dominate, anatomize is negligible and the search never runs",
            {"n": 1024, "spine": (0.7, 0.8)},
            {"n": 64, "spine": (0.7, 0.8)},
        ),
        Workload(
            "verify-audit",
            "the only workload running the oracle, the exhaustive scan and Prufer decoding; calls matrixform thousands of times at small k",
            {"n": 28},
            {"n": 9},
        ),
    )
}

# Distinct inputs per run, and how many of them the traced run replays.
POOL = 16
TRACED = 4
TINY_POOL = 4
TINY_TRACED = 2


def stratum_order(pool: int) -> list[int]:
    """Strata 0..pool-1 (pool a power of two) in bit-reversed order of
    1, 2, ..., pool: the middle stratum first, then quarters, eighths, ..."""
    bits = pool.bit_length() - 1
    order = []
    for j in range(1, pool + 1):
        i = j % pool
        order.append(int(format(i, f"0{bits}b")[::-1], 2))
    return order


def prufer_tree(rng: Rng, n: int) -> list[tuple[int, int]]:
    """Edges of a uniform random labeled tree on n >= 3 vertices."""
    code = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in code:
        leaf = heapq.heappop(heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def spine_tree(rng: Rng, n: int, length: int, shape: str) -> list[tuple[int, int]]:
    """A path 0..length-1 (the spine) with the other n - length vertices
    hanging off it: most in one group at each spine end, a quarter in
    groups of 1-3 at interior spine vertices.  Each group is a star on its
    anchor ("star") or a path leaving it ("path")."""
    extra = n - length
    assert length >= 3 and extra >= 2
    edges = [(i, i + 1) for i in range(length - 1)]
    interior = extra // 4
    first = 1 + rng.below(extra - interior - 1)
    groups = [(0, first), (length - 1, extra - interior - first)]
    while interior:
        size = min(interior, 1 + rng.below(3))
        groups.append((1 + rng.below(length - 2), size))
        interior -= size
    vertex = length
    for anchor, size in groups:
        prev = anchor
        for _ in range(size):
            edges.append((prev, vertex))
            if shape == "path":
                prev = vertex
            vertex += 1
    return edges


def relabel(rng: Rng, n: int, edges: list[tuple[int, int]]) -> tuple[list[int], str]:
    """Shuffle vertex ids; return the permutation and the edge-list text."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    mapped = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    )
    return perm, f"{n}\n" + "".join(f"{u} {v}\n" for u, v in mapped)


def _in_stratum(stratum: int, pool: int, lo: int, hi: int) -> int:
    """The midpoint of the stratum-th of pool equal slices of [lo, hi]."""
    return lo + int((stratum + 0.5) / pool * (hi - lo + 1))


def make_inputs(workload: Workload, seed: int, tiny: bool = False) -> list[dict]:
    """The run's input pool: one dict per task input, JSON-serializable.

    Every input has "trees" (edge-list texts); long-cycle inputs also have
    "ends" (the spine ends) and "sample" (where to spot-check the sweep).
    """
    sizes = workload.tiny_sizes if tiny else workload.sizes
    pool = TINY_POOL if tiny else POOL
    rng = Rng(seed ^ int.from_bytes(workload.name.encode(), "little"))
    inputs = []
    for position, stratum in enumerate(stratum_order(pool)):
        if workload.name in ("search-random", "verify-audit"):
            n = sizes["n"]
            inputs.append({"trees": [relabel(rng, n, prufer_tree(rng, n))[1]]})
        elif workload.name == "search-spine":
            # one star-shaped and one path-shaped tree of the same spine
            # length per task, so every task sees both pruning regimes
            n = sizes["n"]
            length = _in_stratum(stratum, pool, n // 2, n - 2)
            inputs.append(
                {
                    "trees": [
                        relabel(rng, n, spine_tree(rng, n, length, shape))[1]
                        for shape in ("star", "path")
                    ]
                }
            )
        elif workload.name == "long-cycle":
            # a narrow band of spine lengths: cycles of about 750, and task
            # costs (quadratic in the length) within a few percent of each
            # other, so the median task does not jump between strata
            n = sizes["n"]
            lo, hi = (int(f * n) for f in sizes["spine"])
            length = _in_stratum(stratum, pool, lo, hi)
            shape = ("star", "path")[position % 2]
            perm, text = relabel(rng, n, spine_tree(rng, n, length, shape))
            inputs.append(
                {
                    "trees": [text],
                    "ends": [perm[0], perm[length - 1]],
                    "sample": [rng.unit() for _ in range(3)],
                }
            )
        else:
            raise KeyError(workload.name)
    return inputs
