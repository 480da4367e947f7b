"""Timing helpers: a speed calibration and cheap aggregated spans.

Calibration.  On a shared machine the interpreter's speed drifts by tens
of percent over minutes as neighbours load the host, which would swamp
the differences the benchmark exists to detect.  A fixed piece of pure
Python work, independent of the program (a graph search with set lookups
and a sum of products, like the program's inner loops), is timed right
before each measured task; the task's time is scaled by REFERENCE_S over
that duration.  Reported times are therefore seconds at the speed at which
the calibration takes REFERENCE_S, the typical speed of the reference
machine (2-core x86-64 VM, Python 3.11.7).  The raw wall times are printed
beside them.

Spans.  A span wraps one function: it times the call, subtracts the time
of the spans that ran inside it, and adds the rest to its name's self
time.  Spans are not stored one by one; each name keeps a running self
time, a call count and, where asked, a tally of one size taken from the
arguments (the cycle length k, say), from which exact work counts are
derived afterwards.  The wrapper does two clock reads and a few dictionary
updates, so the traced run stays close to the untraced one; the difference
is reported.
"""

from __future__ import annotations

import statistics
import time
from operator import mul
from typing import Callable, Optional

from bench_inputs import Rng

REFERENCE_S = 0.002


class Calibration:
    def __init__(self, n: int = 2000) -> None:
        rng = Rng(0x5EED)
        self.adjacency: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            u = rng.below(v)
            self.adjacency[u].append(v)
            self.adjacency[v].append(u)
        self.weights = [1 + rng.below(n) for _ in range(n)]
        self.sources = (0, n // 4, n // 2, 3 * n // 4)

    def seconds(self) -> float:
        """Wall time of one pass of the fixed work."""
        adjacency, weights = self.adjacency, self.weights
        start = time.perf_counter()
        for source in self.sources:
            seen = {source}
            stack = [source]
            order = []
            while stack:
                u = stack.pop()
                order.append(u)
                for w in adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            sum(map(mul, order, weights))
        return time.perf_counter() - start

    def median_seconds(self, samples: int) -> float:
        return statistics.median(self.seconds() for _ in range(samples))


class Tracer:
    def __init__(self) -> None:
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.sizes: dict[str, dict[int, int]] = {}
        # time covered by finished child spans of the innermost open span
        self._covered = [0]
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(
        self, name: str, fn: Callable, size: Optional[Callable[[tuple], int]] = None
    ) -> Callable:
        self_ns, calls, covered = self.self_ns, self.calls, self._covered
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)
        tally = self.sizes.setdefault(name, {})
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            outer = covered[0]
            covered[0] = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - covered[0]
                calls[name] += 1
                covered[0] = outer + elapsed
                if size is not None and args:
                    key = size(args)
                    tally[key] = tally.get(key, 0) + 1

        return span

    def patch(
        self, owner: object, attr: str, name: str, size: Optional[Callable] = None
    ) -> None:
        """Register owner.attr to be replaced by its span while installed."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(name, original, size)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> None:
        for name in self.self_ns:
            self.self_ns[name] = 0
            self.calls[name] = 0
            self.sizes[name].clear()
        self._covered[0] = 0

    def snapshot(self) -> dict:
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "sizes": {k: dict(v) for k, v in self.sizes.items()},
        }
