"""One workload in one fresh process: set up, then time or trace its tasks.

run.py starts this script and sends a JSON spec on stdin.  The script
imports the program from the spec's source directory, parses the inputs
and runs one untimed warm-up task, then prints "ready" (run.py times
set-up up to that line) and "calibration <seconds>", the speed of the
machine right after set-up (see bench_timing.py).  In "setup" mode it
exits there.  In "time" mode it runs tasks over the input pool until the
time is up and checks every result outside the timed region; in "trace"
mode it replays a fixed subset of the pool, alternating untraced and
traced passes.  Either prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from bench_timing import REFERENCE_S, Calibration, Tracer


# ---------------------------------------------------------------------------
# Tasks.  run() is the timed region; summarize() turns its raw output into
# exact, JSON-comparable results, the number of shortcut-edge evaluations
# and the result-derived counts; check() returns the failed checks.


def _report(r) -> list:
    return [[list(p) for p in r.best_pairs], r.best_delta, r.evaluated, r.pruned]


class Search:
    @staticmethod
    def prepare(api, raw: dict) -> dict:
        return {"trees": [api.parse_tree(t) for t in raw["trees"]]}

    @staticmethod
    def run(api, inp: dict) -> list:
        return [
            (api.best_edge(t, "exhaustive"), api.best_edge(t, "pruned"))
            for t in inp["trees"]
        ]

    @staticmethod
    def summarize(raw: list) -> tuple[list, int, dict]:
        counts = {"search.evaluated": 0, "search.pruned": 0, "kept": 0, "considered": 0}
        for ex, pr in raw:
            counts["search.evaluated"] += ex.evaluated + pr.evaluated
            counts["search.pruned"] += ex.pruned + pr.pruned
            counts["kept"] += pr.evaluated
            counts["considered"] += pr.evaluated + pr.pruned
        result = [[_report(ex), _report(pr)] for ex, pr in raw]
        return result, counts["search.evaluated"], counts

    @staticmethod
    def check(api, inp: dict, raw: list) -> list[str]:
        bad = []
        for tree, (ex, pr) in zip(inp["trees"], raw):
            if pr.best_delta != ex.best_delta:
                bad.append(f"pruned best {pr.best_delta} != exhaustive {ex.best_delta}")
            if not set(pr.best_pairs) <= set(ex.best_pairs):
                bad.append("pruned best pairs not among the exhaustive ones")
            oracle = api.delta_oracle(tree, *ex.best_pairs[0])
            if oracle != ex.best_delta:
                bad.append(f"oracle {oracle} != best_delta {ex.best_delta}")
        return bad


class LongCycle:
    @staticmethod
    def prepare(api, raw: dict) -> dict:
        return {
            "trees": [api.parse_tree(raw["trees"][0])],
            "ends": tuple(raw["ends"]),
            "sample": raw["sample"],
        }

    @staticmethod
    def run(api, inp: dict) -> tuple:
        tree = inp["trees"][0]
        x, y = inp["ends"]
        anatomy = api.anatomize(tree, x, y)
        direct = api.delta_direct(anatomy)
        matrix = api.delta_via_matrix(anatomy)
        counter = api.OpCounter()
        records = api.sweep_path(tree, x, y, counter)
        return anatomy.k, direct, matrix, records, counter.ops

    @staticmethod
    def summarize(raw: tuple) -> tuple[dict, int, dict]:
        k, direct, matrix, records, ops = raw
        result = {
            "k": k,
            "direct": direct,
            "matrix": matrix,
            "records": [[r.x, r.y, r.k, r.d_prime] for r in records],
            "ops": ops,
        }
        counts = {"sweep.records": len(records), "sweep.ops": ops}
        return result, len(records) + 1, counts

    @staticmethod
    def check(api, inp: dict, raw: tuple) -> list[str]:
        k, direct, matrix, records, _ = raw
        tree = inp["trees"][0]
        bad = []
        if not direct == matrix == records[0].d_prime:
            bad.append(f"direct {direct}, matrix {matrix}, sweep {records[0].d_prime}")
        for u in inp["sample"]:
            r = records[int(u * len(records))]
            anatomy = api.anatomize(tree, r.x, r.y)
            fresh = api.delta_direct(anatomy)
            if (anatomy.k, fresh) != (r.k, r.d_prime):
                bad.append(f"sweep record ({r.x}, {r.y}) k={r.k} d={r.d_prime}, fresh k={anatomy.k} d={fresh}")
        return bad


class VerifyAudit:
    @staticmethod
    def prepare(api, raw: dict) -> dict:
        tree = api.parse_tree(raw["trees"][0])
        edges = set(tree.edges)
        pairs = [
            (u, v)
            for u in range(tree.n)
            for v in range(u + 1, tree.n)
            if (u, v) not in edges
        ]
        return {"trees": [tree], "pairs": pairs}

    @staticmethod
    def run(api, inp: dict) -> tuple:
        tree = inp["trees"][0]
        routes = []
        for u, v in inp["pairs"]:
            anatomy = api.anatomize(tree, u, v)
            routes.append(
                (
                    api.delta_direct(anatomy),
                    api.delta_via_matrix(anatomy),
                    api.delta_oracle(tree, u, v),
                )
            )
        # exhaustive_scan is memoized; clear it so the scan is timed, not a lookup
        api.scan_cache_clear()
        small = api.audit(6, exhaustive_limit=6)
        big = api.audit(16)
        return routes, small, big

    @staticmethod
    def summarize(raw: tuple) -> tuple[dict, int, dict]:
        routes, small, big = raw
        result = {
            "routes": [list(r) for r in routes],
            "audit6": [small.family_max, small.empirical_max, small.empirical_tree_count, small.lower_bound_ok],
            "audit16": [big.family_max, list(big.family_argmax), big.claimed_upper, len(big.discrepancies)],
        }
        counts = {"bounds.scan_trees": small.empirical_tree_count or 0}
        return result, len(routes), counts

    @staticmethod
    def check(api, inp: dict, raw: tuple) -> list[str]:
        routes, small, big = raw
        bad = [
            f"pair {p}: direct, matrix, oracle = {r}"
            for p, r in zip(inp["pairs"], routes)
            if not r[0] == r[1] == r[2]
        ]
        if not (small.empirical_max == small.family_max and small.lower_bound_ok is True):
            bad.append(f"audit(6, 6): empirical {small.empirical_max}, family {small.family_max}, lower bound {small.lower_bound_ok}")
        flagged = any(
            d.get("value_a") == 232 and d.get("value_b") == 234 for d in big.discrepancies
        )
        if not (big.family_max == 234 and big.claimed_upper == 232 and flagged):
            bad.append(f"audit(16): family {big.family_max}, claimed {big.claimed_upper}, 232 flagged {flagged}")
        return bad


TASKS = {
    "search-random": Search,
    "search-spine": Search,
    "long-cycle": LongCycle,
    "verify-audit": VerifyAudit,
}


# ---------------------------------------------------------------------------


def load_program(src: Path) -> SimpleNamespace:
    """Import insetedge from src (never an installed copy) and collect the
    names the tasks call."""
    sys.path.insert(0, str(src))
    import insetedge
    from insetedge import bounds, delta

    if Path(insetedge.__file__).resolve().parent != (src / "insetedge").resolve():
        raise ImportError(f"insetedge imported from {insetedge.__file__}, not {src}")
    return SimpleNamespace(
        parse_tree=insetedge.parse_tree,
        best_edge=insetedge.best_edge,
        anatomize=insetedge.anatomize,
        delta_direct=insetedge.delta_direct,
        delta_via_matrix=insetedge.delta_via_matrix,
        sweep_path=insetedge.sweep_path,
        delta_oracle=insetedge.delta_oracle,
        audit=insetedge.audit,
        OpCounter=insetedge.OpCounter,
        delta_term_count=delta.delta_term_count,
        scan_cache_clear=getattr(bounds.exhaustive_scan, "cache_clear", lambda: None),
    )


def make_tracer(api: SimpleNamespace) -> Tracer:
    """Spans on the names layers call each other through, and on the
    benchmark's own calls into the library.  A name a later version of the
    program no longer has is skipped."""
    from insetedge import bounds, search, sweep

    tracer = Tracer()
    cycle_k = lambda args: args[0].k  # noqa: E731
    for owner, attr, name, size in (
        (search, "anatomize", "tree.anatomize", None),
        (search, "delta_direct", "delta.direct", cycle_k),
        (search, "candidate_pairs", "search.candidates", None),
        (search, "bfs_distances", "tree.bfs", None),
        (sweep, "anatomize", "tree.anatomize", None),
        (sweep, "delta_from_weights", "delta.direct", lambda args: args[0]),
        (bounds, "exhaustive_scan", "bounds.scan", None),
        (bounds, "prufer_decode", "randgen.decode", None),
        (bounds, "delta_oracle", "oracle", None),
        (bounds, "family_optimum", "bounds.family", None),
        (api, "parse_tree", "tree.parse", None),
        (api, "best_edge", "search", None),
        (api, "anatomize", "tree.anatomize", None),
        (api, "delta_direct", "delta.direct", cycle_k),
        (api, "delta_via_matrix", "matrixform", lambda args: args[0].k_prime),
        (api, "sweep_path", "sweep", None),
        (api, "delta_oracle", "oracle", None),
        (api, "audit", "bounds.audit", None),
    ):
        if hasattr(owner, attr):
            tracer.patch(owner, attr, name, size)
    return tracer


def digest(results: list) -> str:
    text = json.dumps(results, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_task(task, api, inp: dict, failures: list[str]):
    """The raw output of one task, or None (recorded) if it raised."""
    try:
        return task.run(api, inp)
    except Exception:
        failures.append(traceback.format_exc(limit=3))
        return None


def time_tasks(task, api, inputs: list[dict], seconds: float, calibration: Calibration) -> dict:
    """Run tasks round-robin over the pool until the time is up.  Each
    input's first result is checked, between tasks and outside the timed
    region; later results must repeat it.  Raw outputs are dropped once
    digested, so the heap, and with it the garbage collector's work, stays
    the same from task to task."""
    pool = len(inputs)
    first = [None] * pool
    bad_input = [False] * pool
    failures: list[str] = []
    latencies, walls, rates = [], [], []

    def record(idx: int, raw) -> tuple[int, int]:
        """Digest and, the first time, check one result; return (1 if the
        task failed else 0, shortcut-edge evaluations)."""
        if raw is None:
            return 1, 0
        result, evaluated, _ = task.summarize(raw)
        result_digest = digest(result)
        if first[idx] is None:
            first[idx] = result_digest
            bad = task.check(api, inputs[idx], raw)
            bad_input[idx] = bool(bad)
            failures.extend(f"input {idx}: {b}" for b in bad)
        elif result_digest != first[idx]:
            failures.append(f"input {idx}: result differs from its first run")
            return 1, evaluated
        return int(bad_input[idx]), evaluated

    failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    before = calibration.seconds()
    while True:
        idx = i % pool
        i += 1
        start = clock()
        raw = run_task(task, api, inputs[idx], failures)
        wall = clock() - start
        # the calibrations on both sides of the task bracket its speed
        after = calibration.seconds()
        walls.append(wall)
        latencies.append(wall * 2 * REFERENCE_S / (before + after))
        before = after
        bad, evaluated = record(idx, raw)
        failed += bad
        rates.append(evaluated / latencies[-1])
        del raw
        if clock() >= deadline:
            break
    attempted = len(latencies)
    for idx in range(pool):
        if first[idx] is None:
            # never completed in the timed loop: run it untimed so that the
            # checks and the digest cover the whole pool
            attempted += 1
            failed += record(idx, run_task(task, api, inputs[idx], failures))[0]
    return {
        "latencies": latencies,
        "walls": walls,
        "rates": rates,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "digest": digest(first),
        "peak_rss_mib": peak_rss_mib(),
    }


def trace_tasks(
    task, api, inputs: list[dict], texts: list[str], traced: int, seconds: float, calibration: Calibration
) -> dict:
    """Replay the first `traced` inputs in rounds of one untraced and one
    traced pass (alternating which goes first) until the time is up.  Layer
    times are medians over the traced passes; counts must repeat exactly
    across passes and agree between traced and untraced passes."""
    fixed = inputs[:traced]
    tracer = make_tracer(api)
    failures: list[str] = []
    walls = {False: [], True: []}
    snaps = []
    digests = set()
    result_counts = []
    attempted = failed = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    rounds = 0
    while True:
        for on in ((False, True) if rounds % 2 == 0 else (True, False)):
            before = calibration.median_seconds(3)
            if on:
                tracer.reset()
                tracer.install()
            try:
                start = clock()
                raws = [run_task(task, api, inp, failures) for inp in fixed]
                wall = clock() - start
                if on:
                    for text in texts:
                        api.parse_tree(text)
            finally:
                if on:
                    tracer.uninstall()
            factor = 2 * REFERENCE_S / (before + calibration.median_seconds(3))
            walls[on].append(wall * factor)
            if on:
                snap = tracer.snapshot()
                snap["self_s"] = {k: v * factor for k, v in snap["self_s"].items()}
                snaps.append(snap)
            attempted += len(raws)
            failed += sum(r is None for r in raws)
            done = [task.summarize(r) for r in raws if r is not None]
            digests.add(digest([d[0] for d in done]))
            counts: dict = {}
            for _, _, c in done:
                for key, value in c.items():
                    counts[key] = counts.get(key, 0) + value
            result_counts.append(counts)
            if rounds == 0 and not on:
                for inp, raw in zip(fixed, raws):
                    if raw is not None:
                        failures.extend(task.check(api, inp, raw))
            del raws, done
        rounds += 1
        if clock() >= deadline:
            break
    if len(digests) != 1:
        failures.append("results differ between passes")
    if any(c != result_counts[0] for c in result_counts):
        failures.append("result counts differ between passes")
    if any((s["calls"], s["sizes"]) != (snaps[0]["calls"], snaps[0]["sizes"]) for s in snaps):
        failures.append("span counts differ between traced passes")
    if failures and failed == 0:
        failed = 1

    counts = result_counts[0]
    calls = snaps[0]["calls"]
    sizes = snaps[0]["sizes"]

    def self_s(name: str) -> float:
        return statistics.median(s["self_s"].get(name, 0.0) for s in snaps)

    kept, considered = counts.get("kept", 0), counts.get("considered", 0)
    metrics = {
        "tree.parse_s": self_s("tree.parse"),
        "tree.anatomize_s": self_s("tree.anatomize"),
        "tree.anatomize_calls": calls.get("tree.anatomize", 0),
        "tree.bfs_s": self_s("tree.bfs"),
        "search.candidates_s": self_s("search.candidates"),
        "search.self_s": self_s("search"),
        "search.evaluated": counts.get("search.evaluated", 0),
        "search.pruned": counts.get("search.pruned", 0),
        "search.kept_ratio": kept / considered if considered else 0.0,
        "delta.direct_s": self_s("delta.direct"),
        "delta.calls": calls.get("delta.direct", 0),
        "delta.terms": sum(c * api.delta_term_count(k) for k, c in sizes.get("delta.direct", {}).items()),
        "matrixform.s": self_s("matrixform"),
        "matrixform.calls": calls.get("matrixform", 0),
        "matrixform.cells": sum(c * kp * kp for kp, c in sizes.get("matrixform", {}).items()),
        "sweep.s": self_s("sweep"),
        "sweep.records": counts.get("sweep.records", 0),
        "sweep.ops": counts.get("sweep.ops", 0),
        "oracle.s": self_s("oracle"),
        "oracle.calls": calls.get("oracle", 0),
        "bounds.audit_s": self_s("bounds.audit"),
        "bounds.family_s": self_s("bounds.family"),
        "bounds.scan_s": self_s("bounds.scan"),
        "bounds.scan_trees": counts.get("bounds.scan_trees", 0),
        "randgen.decode_s": self_s("randgen.decode"),
        "randgen.decode_calls": calls.get("randgen.decode", 0),
        "trace.overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
    }
    return {
        "metrics": metrics,
        "passes": len(snaps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "digest": digests.pop() if len(digests) == 1 else "",
    }


def main() -> int:
    spec = json.loads(sys.stdin.read())
    api = load_program(Path(spec["src"]))
    task = TASKS[spec["workload"]]
    inputs = [task.prepare(api, raw) for raw in spec["inputs"]]
    task.run(api, inputs[0])  # warm-up
    print("ready", flush=True)
    calibration = Calibration()
    print(f"calibration {calibration.median_seconds(15)!r}", flush=True)
    if spec["mode"] == "setup":
        return 0
    if spec["mode"] == "time":
        out = time_tasks(task, api, inputs, spec["seconds"], calibration)
    else:
        texts = [t for raw in spec["inputs"] for t in raw["trees"]]
        out = trace_tasks(task, api, inputs, texts, spec["traced"], spec["seconds"], calibration)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
