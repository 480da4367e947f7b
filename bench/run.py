"""Benchmark of insetedge: one workload per invocation.

    python3 bench/run.py --workload search-random --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ./src).  The
inputs come from the seed (bench_inputs.py).  Set-up runs in several fresh
processes and setup_s is their median; the last of them goes on to time
tasks for --seconds and checks every result outside the timed region.  With
--trace 1 that process instead replays a fixed subset of the inputs with
and without spans at the layer boundaries and reports per-layer self times
and counts.  Times are scaled to a reference interpreter speed by a
calibration measured beside them (bench_timing.py); raw wall times are
printed too.  Human-readable lines come first; the last line of stdout is
the JSON result.  Exit status: 0 with a correct result, 1 if a check
failed or a worker died, 2 if the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench_inputs import TINY_TRACED, TRACED, WORKLOADS, make_inputs
from bench_timing import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
WORKER = HERE / "bench_worker.py"
# one thread per workload: numpy's BLAS would otherwise start a thread per
# core at import, which competes with set-up on a small machine
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END = {
    "setup_s": "s",
    "task_s.p50": "s",
    "task_s.tail": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "tree.parse_s": "s",
    "tree.anatomize_s": "s",
    "tree.anatomize_calls": "count",
    "tree.bfs_s": "s",
    "search.candidates_s": "s",
    "search.self_s": "s",
    "search.evaluated": "count",
    "search.pruned": "count",
    "search.kept_ratio": "ratio",
    "delta.direct_s": "s",
    "delta.calls": "count",
    "delta.terms": "count",
    "matrixform.s": "s",
    "matrixform.calls": "count",
    "matrixform.cells": "count",
    "sweep.s": "s",
    "sweep.records": "count",
    "sweep.ops": "count",
    "oracle.s": "s",
    "oracle.calls": "count",
    "bounds.audit_s": "s",
    "bounds.family_s": "s",
    "bounds.scan_s": "s",
    "bounds.scan_trees": "count",
    "randgen.decode_s": "s",
    "randgen.decode_calls": "count",
    "trace.overhead_frac": "ratio",
}

# set-ups per untimed run (setup_s is their median); the last one also measures
SETUPS = 15
# the percentile reported as task_s.tail: fixed, so that runs of different
# lengths report the same statistic; a run warns if fewer than ten tasks lie
# beyond it
TAIL_PCT = 75
# the whole invocation must end well within three minutes
BUDGET_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(spec: dict, calibration: Calibration, deadline: float) -> tuple[float, float, dict]:
    """Start a worker, feed it the spec, and return the seconds from spawn
    to its "ready" line, the speed factor of that set-up and the worker's
    JSON result.  The speed factor comes from calibrations on both sides of
    the set-up: one here before the spawn, one in the worker after "ready".
    The worker is killed if it is still running at the deadline, and always
    waited for."""
    payload = json.dumps(spec).encode()
    before = calibration.median_seconds(15)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=spec["root"],
        env=WORKER_ENV,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        after = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != b"ready\n" or after[:1] != [b"calibration"] or code != 0:
        raise WorkerFailed(f"worker exited with status {code} in {spec['mode']} mode")
    speed = 2 * REFERENCE_S / (before + float(after[1]))
    return setup_s, speed, (json.loads(rest) if rest.strip() else {})


def nearest_rank(values: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs and one set-up (the benchmark's own tests)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    root = HERE.parent
    if not (root / "src" / "insetedge" / "__init__.py").is_file():
        print(f"error: program source {root / 'src' / 'insetedge'} not found", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    calibration = Calibration()
    spec = {
        "root": str(root),
        "src": str(root / "src"),
        "workload": workload.name,
        "seconds": args.seconds,
        "traced": TINY_TRACED if args.tiny else TRACED,
        "inputs": make_inputs(workload, args.seed, args.tiny),
    }
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(spec['inputs'])} inputs, {args.seconds:g} s, trace {args.trace}")

    try:
        if args.trace:
            _, _, out = run_worker(dict(spec, mode="trace"), calibration, deadline)
            names = PER_LAYER
            values = out["metrics"]
            print(f"traced passes: {out['passes']} over the first {spec['traced']} inputs")
        else:
            setups = []
            count = 1 if args.tiny else SETUPS
            for i in range(count):
                mode = "time" if i == count - 1 else "setup"
                wall, speed, out = run_worker(dict(spec, mode=mode), calibration, deadline)
                setups.append((wall, speed))
            latencies = out["latencies"]
            tail, beyond = nearest_rank(latencies, TAIL_PCT)
            names = END_TO_END
            values = {
                "setup_s": statistics.median(wall * speed for wall, speed in setups),
                "task_s.p50": statistics.median(latencies),
                "task_s.tail": tail,
                "pairs_per_s": statistics.median(out["rates"]),
                "peak_rss_mib": out["peak_rss_mib"],
            }
            print(f"set-ups: {', '.join(f'{w:.4f} s at speed {f:.3f}' for w, f in setups)}")
            print(f"tasks: {len(latencies)}; task_s.tail is p{TAIL_PCT}, {beyond} tasks beyond it")
            print(f"raw wall median per task: {statistics.median(out['walls']):.4f} s")
            if beyond < 10:
                print(f"warning: fewer than 10 tasks beyond p{TAIL_PCT}", file=sys.stderr)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in out["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, unit in names.items():
        print(f"  {name:<22} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<22} {out['failed'] / out['attempted']:>16.6g} frac ({out['failed']} of {out['attempted']})")
    print(f"digest {workload.name} seed {args.seed} trace {args.trace}: sha256:{out['digest']}")
    correct = out["failed"] == 0 and not out["failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
