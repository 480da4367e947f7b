"""Command-line surface: JSON on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 domain error (error name in the payload), 2 usage
error.  Exact rationals are emitted as "p/q" strings (_frac) with a
decimal convenience field; library results carry exact savings, and the
average-distance fields are derived here with delta.ad_prime.  Output is
deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .bounds import audit, build_family_tree
from .counting import OpCounter
from .delta import DeltaRecord, ad_prime, delta_direct, delta_term_count
from .errors import InsetEdgeError, MalformedLine, OutOfDomain
from .matrixform import delta_via_matrix
from .oracle import delta_oracle, non_adjacent_pairs
from .randgen import Corpus, exact_leaf_mean, leaf_stats
from .search import STRATEGIES, best_edge, pruning_ratio
from .sweep import sweep_path
from .tree import Tree, _edge_document, _path_sizes, anatomize, parse_tree, serialize_tree, wiener_tree_linear


# Work limits, each a domain error past it, measured on a 2-core x86-64
# machine with Python 3.11.
# largest tree `verify` and `best --strategy oracle` accept: each scores
# every pair with the oracle, O(n^4) in all at worst; `verify` takes
# 0.55-0.59 s on a random tree and 1.10-1.13 s on the path at n = 64
VERIFY_MAX_N = 64
# largest tree `delta --method oracle` accepts: on the path the command
# takes about 0.4 s at n = 512, 0.9-1.2 s at 1024 and 3.7-5.0 s at 2048
ORACLE_MAX_N = 1024
# largest `bounds --n`: the command takes 0.2-0.3 s at n = 512 and
# 0.4-0.7 s at n = 1024
BOUNDS_MAX_N = 1024
# largest `bounds --exhaustive-limit`: the scan visits all n^(n-2) labeled
# trees, about 1 s at n = 8 and 20 s at n = 9
EXHAUSTIVE_MAX_N = 8
# largest tree `best` accepts (any strategy): the search walks every pair
# and scores those its two caps cannot skip, worst on the path, where
# `best` takes 0.2-0.3 s at n = 512, 0.8-1.0 s at 1024 and 4.2-5.3 s at
# 2048 (best_edge alone 4.1-5.2 s of CPU at 2048); a random tree of 2048
# takes 1.3-1.4 s (a loaded shared 2-core machine)
BEST_MAX_N = 2048
# largest `bench` size, and largest path length k of `sweep`: `bench` takes
# 0.3-0.4 s and 35 MiB peak at 32768, 0.6-0.8 s and 53 MiB at 65536;
# `sweep` 0.5-0.6 s and 62 MiB at 32768, printing 49149 records
BENCH_MAX_SIZE = 32768
# most `bench --sizes` values: eight sizes of 32768 take about 5 s
BENCH_MAX_SIZES = 8
# largest `extremal --n`, and largest cycle length of `delta --method
# direct`: the O(k^2) delta_direct takes about 1.6-2.3 s at k = n = 16384
# and 6.3 s at 32768
EXTREMAL_MAX_N = 16384
# largest `random --n`: one tree takes 0.3-0.5 s and 37 MiB at 100000,
# 3.6 s and 230 MiB at 10^6
RANDOM_MAX_N = 100000
# largest `random` n * count: 0.7-0.8 s for 10000 trees of 50, 1.1-1.4 s
# and 46 MiB for 5 trees of 100000; with `--stats pruning`, 2.2-2.5 s for
# 125000 trees of 4 and 2.0-2.1 s and 82 MiB for 5 trees of 100000
RANDOM_MAX_VERTICES = 500000


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _int_at_least(low: int, rule: str):
    """An argparse type: an int of at least low, else the usage error
    "<rule>, got <value>".  argparse names it int in its own errors."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1, "must be a positive integer")


def _load(path: str) -> Tree:
    try:
        fh = open(path, "r", encoding="utf-8")
    except ValueError as exc:
        # a path open cannot name at all, such as one with a NUL byte
        raise OSError(f"cannot open {path!r}: {exc}") from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedLine(f"{path} is not UTF-8: {exc}") from None
    return parse_tree(text)


def _record_payload(rec: DeltaRecord, n: int) -> dict:
    ad = ad_prime(rec.d_prime, n)
    return {
        "x": rec.x,
        "y": rec.y,
        "k": rec.k,
        "d_prime": rec.d_prime,
        "ad_prime": _frac(ad),
        "ad_prime_decimal": float(ad),
    }


def _cmd_wiener(args) -> dict:
    tree = _load(args.file)
    d = wiener_tree_linear(tree)
    # a 1-vertex tree has no pair to average over
    ad = ad_prime(d, tree.n) if tree.n > 1 else Fraction(0)
    return {
        "command": "wiener",
        "file": args.file,
        "n": tree.n,
        "D": d,
        "AD": _frac(ad),
        "AD_decimal": float(ad),
    }


def _cmd_delta(args) -> dict:
    tree = _load(args.file)
    x, y = args.edge
    if args.method == "oracle" and tree.n > ORACLE_MAX_N:
        raise OutOfDomain(f"n={tree.n}: delta --method oracle supported for n <= {ORACLE_MAX_N}")
    # anatomize checks the pair with tree._check_pair, as tree_plus_edge does
    anatomy = anatomize(tree, x, y)
    k = anatomy.k
    if args.method == "direct" and k > EXTREMAL_MAX_N:
        raise OutOfDomain(f"k={k}: delta --method direct supported for k <= {EXTREMAL_MAX_N}")
    if args.method == "oracle":
        d = delta_oracle(tree, x, y)
    else:
        d = delta_via_matrix(anatomy) if args.method == "matrix" else delta_direct(anatomy)
    return {
        "command": "delta",
        "file": args.file,
        "method": args.method,
        **_record_payload(DeltaRecord(x, y, k, d), tree.n),
    }


def _cmd_sweep(args) -> dict:
    tree = _load(args.file)
    x, y = args.path_pair
    # the O(k) climb of the kept root-0 pass, after sweep_path's pair check
    k = len(_path_sizes(tree, x, y)[0])
    if k > BENCH_MAX_SIZE:
        raise OutOfDomain(f"k={k}: sweep supported for paths of k <= {BENCH_MAX_SIZE} vertices")
    records = sweep_path(tree, x, y)
    return {
        "command": "sweep",
        "file": args.file,
        "x": x,
        "y": y,
        "records": [_record_payload(r, tree.n) for r in records],
    }


def _cmd_best(args) -> dict:
    tree = _load(args.file)
    if tree.n > BEST_MAX_N:
        raise OutOfDomain(f"n={tree.n}: best supported for n <= {BEST_MAX_N}")
    if args.strategy == "oracle" and tree.n > VERIFY_MAX_N:
        raise OutOfDomain(f"n={tree.n}: best --strategy oracle supported for n <= {VERIFY_MAX_N}")
    report = best_edge(tree, args.strategy)
    ad = ad_prime(report.best_delta, tree.n)
    return {
        "command": "best",
        "file": args.file,
        "strategy": report.strategy,
        "best_pairs": [list(p) for p in report.best_pairs],
        "best_delta": report.best_delta,
        "best_ad_prime": _frac(ad),
        "best_ad_prime_decimal": float(ad),
        "evaluated": report.evaluated,
        "pruned": report.pruned,
    }


def _cmd_bounds(args) -> dict:
    if args.n > BOUNDS_MAX_N:
        raise OutOfDomain(f"n={args.n}: bounds supported for n <= {BOUNDS_MAX_N}")
    if args.exhaustive_limit > EXHAUSTIVE_MAX_N:
        raise OutOfDomain(
            f"exhaustive limit {args.exhaustive_limit}: supported up to {EXHAUSTIVE_MAX_N}"
        )
    report = audit(args.n, args.exhaustive_limit)
    return {
        **asdict(report),
        "family_argmax": dict(zip(("k", "w_x", "w_y"), report.family_argmax)),
        "case_values": {str(k): v for k, v in sorted(report.case_values.items())},
        "critical_points": {
            case: {name: _frac(v) for name, v in vals.items()} if isinstance(vals, dict) else vals
            for case, vals in report.critical_points.items()
        },
        "command": "bounds",
    }


def _cmd_extremal(args) -> dict:
    if args.n > EXTREMAL_MAX_N:
        raise OutOfDomain(f"n={args.n}: extremal supported for n <= {EXTREMAL_MAX_N}")
    tree, pair = build_family_tree(args.n, args.k, args.wx, args.wy, args.shape)
    anatomy = anatomize(tree, *pair)
    d = delta_direct(anatomy)
    return {
        "command": "extremal",
        "n": args.n,
        "k": args.k,
        "w_x": args.wx,
        "w_y": args.wy,
        "shape": args.shape,
        "pair": list(pair),
        "d_prime": d,
        "edge_list": serialize_tree(tree),
    }


def _cmd_random(args) -> dict:
    if args.n > RANDOM_MAX_N:
        raise OutOfDomain(f"n={args.n}: random supported for n <= {RANDOM_MAX_N}")
    if args.n * args.count > RANDOM_MAX_VERTICES:
        raise OutOfDomain(
            f"n={args.n}, count={args.count}: random supported for n * count <= {RANDOM_MAX_VERTICES}"
        )
    payload = {
        "command": "random",
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "stats": args.stats,
    }
    corpus = Corpus(n=args.n, seed=args.seed, count=args.count)
    if args.stats == "leaves":
        mean, se = leaf_stats(args.n, args.count, args.seed)
        payload.update(
            {
                "mean_leaves": mean,
                "stderr": se,
                "exact_mean": exact_leaf_mean(args.n),
                "asymptotic_mean": args.n / math.e,
            }
        )
    elif args.stats == "pruning":
        ratios = [pruning_ratio(t) for t in corpus.trees()]
        mean = sum(ratios) / len(ratios)
        payload.update(
            {
                "mean_pruning_ratio": float(mean),
                "mean_pruning_ratio_exact": _frac(mean),
                "asymptotic_claim": 1.0 - ((math.e - 1.0) / math.e) ** 2,
            }
        )
    else:
        # the document serialize_tree would print, from the decoded edges
        payload["trees"] = [_edge_document(args.n, edges) for edges in corpus.edge_lists()]
    return payload


def _cmd_verify(args) -> tuple[dict, int]:
    tree = _load(args.file)
    if tree.n > VERIFY_MAX_N:
        raise OutOfDomain(f"n={tree.n}: verify supported for n <= {VERIFY_MAX_N}")
    payload = {"command": "verify", "file": args.file, "ok": True}
    checked = 0
    for u, v in non_adjacent_pairs(tree):
        anatomy = anatomize(tree, u, v)
        direct = delta_direct(anatomy)
        matrix = delta_via_matrix(anatomy)
        oracle = delta_oracle(tree, u, v)
        checked += 1
        if not (direct == matrix == oracle):
            payload["ok"] = False
            payload["mismatch"] = {"x": u, "y": v, "direct": direct, "matrix": matrix, "oracle": oracle}
            break
    payload["pairs_checked"] = checked
    return payload, 0 if payload["ok"] else 1


def _cmd_bench(args) -> dict:
    if len(args.sizes) > BENCH_MAX_SIZES:
        raise OutOfDomain(f"{len(args.sizes)} sizes: bench supported for at most {BENCH_MAX_SIZES}")
    too_long = [n for n in args.sizes if n > BENCH_MAX_SIZE]
    if too_long:
        raise OutOfDomain(f"sizes {too_long}: bench supported for sizes <= {BENCH_MAX_SIZE}")
    entries = []
    for n in args.sizes:
        tree = Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        counter = OpCounter()
        records = sweep_path(tree, 0, n - 1, counter)
        recompute = sum(delta_term_count(r.k) for r in records)
        entries.append(
            {
                "n": n,
                "k": n,
                "pairs": len(records),
                "sweep_ops": counter.ops,
                "recompute_ops": recompute,
                "ratio": recompute / counter.ops,
                "sweep_ops_per_k2": counter.ops / (n * n),
            }
        )
    return {"command": "bench", "entries": entries}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inset",
        description="Exact Wiener-index change under single shortcut-edge insertion in trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wiener", help="Wiener sum and average distance of a tree")
    p.add_argument("file")
    p.set_defaults(func=_cmd_wiener)

    p = sub.add_parser("delta", help="savings of one shortcut edge")
    p.add_argument("file")
    p.add_argument("-e", "--edge", nargs=2, type=int, required=True, metavar=("U", "V"))
    p.add_argument("--method", choices=("direct", "matrix", "oracle"), default="direct")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("sweep", help="savings of the nested shortcut edges along one path")
    p.add_argument("file")
    p.add_argument("-p", "--path-pair", nargs=2, type=int, required=True, metavar=("X", "Y"))
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("best", help="optimal shortcut edge(s)")
    p.add_argument("file")
    p.add_argument("--strategy", choices=STRATEGIES, default="exhaustive")
    p.set_defaults(func=_cmd_best)

    p = sub.add_parser("bounds", help="audit claimed extremal bounds")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--exhaustive-limit", type=_int_at_least(0, "must be a non-negative integer"), default=0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("extremal", help="build an extremal-family tree")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--wx", type=_positive_int, required=True)
    p.add_argument("--wy", type=_positive_int, required=True)
    p.add_argument("--shape", choices=("star", "path"), default="star")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("random", help="seeded random-tree corpus and statistics")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", choices=("leaves", "pruning"), default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="cross-check direct vs matrix vs oracle on every pair")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="sweep vs recompute operation-count scaling")
    # a path needs k >= 3 vertices before its end pair closes a cycle
    sweep_size = _int_at_least(3, "a swept path needs at least 3 vertices")
    p.add_argument("--sizes", nargs="+", type=sweep_size, default=[256, 512, 1024, 2048])
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except (InsetEdgeError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stdout,
        )
        return 1
    if isinstance(result, tuple):
        payload, code = result
    else:
        payload, code = result, 0
    print(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
