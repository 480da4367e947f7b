import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import insetedge.cli
import insetedge.tree
from insetedge import Corpus, random_labeled_tree, serialize_tree, tree_plus_edge
from insetedge.cli import (
    BENCH_MAX_SIZE,
    BENCH_MAX_SIZES,
    BEST_MAX_N,
    BOUNDS_MAX_N,
    EXHAUSTIVE_MAX_N,
    EXTREMAL_MAX_N,
    ORACLE_MAX_N,
    RANDOM_MAX_N,
    RANDOM_MAX_VERTICES,
    VERIFY_MAX_N,
    main,
)
from insetedge.errors import InsetEdgeError

from conftest import path_tree, spider_tree


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.tree"
    f.write_text(serialize_tree(path_tree(4)))
    return str(f)


@pytest.fixture
def p6_file(tmp_path):
    f = tmp_path / "p6.tree"
    f.write_text(serialize_tree(path_tree(6)))
    return str(f)


@pytest.fixture
def p7_file(tmp_path):
    f = tmp_path / "p7.tree"
    f.write_text(serialize_tree(path_tree(7)))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestWiener:
    def test_p4(self, capsys, p4_file):
        code, out = run(capsys, "wiener", p4_file)
        assert code == 0
        assert out["D"] == 10
        # 10/6 in lowest terms
        assert out["AD"] == "5/3"
        assert out["AD_decimal"] == pytest.approx(10 / 6)


class TestDelta:
    def test_p7_pair(self, capsys, p7_file):
        code, out = run(capsys, "delta", p7_file, "-e", "1", "5")
        assert code == 0
        assert out["k"] == 5
        assert out["d_prime"] == 16
        assert out["ad_prime"] == "16/21"

    def test_methods_agree(self, capsys, p7_file):
        outs = []
        for method in ("direct", "matrix", "oracle"):
            _, out = run(capsys, "delta", p7_file, "-e", "1", "5", "--method", method)
            outs.append(out["d_prime"])
        assert outs == [16, 16, 16]

    def test_adjacent_error(self, capsys, p7_file):
        code, out = run(capsys, "delta", p7_file, "-e", "1", "2")
        assert code == 1
        assert out["error"] == "AdjacentPair"

    @pytest.mark.parametrize("method", ("direct", "matrix", "oracle"))
    @pytest.mark.parametrize("pair", [(2, 2), (7, 7), (0, 9), (9, 0), (2, 3), (3, 2)])
    def test_pair_errors_match_tree_plus_edge(self, capsys, p7_file, method, pair):
        # every method checks the pair once, with tree_plus_edge's errors in its order
        with pytest.raises(InsetEdgeError) as exc:
            tree_plus_edge(path_tree(7), *pair)
        code, out = run(capsys, "delta", p7_file, "-e", *map(str, pair), "--method", method)
        assert code == 1
        assert out == {"error": type(exc.value).__name__, "message": str(exc.value)}

    def test_oracle_id_out_of_range(self, capsys, p7_file):
        code, out = run(capsys, "delta", p7_file, "-e", "0", "9", "--method", "oracle")
        assert code == 1
        assert out["error"] == "IdOutOfRange"

    def test_oracle_over_limit_is_domain_error(self, capsys, tmp_path):
        # rejected before the all-pairs BFS; the formula routes stay open
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(ORACLE_MAX_N + 1)))
        code, out = run(capsys, "delta", str(f), "-e", "0", "2", "--method", "oracle")
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(ORACLE_MAX_N) in out["message"]
        code, out = run(capsys, "delta", str(f), "-e", "0", "2", "--method", "direct")
        # the shortcut brings vertex 0 one step nearer to each of 2 .. n - 1
        assert (code, out["d_prime"]) == (0, ORACLE_MAX_N - 1)

    def test_direct_over_limit_is_domain_error(self, capsys, tmp_path):
        # the O(k^2) direct sum has extremal's cycle-length limit; the
        # matrix route scores the same pair
        k = EXTREMAL_MAX_N + 1
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(k)))
        code, out = run(capsys, "delta", str(f), "-e", "0", str(k - 1), "--method", "direct")
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(EXTREMAL_MAX_N) in out["message"]
        code, out = run(capsys, "delta", str(f), "-e", "0", str(k - 1), "--method", "matrix")
        assert (code, out["k"]) == (0, k)


class TestBest:
    def test_p6(self, capsys, p6_file):
        code, out = run(capsys, "best", p6_file)
        assert code == 0
        assert out["best_pairs"] == [[0, 4], [1, 5]]
        assert out["best_delta"] == 9

    def test_strategies_same_delta(self, capsys, p7_file):
        deltas = set()
        for s in ("exhaustive", "pruned", "oracle"):
            _, out = run(capsys, "best", p7_file, "--strategy", s)
            deltas.add(out["best_delta"])
        assert deltas == {16}

    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    def test_over_limit_is_domain_error(self, capsys, monkeypatch, tmp_path, strategy):
        # the path is the search's worst case; rejected before the search
        monkeypatch.setattr("insetedge.cli.best_edge", None)
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(BEST_MAX_N + 1)))
        code, out = run(capsys, "best", str(f), "--strategy", strategy)
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(BEST_MAX_N) in out["message"]


class TestSweep:
    def test_p7(self, capsys, p7_file):
        code, out = run(capsys, "sweep", p7_file, "-p", "0", "6")
        assert code == 0
        got = [(r["x"], r["y"], r["d_prime"]) for r in out["records"]]
        assert got == [
            (0, 6, 14),
            (1, 5, 16),
            (2, 4, 9),
            (1, 6, 14),
            (2, 5, 12),
            (0, 5, 14),
            (1, 4, 12),
        ]

    def test_over_limit_is_domain_error(self, capsys, monkeypatch, tmp_path):
        # the limit is on the swept path's length k, not on the tree
        monkeypatch.setattr("insetedge.cli.sweep_path", None)
        k = BENCH_MAX_SIZE + 1
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(k)))
        code, out = run(capsys, "sweep", str(f), "-p", "0", str(k - 1))
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(BENCH_MAX_SIZE) in out["message"]
        monkeypatch.undo()
        code, out = run(capsys, "sweep", str(f), "-p", "0", "2")
        assert (code, [r["k"] for r in out["records"]]) == (0, [3])

    def test_limit_check_makes_no_rooted_pass(self, capsys, monkeypatch, tmp_path):
        # k is read from the kept root-0 pass in O(k): parsing the tree makes
        # the one rooted pass, and the over-limit pair adds none
        k = BENCH_MAX_SIZE + 1
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(k)))
        rooted = insetedge.tree._rooted
        roots = []

        def counting(tree, root):
            roots.append(root)
            return rooted(tree, root)

        monkeypatch.setattr("insetedge.tree._rooted", counting)
        monkeypatch.setattr("insetedge.cli.sweep_path", None)
        code, out = run(capsys, "sweep", str(f), "-p", str(k - 1), "0")
        assert (code, out["error"]) == (1, "OutOfDomain")
        assert out["message"] == f"k={k}: sweep supported for paths of k <= {BENCH_MAX_SIZE} vertices"
        assert roots == [0]

    @pytest.mark.parametrize(
        "pair, error, message",
        [
            ((2, 2), "SameVertex", "x == y == 2"),
            ((7, 7), "SameVertex", "x == y == 7"),
            ((0, 9), "IdOutOfRange", "vertex 9 with n=7"),
            ((9, 0), "IdOutOfRange", "vertex 9 with n=7"),
            ((-1, 3), "IdOutOfRange", "vertex -1 with n=7"),
            ((2, 3), "AdjacentPair", "(2, 3) is an edge of the tree"),
            ((3, 2), "AdjacentPair", "(3, 2) is an edge of the tree"),
        ],
    )
    def test_pair_errors(self, capsys, p7_file, pair, error, message):
        code, out = run(capsys, "sweep", p7_file, "-p", *map(str, pair))
        assert code == 1
        assert out == {"error": error, "message": message}


class TestBounds:
    def test_n16(self, capsys):
        code, out = run(capsys, "bounds", "--n", "16")
        assert code == 0
        assert out["claimed_upper"] == 232
        assert out["family_max"] == 234
        assert out["discrepancies"]

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["--n", str(BOUNDS_MAX_N + 1)], BOUNDS_MAX_N),
            (["--n", "10000000"], BOUNDS_MAX_N),
            # n = 9 would scan all 9^7 labeled trees
            (["--n", "9", "--exhaustive-limit", str(EXHAUSTIVE_MAX_N + 1)], EXHAUSTIVE_MAX_N),
            (["--n", "16", "--exhaustive-limit", "1000"], EXHAUSTIVE_MAX_N),
        ],
    )
    def test_over_limit_is_domain_error(self, capsys, argv, limit):
        code, out = run(capsys, "bounds", *argv)
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(limit) in out["message"]


class TestExtremal:
    def test_build(self, capsys, tmp_path):
        code, out = run(capsys, "extremal", "--n", "8", "--k", "6", "--wx", "2", "--wy", "2")
        assert code == 0
        assert out["d_prime"] == 24
        assert out["pair"] == [0, 5]
        assert out["edge_list"].startswith("8\n")

    def test_over_limit_is_domain_error(self, capsys):
        # rejected before the family's shape is checked
        code, out = run(capsys, "extremal", "--n", str(EXTREMAL_MAX_N + 1), "--k", "3", "--wx", "1", "--wy", "1")
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(EXTREMAL_MAX_N) in out["message"]


class TestRandom:
    def test_corpus_deterministic(self, capsys):
        _, a = run(capsys, "random", "--n", "10", "--count", "3", "--seed", "5")
        _, b = run(capsys, "random", "--n", "10", "--count", "3", "--seed", "5")
        assert a == b
        assert len(a["trees"]) == 3

    @pytest.mark.parametrize("n, count, seed", [(2, 2, 0), (3, 4, 9), (10, 3, 5), (300, 2, -7)])
    def test_documents_are_the_serialized_trees(self, capsys, n, count, seed):
        # the samples are printed from their decoded edges, with no Tree built
        code, out = run(capsys, "random", "--n", str(n), "--count", str(count), "--seed", str(seed))
        assert code == 0
        assert out["trees"] == [serialize_tree(t) for t in Corpus(n, seed, count).trees()]

    def test_one_vertex_is_domain_error(self, capsys):
        assert run(capsys, "random", "--n", "1") == (1, {"error": "OutOfDomain", "message": "n=1 < 2"})

    def test_leaf_stats(self, capsys):
        code, out = run(capsys, "random", "--n", "20", "--count", "200", "--seed", "1", "--stats", "leaves")
        assert code == 0
        assert out["mean_leaves"] > 0
        assert "exact_mean" in out and "asymptotic_mean" in out

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (["--n", str(RANDOM_MAX_N + 1)], RANDOM_MAX_N),
            (["--n", "50", "--count", str(RANDOM_MAX_VERTICES // 50 + 1), "--stats", "leaves"], RANDOM_MAX_VERTICES),
            (["--n", "1", "--count", str(RANDOM_MAX_VERTICES + 1)], RANDOM_MAX_VERTICES),
            (["--n", "2000", "--count", "2000", "--stats", "pruning"], RANDOM_MAX_VERTICES),
            (["--n", str(RANDOM_MAX_N + 1), "--stats", "pruning"], RANDOM_MAX_N),
            (["--n", "100", "--count", str(RANDOM_MAX_VERTICES // 100 + 1), "--stats", "pruning"], RANDOM_MAX_VERTICES),
        ],
    )
    def test_over_limit_is_domain_error(self, capsys, argv, limit):
        code, out = run(capsys, "random", *argv)
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(limit) in out["message"]

    def test_at_limits(self, capsys):
        # n * count and n may each reach their limit; the first is the
        # README's example, and --stats pruning has no limit of its own
        argv = ["--n", "50", "--count", str(RANDOM_MAX_VERTICES // 50), "--stats", "leaves"]
        assert run(capsys, "random", *argv)[0] == 0
        argv = ["--n", str(RANDOM_MAX_N), "--stats", "pruning"]
        assert run(capsys, "random", *argv)[0] == 0


class TestVerify:
    def test_ok(self, capsys, p7_file):
        code, out = run(capsys, "verify", p7_file)
        assert code == 0
        assert out["ok"] is True
        assert out["pairs_checked"] == 15

    def test_mismatch(self, capsys, monkeypatch, p7_file):
        # an oracle off by one on (1, 5), the eighth non-adjacent pair of P7
        oracle = insetedge.cli.delta_oracle
        monkeypatch.setattr(
            insetedge.cli, "delta_oracle", lambda t, x, y: oracle(t, x, y) + ((x, y) == (1, 5))
        )
        code, out = run(capsys, "verify", p7_file)
        assert code == 1
        assert out == {
            "command": "verify",
            "file": p7_file,
            "ok": False,
            "mismatch": {"x": 1, "y": 5, "direct": 16, "matrix": 16, "oracle": 17},
            "pairs_checked": 8,
        }
        assert list(out) == ["command", "file", "ok", "mismatch", "pairs_checked"]

    @pytest.mark.parametrize("n, checked", [(1, 0), (2, 0), (3, 1)])
    def test_fewer_than_two_pairs(self, capsys, tmp_path, n, checked):
        # the single vertex and the single edge have no pair to check, P_3
        # only (0, 2)
        f = tmp_path / "short.tree"
        f.write_text(serialize_tree(path_tree(n)))
        assert main(["verify", str(f)]) == 0
        expected = {"command": "verify", "file": str(f), "ok": True, "pairs_checked": checked}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"

    def test_over_limit_is_domain_error(self, capsys, tmp_path):
        # rejected when loaded, before the first of its O(n^4) oracle pairs
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(VERIFY_MAX_N + 1)))
        code, out = run(capsys, "verify", str(f))
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(VERIFY_MAX_N) in out["message"]

    def test_best_oracle_over_limit_is_domain_error(self, capsys, tmp_path):
        # the oracle strategy is O(n^4) like verify; the others stay open
        f = tmp_path / "long.tree"
        f.write_text(serialize_tree(path_tree(VERIFY_MAX_N + 1)))
        code, out = run(capsys, "best", str(f), "--strategy", "oracle")
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(VERIFY_MAX_N) in out["message"]
        code, out = run(capsys, "best", str(f), "--strategy", "pruned")
        assert code == 0
        assert out["evaluated"] > 0


class TestBench:
    def test_structure(self, capsys):
        code, out = run(capsys, "bench", "--sizes", "64", "128")
        assert code == 0
        assert [e["n"] for e in out["entries"]] == [64, 128]
        for e in out["entries"]:
            assert e["recompute_ops"] > e["sweep_ops"]

    def test_smallest_path(self, capsys):
        code, out = run(capsys, "bench", "--sizes", "3")
        assert code == 0
        assert out["entries"] == [
            {
                "n": 3,
                "k": 3,
                "pairs": 1,
                "sweep_ops": 2,
                "recompute_ops": 1,
                "ratio": 0.5,
                "sweep_ops_per_k2": 2 / 9,
            }
        ]

    @pytest.mark.parametrize("sizes", [[BENCH_MAX_SIZE + 1], [64, 10**12]])
    def test_over_limit_is_domain_error(self, capsys, sizes):
        # rejected before the first size is swept
        code, out = run(capsys, "bench", "--sizes", *map(str, sizes))
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(BENCH_MAX_SIZE) in out["message"]

    def test_too_many_sizes_is_domain_error(self, capsys):
        code, out = run(capsys, "bench", "--sizes", *["3"] * (BENCH_MAX_SIZES + 1))
        assert code == 1
        assert out["error"] == "OutOfDomain"
        assert str(BENCH_MAX_SIZES) in out["message"]

    @pytest.mark.parametrize("size", ["1", "2"])
    def test_path_too_short_to_sweep_is_usage_error(self, capsys, size):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "64", size])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestErrors:
    def test_missing_file(self, capsys):
        code, out = run(capsys, "wiener", "/nonexistent/file.tree")
        assert code == 1
        assert "error" in out

    @pytest.mark.parametrize("command", ["wiener", "best", "delta", "verify", "sweep"])
    def test_nul_byte_in_file_name(self, capsys, command):
        # open raises ValueError, not OSError, for a path with a NUL byte
        argv = {"delta": ["-e", "0", "2"], "sweep": ["-p", "0", "2"]}.get(command, [])
        code, out = run(capsys, command, "\x00", *argv)
        assert code == 1
        assert out["error"] == "OSError"
        assert "null byte" in out["message"]

    def test_malformed(self, capsys, tmp_path):
        f = tmp_path / "bad.tree"
        f.write_text("not a tree\n")
        code, out = run(capsys, "wiener", str(f))
        assert code == 1
        assert out["error"] == "MalformedLine"

    @pytest.mark.parametrize("command", ["wiener", "best"])
    def test_not_utf8(self, capsys, tmp_path, command):
        f = tmp_path / "bad.tree"
        f.write_bytes(b"4\n0 1\n1 2\n2 \xff3\n")
        code, out = run(capsys, command, str(f))
        assert code == 1
        assert out["error"] == "MalformedLine"

    @pytest.mark.parametrize(
        "argv",
        [
            ["random", "--n", "10", "--count", "0", "--stats", "pruning"],
            ["random", "--n", "10", "--count", "-3", "--stats", "pruning"],
            ["random", "--n", "0"],
            ["bench", "--sizes", "0"],
            ["bench", "--sizes", "64", "-2"],
            ["extremal", "--n", "0", "--k", "3", "--wx", "1", "--wy", "1"],
            ["extremal", "--n", "8", "--k", "6", "--wx", "0", "--wy", "4"],
            ["bounds", "--n", "-1"],
            ["bounds", "--n", "5", "--exhaustive-limit", "-3"],
        ],
        ids=[
            "random-count-0",
            "random-count-neg",
            "random-n-0",
            "bench-sizes-0",
            "bench-sizes-neg",
            "extremal-n-0",
            "extremal-wx-0",
            "bounds-n-neg",
            "bounds-exhaustive-limit-neg",
        ],
    )
    def test_nonpositive_int_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# Fuzzing main(argv).  Numbers stay in [-3, 12] (the exhaustive limit at
# 6 or below), or lie past the work limit of the flag they are drawn for,
# which is rejected before any work, so every example is fast: random
# garbage text has no digit, and the fixed garbage tokens parse to 4 at
# most, so no example asks for unbounded work.  No token contains 'h', so
# no abbreviation of --help (which prints usage on stdout and exits 0) can
# form.
NUMBER = st.sampled_from([str(i) for i in [*range(1, 13), 0, -1, -3]])
GARBAGE = st.sampled_from(
    ["", "x", "1.5", "0x3", "-", "--", "nan", "1e1", "\u0663", " 4", "--n", "-e"]
) | st.text(alphabet="-.+_aenx /\x00\u00e9", max_size=4)
VALUE = st.one_of(NUMBER, NUMBER, NUMBER, GARBAGE)


def past(limit):
    return st.sampled_from([str(limit + 1), str(2 * limit), str(10**12)])


def flag(name, values=VALUE):
    return st.tuples(st.just(name), values)


def optional(name, values):
    return st.lists(flag(name, values), max_size=1).map(lambda found: found[0] if found else ())


def choice(*names):
    return st.one_of(st.sampled_from(names), st.sampled_from(names), GARBAGE)


# the tokens after the subcommand, in groups; "@" stands for the tree file
FUZZ_ARGS = {
    "wiener": st.tuples(st.just(["@"])),
    "delta": st.tuples(
        st.just(["@", "-e"]),
        st.tuples(VALUE, VALUE),
        optional("--method", choice("direct", "matrix", "oracle")),
    ),
    "sweep": st.tuples(st.just(["@", "-p"]), st.tuples(VALUE, VALUE)),
    "best": st.tuples(st.just(["@"]), optional("--strategy", choice("exhaustive", "pruned", "oracle"))),
    "bounds": st.tuples(
        flag("--n", VALUE | past(BOUNDS_MAX_N)),
        optional(
            "--exhaustive-limit",
            st.sampled_from(["4", "5", "6", "0", "-3"]) | past(EXHAUSTIVE_MAX_N) | GARBAGE,
        ),
    ),
    "extremal": st.tuples(
        flag("--n", VALUE | past(EXTREMAL_MAX_N)),
        flag("--k"),
        flag("--wx"),
        flag("--wy"),
        optional("--shape", choice("star", "path")),
    ),
    "random": st.tuples(
        flag("--n", VALUE | past(RANDOM_MAX_N)),
        optional("--count", VALUE | past(RANDOM_MAX_VERTICES)),
        optional("--seed", VALUE | st.integers().map(str)),
        optional("--stats", choice("leaves", "pruning")),
    ),
    "verify": st.tuples(st.just(["@"])),
    "bench": st.tuples(
        st.just(["--sizes"]),
        st.lists(VALUE | past(BENCH_MAX_SIZE), min_size=1, max_size=BENCH_MAX_SIZES + 2),
    ),
}

# now and then a tree past the oracle's limit
TREE_DOCUMENTS = st.builds(
    random_labeled_tree, st.integers(2, 12) | st.just(VERIFY_MAX_N + 1), st.integers(0, 2**32)
).map(lambda t: serialize_tree(t).encode())
TREE_FILES = st.one_of(
    st.binary(max_size=48),
    TREE_DOCUMENTS,
    TREE_DOCUMENTS,
    st.tuples(st.builds(path_tree, st.integers(1, 12)), st.binary(max_size=6)).map(
        lambda tb: serialize_tree(tb[0]).encode() + tb[1]
    ),
)


@st.composite
def fuzz_argv(draw, command):
    argv = [command] + [token for group in draw(FUZZ_ARGS[command]) for token in group]
    # now and then a stray token, or one token too few
    if draw(st.integers(0, 7)) == 7:
        argv.insert(draw(st.integers(0, len(argv))), draw(VALUE))
    if draw(st.integers(0, 7)) == 7:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@pytest.mark.parametrize("command", sorted(FUZZ_ARGS))
class TestFuzz:
    @given(
        data=st.data(),
        tree_file=TREE_FILES,
        where=st.sampled_from(["file"] * 4 + ["missing", "directory"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_exit_code_and_one_json_document(self, command, data, tree_file, where):
        argv = data.draw(fuzz_argv(command))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.tree")
            with open(path, "wb") as fh:
                fh.write(tree_file)
            target = {"file": path, "missing": os.path.join(tmp, "none.tree"), "directory": tmp}[where]
            argv = [target if token == "@" else token for token in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        else:
            text = out.getvalue()
            assert text.endswith("\n") and text.count("\n") == 1
            assert isinstance(json.loads(text), dict)


# The exact stdout of commands that print every average-distance and "p/q"
# field: AD, ad_prime, ad_prime_decimal, best_ad_prime, critical_points,
# family_argmax and case_values.  The library results carry only the exact
# savings, so cli.py derives each of these fields, and these strings pin
# its bytes.  File names are relative, so "file" reads the same everywhere.
GOLDEN = [
    (
        ["wiener", "p7.tree"],
        '{"command": "wiener", "file": "p7.tree", "n": 7, "D": 56, "AD": "8/3", '
        '"AD_decimal": 2.6666666666666665}\n'
    ),
    (
        ["wiener", "spider.tree"],
        '{"command": "wiener", "file": "spider.tree", "n": 5, "D": 20, "AD": "2/1", '
        '"AD_decimal": 2.0}\n'
    ),
    (
        ["wiener", "one.tree"],
        '{"command": "wiener", "file": "one.tree", "n": 1, "D": 0, "AD": "0/1", '
        '"AD_decimal": 0.0}\n'
    ),
    (
        ["delta", "p7.tree", "-e", "1", "5", "--method", "direct"],
        '{"command": "delta", "file": "p7.tree", "method": "direct", "x": 1, "y": 5, '
        '"k": 5, "d_prime": 16, "ad_prime": "16/21", '
        '"ad_prime_decimal": 0.7619047619047619}\n'
    ),
    (
        ["delta", "p7.tree", "-e", "1", "5", "--method", "matrix"],
        '{"command": "delta", "file": "p7.tree", "method": "matrix", "x": 1, "y": 5, '
        '"k": 5, "d_prime": 16, "ad_prime": "16/21", '
        '"ad_prime_decimal": 0.7619047619047619}\n'
    ),
    (
        ["delta", "p7.tree", "-e", "1", "5", "--method", "oracle"],
        '{"command": "delta", "file": "p7.tree", "method": "oracle", "x": 1, "y": 5, '
        '"k": 5, "d_prime": 16, "ad_prime": "16/21", '
        '"ad_prime_decimal": 0.7619047619047619}\n'
    ),
    (
        ["delta", "spider.tree", "-e", "3", "4", "--method", "direct"],
        '{"command": "delta", "file": "spider.tree", "method": "direct", "x": 3, "y": 4, '
        '"k": 5, "d_prime": 5, "ad_prime": "1/2", "ad_prime_decimal": 0.5}\n'
    ),
    (
        ["delta", "spider.tree", "-e", "3", "4", "--method", "matrix"],
        '{"command": "delta", "file": "spider.tree", "method": "matrix", "x": 3, "y": 4, '
        '"k": 5, "d_prime": 5, "ad_prime": "1/2", "ad_prime_decimal": 0.5}\n'
    ),
    (
        ["delta", "spider.tree", "-e", "3", "4", "--method", "oracle"],
        '{"command": "delta", "file": "spider.tree", "method": "oracle", "x": 3, "y": 4, '
        '"k": 5, "d_prime": 5, "ad_prime": "1/2", "ad_prime_decimal": 0.5}\n'
    ),
    (
        ["sweep", "p7.tree", "-p", "0", "6"],
        '{"command": "sweep", "file": "p7.tree", "x": 0, "y": 6, "records": [{"x": 0, '
        '"y": 6, "k": 7, "d_prime": 14, "ad_prime": "2/3", '
        '"ad_prime_decimal": 0.6666666666666666}, {"x": 1, "y": 5, "k": 5, '
        '"d_prime": 16, "ad_prime": "16/21", "ad_prime_decimal": 0.7619047619047619}, '
        '{"x": 2, "y": 4, "k": 3, "d_prime": 9, "ad_prime": "3/7", '
        '"ad_prime_decimal": 0.42857142857142855}, {"x": 1, "y": 6, "k": 6, '
        '"d_prime": 14, "ad_prime": "2/3", "ad_prime_decimal": 0.6666666666666666}, '
        '{"x": 2, "y": 5, "k": 4, "d_prime": 12, "ad_prime": "4/7", '
        '"ad_prime_decimal": 0.5714285714285714}, {"x": 0, "y": 5, "k": 6, '
        '"d_prime": 14, "ad_prime": "2/3", "ad_prime_decimal": 0.6666666666666666}, '
        '{"x": 1, "y": 4, "k": 4, "d_prime": 12, "ad_prime": "4/7", '
        '"ad_prime_decimal": 0.5714285714285714}]}\n'
    ),
    (
        ["sweep", "spider.tree", "-p", "3", "4"],
        '{"command": "sweep", "file": "spider.tree", "x": 3, "y": 4, '
        '"records": [{"x": 3, "y": 4, "k": 5, "d_prime": 5, "ad_prime": "1/2", '
        '"ad_prime_decimal": 0.5}, {"x": 2, "y": 0, "k": 3, "d_prime": 4, '
        '"ad_prime": "2/5", "ad_prime_decimal": 0.4}, {"x": 2, "y": 4, "k": 4, '
        '"d_prime": 4, "ad_prime": "2/5", "ad_prime_decimal": 0.4}, {"x": 3, "y": 0, '
        '"k": 4, "d_prime": 4, "ad_prime": "2/5", "ad_prime_decimal": 0.4}]}\n'
    ),
    (
        ["best", "p7.tree", "--strategy", "exhaustive"],
        '{"command": "best", "file": "p7.tree", "strategy": "exhaustive", '
        '"best_pairs": [[1, 5]], "best_delta": 16, "best_ad_prime": "16/21", '
        '"best_ad_prime_decimal": 0.7619047619047619, "evaluated": 15, "pruned": 0}\n'
    ),
    (
        ["best", "p7.tree", "--strategy", "pruned"],
        '{"command": "best", "file": "p7.tree", "strategy": "pruned", "best_pairs": [[1, '
        '5]], "best_delta": 16, "best_ad_prime": "16/21", '
        '"best_ad_prime_decimal": 0.7619047619047619, "evaluated": 13, "pruned": 2}\n'
    ),
    (
        ["best", "p7.tree", "--strategy", "oracle"],
        '{"command": "best", "file": "p7.tree", "strategy": "oracle", "best_pairs": [[1, '
        '5]], "best_delta": 16, "best_ad_prime": "16/21", '
        '"best_ad_prime_decimal": 0.7619047619047619, "evaluated": 15, "pruned": 0}\n'
    ),
    (
        ["best", "spider.tree", "--strategy", "exhaustive"],
        '{"command": "best", "file": "spider.tree", "strategy": "exhaustive", '
        '"best_pairs": [[3, 4]], "best_delta": 5, "best_ad_prime": "1/2", '
        '"best_ad_prime_decimal": 0.5, "evaluated": 6, "pruned": 0}\n'
    ),
    (
        ["best", "spider.tree", "--strategy", "pruned"],
        '{"command": "best", "file": "spider.tree", "strategy": "pruned", '
        '"best_pairs": [[3, 4]], "best_delta": 5, "best_ad_prime": "1/2", '
        '"best_ad_prime_decimal": 0.5, "evaluated": 6, "pruned": 0}\n'
    ),
    (
        ["best", "spider.tree", "--strategy", "oracle"],
        '{"command": "best", "file": "spider.tree", "strategy": "oracle", '
        '"best_pairs": [[3, 4]], "best_delta": 5, "best_ad_prime": "1/2", '
        '"best_ad_prime_decimal": 0.5, "evaluated": 6, "pruned": 0}\n'
    ),
    (
        ["bounds", "--n", "16"],
        '{"n": 16, "claimed_upper": 232, "family_max": 234, "family_argmax": {"k": 11, '
        '"w_x": 3, "w_y": 4}, "case_values": {"3": {"exact": 56, "claimed": 58}, '
        '"4": {"exact": 98, "claimed": 98}, "5": {"exact": 139, "claimed": 139}, '
        '"6": {"exact": 168, "claimed": 168}, "7": {"exact": 195, "claimed": 195}, '
        '"8": {"exact": 212, "claimed": 212}, "9": {"exact": 226, "claimed": 226}, '
        '"10": {"exact": 232, "claimed": 232}, "11": {"exact": 234, "claimed": 232}, '
        '"12": {"exact": 230, "claimed": 226}, "13": {"exact": 221, "claimed": 213}, '
        '"14": {"exact": 208, "claimed": 196}, "15": {"exact": 189, "claimed": 169}}, '
        '"critical_points": {"integer_split": {"k1": "264/25", "k2": "8/1", '
        '"k3": "199/25"}, "fractional_split": {"k1": "262/25", "k2": "199/25", '
        '"k3": "198/25"}, "rounded_candidates": [7, 8, 10, 11]}, '
        '"oracle_confirmed": true, "argmax_window_ok": true, "empirical_max": null, '
        '"empirical_tree_count": null, "lower_bound_ok": null, '
        '"discrepancies": [{"quantity_a": "case_formula(n=16, k=3)", "value_a": 58, '
        '"quantity_b": "family_delta(n=16, k=3, balanced)", "value_b": 56, '
        '"note": "claimed per-k formula disagrees with exact evaluation"}, '
        '{"quantity_a": "case_formula(n=16, k=11)", "value_a": 232, '
        '"quantity_b": "family_delta(n=16, k=11, balanced)", "value_b": 234, '
        '"note": "claimed per-k formula disagrees with exact evaluation"}, '
        '{"quantity_a": "case_formula(n=16, k=12)", "value_a": 226, '
        '"quantity_b": "family_delta(n=16, k=12, balanced)", "value_b": 230, '
        '"note": "claimed per-k formula disagrees with exact evaluation"}, '
        '{"quantity_a": "case_formula(n=16, k=13)", "value_a": 213, '
        '"quantity_b": "family_delta(n=16, k=13, balanced)", "value_b": 221, '
        '"note": "claimed per-k formula disagrees with exact evaluation"}, '
        '{"quantity_a": "case_formula(n=16, k=14)", "value_a": 196, '
        '"quantity_b": "family_delta(n=16, k=14, balanced)", "value_b": 208, '
        '"note": "claimed per-k formula disagrees with exact evaluation"}, '
        '{"quantity_a": "case_formula(n=16, k=15)", "value_a": 169, '
        '"quantity_b": "family_delta(n=16, k=15, balanced)", "value_b": 189, '
        '"note": "claimed per-k formula disagrees with exact evaluation"}, '
        '{"quantity_a": "claimed_upper(n=16)", "value_a": 232, '
        '"quantity_b": "family_max", "value_b": 234, '
        '"note": "claimed global bound disagrees with exact family optimum"}], '
        '"command": "bounds"}\n'
    ),
]


class TestGoldenBytes:
    @pytest.fixture
    def in_tree_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p7.tree").write_text(serialize_tree(path_tree(7)))
        (tmp_path / "spider.tree").write_text(serialize_tree(spider_tree()))
        (tmp_path / "one.tree").write_text("1\n")

    @pytest.mark.parametrize("argv, expected", GOLDEN, ids=["-".join(a) for a, _ in GOLDEN])
    def test_stdout(self, capsys, in_tree_dir, argv, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_bounds_serializes(self, capsys):
        # asdict of the report plus the keys the CLI reshapes: one JSON
        # document, with the argmax as named fields
        code, out = run(capsys, "bounds", "--n", "16")
        assert code == 0
        assert out["family_argmax"] == {"k": 11, "w_x": 3, "w_y": 4}
