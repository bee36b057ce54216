"""Golden CLI corpus: fixed fingerprints of `pauliblocks` runs.

Each case runs `main()` in-process inside a fresh temporary directory that
holds the case's input files under relative names, so error messages that
quote a path do not depend on where the test runs. A case records its exit
code (the largest, if it runs several commands), the sha256 of stdout, of
stderr and of every file it writes with `--out`, and the message of every
warning raised while it runs (only the message: the source line that the
real CLI prints with a warning moves whenever the code around it does).

A refactor must leave every fingerprint unchanged. Check the corpus without
pytest, from the root of the checkout:

    python tests/test_golden_cli.py            # exit 1 on any mismatch
    python tests/test_golden_cli.py --record   # rewrite tests/golden_cli.json

Re-recording is for deliberate output changes only.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

WORKED = "qubits: 2\n4.0 XI\n4.0 IX\n1.0 IZ\n1.0 ZX\n"

# Dense and sparse lines, a comment, a duplicate, an identity line, a zero
# coefficient and a pair that merges to zero: loading it warns five times.
# The coefficients are dyadic, so every sum of them or of their squares is
# exact and the score does not depend on how the Python version sums floats.
MIXED = """\
# six qubits, mixed notation
qubits: 6
0.5 XXIIZZ
-1.25 Z0 Z1
0.75 IYIYII
2.0 X2 X3
0.5 XXIIZZ
9.765625e-4 ZZZZZZ
0.3 IIIIII
0.0 X5
-0.875 Y0 Y5
1.5 IIXZXZ
0.625 ZIZIZI
-0.375 X1 Y2 Z3
1.0 X4
-1.0 X4
0.5625 XIXIXI
-0.6875 IZIZIZ
1.125 YYIIII
0.1875 IIIIYY
"""

# Non-dyadic coefficients: their sums round, so the printed score depends
# on the order in which the score adds them.
NONDYADIC = """\
qubits: 5
0.3 XXIII
1e-3 ZZIII
-0.8 IXXII
0.1 IIZZI
0.7 IIIXX
-0.45 YIYII
0.2 ZIIIZ
1.1 XIXIX
0.05 IZIZI
-0.33 IIYYI
0.6 ZZZZZ
-0.07 XIIIZ
"""

BACON = "qubits: 9\n1.0 XXXXXXIII\n1.0 IIIXXXXXX\n1.0 ZZIZZIZZI\n1.0 IZZIZZIZZ\n"

MALFORMED = "qubits: 2\n1.0 XX\nbroken\n"

HUGE = "99999999999999999999999"  # above sys.maxsize

# Z_0 .. Z_15 conjugated by random_circuit(16, 400, seed=16), with distinct
# dyadic coefficients: 16 independent, pairwise commuting dense strings, so
# `diag --k 16` eliminates a full-rank 16 x 16 block.
DENSE16 = """\
qubits: 16
1.0 YXXYIYXXIYIZIZZZ
0.9375 XZZYZXYYYIXZYXXI
0.875 YZXXIIIZZYIXXXZY
0.8125 XIZXXZIIYXYZIXIZ
0.75 YIIZZYYYYZZIXIZI
0.6875 XXXZXIXXZZXZXYZZ
0.625 ZXXZZXZZYZIYXYZZ
0.5625 IXZYYYYZZXZXYXZZ
0.5 ZYXXXIZYYIIXIZIZ
0.4375 ZXXIZYZIXYYZZYZY
0.375 YYYYZIZIXZYZIIII
0.3125 YXZXYYXYXZYYZXIZ
0.25 IZZYIZIXIIXXXXIX
0.1875 XXIZZXZYIIYXIYIX
0.125 ZXIZIIIYIYZXIZIZ
0.0625 IYYZXZYIXYYZZXII
"""


WIDE_SPARSE = "qubits: 1000\n1.0 Z0\n0.5 X1 X2\n0.25 Z1 Z2\n"


def _case(*argv, files=None, outs=(), then=()):
    """One `main()` run, followed by the runs in `then` in the same directory;
    a case's fingerprint covers all of them together."""
    argvs = [list(argv), *map(list, then)]
    return {"argvs": argvs, "files": files or {}, "outs": list(outs)}


_M = {"mixed.txt": MIXED}

CASES = {
    # gen, one case per family
    "gen_bacon_shor": _case(
        "gen", "bacon-shor", "--rows", "2", "--cols", "3", "--ordering", "row-major"
    ),
    "gen_tfim_out": _case(
        "gen", "tfim", "--n", "5", "--j", "0.5", "--g", "-1.5", "--out", "tfim.txt",
        outs=["tfim.txt"],
    ),
    "gen_hardcore_boson": _case("gen", "hardcore-boson", "--n", "4", "--t", "3"),
    "gen_random": _case("gen", "random", "--n", "8", "--w", "3", "--seed", "4"),
    # 2,000 qubits: about 4 MB of dense text, every string rendered in full
    "gen_random_wide": _case(
        "gen", "random", "--n", "2000", "--w", "2.0", "--seed", "1", "--out", "r.txt",
        outs=["r.txt"],
    ),
    # group at k=1, a middle k, k=n, explicit blocks and random insertion
    "group_worked_k1": _case("group", "h.txt", "--k", "1", files={"h.txt": WORKED}),
    "group_k1": _case("group", "mixed.txt", "--k", "1", files=_M),
    "group_k3_out": _case(
        "group", "mixed.txt", "--k", "3", "--out", "g.json", files=_M, outs=["g.json"]
    ),
    "group_kn": _case("group", "mixed.txt", "--k", "6", files=_M),
    "group_blocks": _case("group", "mixed.txt", "--blocks", "1,2,3", files=_M),
    "group_random": _case(
        "group", "mixed.txt", "--k", "2", "--algorithm", "random", "--seed", "5",
        files=_M,
    ),
    # sweep
    "sweep_csv": _case("sweep", "mixed.txt", "--jobs", "1", files=_M),
    "sweep_json_out": _case(
        "sweep", "bacon.txt", "--ks", "1..9", "--format", "json", "--jobs", "1",
        "--out", "s.json", files={"bacon.txt": BACON}, outs=["s.json"],
    ),
    "sweep_circuits": _case(
        "sweep", "mixed.txt", "--ks", "1,2,3,6", "--with-circuits", "--jobs", "1",
        files=_M,
    ),
    "sweep_random": _case(
        "sweep", "mixed.txt", "--algorithm", "random", "--seed", "9", "--jobs", "1",
        files=_M,
    ),
    "sweep_jobs2": _case(
        "sweep", "mixed.txt", "--ks", "1..6", "--with-circuits", "--jobs", "2",
        files=_M,
    ),
    "group_sweep_nondyadic": _case(
        "group", "nd.txt", "--k", "1", files={"nd.txt": NONDYADIC},
        then=[("sweep", "nd.txt", "--jobs", "1")],
    ),
    # kstar, one case per family
    "kstar_bacon_shor": _case("kstar", "bacon-shor", "--sizes", "4,9", "--jobs", "1"),
    "kstar_tfim": _case(
        "kstar", "tfim", "--sizes", "3,5,8", "--g", "0.5", "--format", "json",
        "--jobs", "1",
    ),
    "kstar_hardcore_boson": _case(
        "kstar", "hardcore-boson", "--sizes", "3,6", "--t", "1.5", "--jobs", "1"
    ),
    "kstar_random_out": _case(
        "kstar", "random", "--sizes", "4,6", "--w", "1.5", "--seed", "11",
        "--seeds", "4", "--jobs", "1", "--out", "k.csv", outs=["k.csv"],
    ),
    # bound and diag
    "bound": _case("bound", "--n", "8", "--r", "4"),
    # long enough that a compensated sum (builtin sum() from 3.12 on)
    # would print different digits
    "bound_wide": _case("bound", "--n", "128", "--r", "128"),
    # the terms from m = 53 on add as one integer series, not one by one
    "bound_huge": _case("bound", "--n", "1000000000000", "--r", "1000000000000"),
    "diag_stdout": _case("diag", "mixed.txt", "--k", "3", files=_M),
    "diag_out": _case(
        "diag", "mixed.txt", "--blocks", "2,4", "--group-index", "1", "--out", "c.txt",
        files=_M, outs=["c.txt"],
    ),
    "diag_random": _case(
        "diag", "bacon.txt", "--k", "3", "--algorithm", "random", "--seed", "2",
        files={"bacon.txt": BACON},
    ),
    "diag_dense_full": _case("diag", "d.txt", "--k", "16", files={"d.txt": DENSE16}),
    "diag_dense_blocks": _case(
        "diag", "d.txt", "--blocks", "4,4,8", files={"d.txt": DENSE16}
    ),
    "sweep_circuits_random": _case(
        "gen", "random", "--n", "12", "--w", "4", "--seed", "5", "--out", "r.txt",
        then=[("sweep", "r.txt", "--with-circuits", "--jobs", "1")],
    ),
    # block sizes that all share one commutation relation (tfim), that each
    # have their own (hardcore-boson), and a pooled scan of random instances;
    # a sweep without circuits runs in one process at any --jobs
    "sweep_tfim_all_k": _case(
        "gen", "tfim", "--n", "9", "--j", "0.5", "--g", "-1.5", "--out", "t.txt",
        then=[
            ("sweep", "t.txt", "--jobs", "1"),
            ("sweep", "t.txt", "--with-circuits", "--format", "json", "--jobs", "1"),
            ("sweep", "t.txt", "--algorithm", "random", "--seed", "3", "--jobs", "2"),
        ],
    ),
    "sweep_hardcore_boson_circuits_jobs2": _case(
        "gen", "hardcore-boson", "--n", "7", "--t", "3", "--out", "hb.txt",
        then=[("sweep", "hb.txt", "--with-circuits", "--jobs", "2")],
    ),
    "kstar_random_jobs2": _case(
        "kstar", "random", "--sizes", "6,9,12", "--w", "2", "--seed", "21",
        "--seeds", "5", "--jobs", "2",
    ),
    # heavy random terms: many even-anticommuting pairs, so many classes of
    # block sizes, grouped in a seeded random order on a pool
    "sweep_random_heavy_circuits_jobs2": _case(
        "gen", "random", "--n", "14", "--w", "7", "--seed", "4", "--out", "r.txt",
        then=[(
            "sweep", "r.txt", "--algorithm", "random", "--seed", "11", "--jobs", "2",
            "--with-circuits",
        )],
    ),
    "sweep_ks_list": _case(
        "gen", "random", "--n", "14", "--w", "7", "--seed", "4", "--out", "r.txt",
        then=[("sweep", "r.txt", "--ks", "2,5,9", "--jobs", "1")],
    ),
    # twelve block sizes in eight relation classes, one of them [2, 5], each
    # size one cell of the circuit synthesis over three workers
    "sweep_eight_classes_jobs3": _case(
        "gen", "random", "--n", "12", "--w", "3", "--seed", "5", "--out", "r.txt",
        then=[
            ("sweep", "r.txt", "--jobs", "3", "--with-circuits"),
            ("sweep", "r.txt", "--jobs", "3", "--format", "json"),
        ],
    ),
    "kstar_random_jobs3": _case(
        "kstar", "random", "--sizes", "5,8,11", "--w", "2.5", "--seed", "31",
        "--seeds", "4", "--jobs", "3",
    ),
    # larger pooled runs: 72 instances go to two workers in chunks of 9, and
    # 64 block sizes to three workers in 11 chunks of at most 6, so the
    # workers' shares differ
    "kstar_random_pooled": _case(
        "kstar", "random", "--sizes", "32,48,64", "--w", "7", "--seeds", "24",
        "--seed", "0", "--jobs", "2",
    ),
    "sweep_circuits_pooled_jobs3": _case(
        "gen", "random", "--n", "64", "--w", "4", "--seed", "3", "--out", "r.txt",
        then=[("sweep", "r.txt", "--with-circuits", "--jobs", "3")],
    ),
    # error lines
    "error_group_no_seed": _case(
        "group", "mixed.txt", "--k", "2", "--algorithm", "random", files=_M
    ),
    "error_sweep_no_seed": _case(
        "sweep", "mixed.txt", "--algorithm", "random", "--jobs", "1", files=_M
    ),
    "error_diag_no_seed": _case(
        "diag", "mixed.txt", "--k", "2", "--algorithm", "random", files=_M
    ),
    "error_gen_no_seed": _case("gen", "random", "--n", "4"),
    "error_kstar_no_seed": _case("kstar", "random", "--sizes", "4", "--jobs", "1"),
    "error_gen_no_n": _case("gen", "tfim"),
    "error_gen_no_cols": _case("gen", "bacon-shor", "--rows", "2"),
    "error_group_no_blocks": _case("group", "mixed.txt", files=_M),
    "error_malformed_line": _case(
        "group", "bad.txt", "--k", "1", files={"bad.txt": MALFORMED}
    ),
    "error_missing_file": _case("group", "absent.txt", "--k", "1"),
    "error_group_index": _case(
        "diag", "mixed.txt", "--k", "3", "--group-index", "99", files=_M
    ),
    # widths past sys.maxsize, rejected before any mask or list is built
    "error_index_overflow": _case(
        "group", "big.txt", "--k", "1", files={"big.txt": f"1.0 X{HUGE}\n"}
    ),
    "error_width_overflow": _case(
        "group", "wide.txt", "--k", "1", files={"wide.txt": f"qubits: {HUGE}\n1.0 X0\n"}
    ),
    "error_blocks_overflow": _case("group", "mixed.txt", "--blocks", HUGE, files=_M),
    "error_ks_overflow": _case(
        "sweep", "mixed.txt", "--ks", f"1..{HUGE}", "--jobs", "1", files=_M
    ),
    "error_gen_random_overflow": _case("gen", "random", "--n", HUGE, "--seed", "1"),
    "error_gen_bacon_shor_overflow": _case(
        "gen", "bacon-shor", "--rows", HUGE, "--cols", "2"
    ),
    "error_kstar_overflow": _case(
        "kstar", "random", "--sizes", HUGE, "--seed", "1", "--seeds", "1", "--jobs", "1"
    ),
    "error_gen_tfim_overflow": _case("gen", "tfim", "--n", HUGE),
    "error_kstar_hardcore_boson_overflow": _case("kstar", "hardcore-boson", "--sizes", HUGE),
    # every coefficient is finite, but the offset 2·g·n is past the largest float
    "gen_hardcore_boson_offset_overflow": _case(
        "gen", "hardcore-boson", "--n", "100", "--g", "1e307"
    ),
    # the first weight drawn is infinite: it clamps to n
    "gen_random_infinite_weight": _case(
        "gen", "random", "--n", "4", "--w", "1e308", "--seed", "0"
    ),
    # a pool needs at least one worker
    "error_kstar_jobs": _case(
        "kstar", "random", "--sizes", "4", "--seed", "1", "--seeds", "2", "--jobs", "0",
        then=[("kstar", "tfim", "--sizes", "4", "--jobs", "-5")],
    ),
    "error_sweep_jobs": _case("sweep", "mixed.txt", "--jobs", "0", files=_M),
    # an identity-only file loads to no terms at all
    "error_sweep_empty": _case(
        "sweep", "empty.txt", "--jobs", "1", files={"empty.txt": "qubits: 3\n1.0 III\n"}
    ),
    # three terms on the first three of 1,000 qubits: at every k the blocks
    # past qubit 2 hold none of the terms' support, and a wide block's rows
    # touch only two or three of its qubits
    "wide_sparse": _case(
        "diag", "w.txt", "--k", "1", files={"w.txt": WIDE_SPARSE},
        then=[
            ("diag", "w.txt", "--k", "1000"),
            ("sweep", "w.txt", "--with-circuits", "--jobs", "1"),
        ],
    ),
    # one block per qubit, then uneven blocks: two of them split the terms'
    # support, and the blocks past it hold nothing
    "wide_sparse_group_k1": _case("group", "w.txt", "--k", "1", files={"w.txt": WIDE_SPARSE}),
    "wide_sparse_group_blocks": _case(
        "group", "w.txt", "--blocks", "2,1,500,497", files={"w.txt": WIDE_SPARSE}
    ),
    "wide_sparse_diag_blocks": _case(
        "diag", "w.txt", "--blocks", "1,2,3,500,494", files={"w.txt": WIDE_SPARSE}
    ),
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# the workers of every process pool each case starts; the others start none
POOLS = {
    "sweep_jobs2": [2],
    "sweep_hardcore_boson_circuits_jobs2": [2],
    "kstar_random_jobs2": [2],
    "sweep_random_heavy_circuits_jobs2": [2],
    "sweep_eight_classes_jobs3": [3],
    "kstar_random_jobs3": [3],
    "kstar_random_pooled": [2],
    "sweep_circuits_pooled_jobs3": [3],
}


def run_case(case: dict) -> dict:
    """Run one case in a fresh temporary directory and fingerprint it."""
    from pauliblocks.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in case["files"].items():
                Path(name).write_text(text, encoding="utf-8")
            with contextlib.ExitStack() as stack:
                caught = stack.enter_context(warnings.catch_warnings(record=True))
                warnings.simplefilter("always")
                stack.enter_context(contextlib.redirect_stdout(out))
                stack.enter_context(contextlib.redirect_stderr(err))
                code = max(main(argv) for argv in case["argvs"])
            files = {name: _sha(Path(name).read_bytes()) for name in case["outs"]}
        finally:
            os.chdir(cwd)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue()),
        "stderr": _sha(err.getvalue()),
        "files": files,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def run_corpus() -> dict:
    return {name: run_case(case) for name, case in CASES.items()}


def pytest_generate_tests(metafunc):
    if "case_name" in metafunc.fixturenames:
        metafunc.parametrize("case_name", list(CASES))


def test_golden_cli(case_name, monkeypatch):
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(CASES[case_name]) == golden[case_name]
    assert started == POOLS.get(case_name, [])


def test_golden_cli_covers_every_case():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == list(CASES)


def _check() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_corpus()
    bad = sorted(set(golden) ^ set(actual))
    bad += [name for name in actual if name in golden and actual[name] != golden[name]]
    for name in bad:
        print(f"MISMATCH {name}: expected {golden.get(name)}, got {actual.get(name)}")
    print(f"{len(actual) - len(bad)}/{len(actual)} golden CLI cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(run_corpus(), indent=2) + "\n", encoding="utf-8")
        print(f"recorded {len(CASES)} cases in {GOLDEN}")
    elif sys.argv[1:]:
        sys.exit("usage: python tests/test_golden_cli.py [--record]")
    else:
        sys.exit(_check())
