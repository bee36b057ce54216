"""Self-tests of the benchmark: run with `python3 -m pytest bench/selftest.py`
from the repository root.

They run every workload at smoke size, show that the checker rejects
corrupted outputs and accepts real ones, and pin the reference results to
the program's outputs recorded in golden.json.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(trace):
    proc = _bench("--workload", "all", "--size", "smoke", "--seconds", "0.2",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    expected = {f"{wl.name}.{m}" for wl in run.SMOKE for m in units}
    assert set(result["metrics"]) == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert "fail_ratio 0/" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "kstar_small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------ checker cases


def _smoke(name, tmp_path, seed=inputs.DEFAULT_SEED):
    """A smoke-size workload, its CLI output, and its checker."""
    wl = next(w for w in run.SMOKE if w.name == name)
    prep = run.prepare(wl, seed, tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "pauliblocks", *prep.argv],
        env=ENV, capture_output=True, text=True, check=True,
    ).stdout
    return prep, out


@pytest.mark.parametrize("name", [wl.name for wl in run.SMOKE])
def test_checker_accepts_real_output(name, tmp_path):
    prep, out = _smoke(name, tmp_path)
    prep.check(out)


def test_checker_rejects_non_commuting_pair(tmp_path):
    prep, out = _smoke("group_many_terms", tmp_path)
    doc = json.loads(out)
    # first fit put groups[1][0] in group 1 because it conflicts with group 0
    doc["groups"][0].append(doc["groups"][1].pop(0))
    with pytest.raises(oracle.CheckFailed, match="do not block-commute"):
        prep.check(json.dumps(doc))


def test_checker_rejects_nan_score(tmp_path):
    prep, out = _smoke("group_many_terms", tmp_path)
    doc = json.loads(out)
    doc["r_hat"] = float("nan")
    with pytest.raises(oracle.CheckFailed, match="non-finite"):
        prep.check(json.dumps(doc))


def test_checker_rejects_non_diagonal_member(tmp_path):
    prep, out = _smoke("diag_dense", tmp_path)
    truncated = "".join(out.splitlines(keepends=True)[:-1])
    with pytest.raises(oracle.CheckFailed, match="not diagonal"):
        prep.check(truncated)


def test_checker_rejects_gate_across_blocks():
    members = [(0b0001, 0b0000)]  # X on qubit 0
    with pytest.raises(oracle.CheckFailed, match="crosses a block"):
        oracle.check_diag("qubits: 4\nCNOT 0 2\nH 0\n", members, 4, 2)
    oracle.check_diag("qubits: 4\nH 0\n", members, 4, 2)


@pytest.mark.parametrize("name", ["sweep_all_k", "kstar_small"])
def test_checker_rejects_changed_table_value(name, tmp_path):
    prep, out = _smoke(name, tmp_path)
    header, first, *rest = out.splitlines(keepends=True)
    fields = first.rstrip("\n").split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    with pytest.raises(oracle.CheckFailed):
        prep.check("".join([header, ",".join(fields) + "\n", *rest]))


# ------------------------------------------------------------------ golden


GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED])
def test_reference_reproduces_recorded_outputs(seed):
    golden = GOLDEN[str(seed)]
    full = {wl.name: wl for wl in run.FULL}

    wl = full["group_many_terms"]
    terms = inputs.sparse_hamiltonian(inputs.workload_rng(wl.name, seed), wl.n, wl.terms)
    groups = oracle.first_fit(terms, wl.n, wl.k, oracle.sorted_order([c for c, _, _ in terms]))
    assert len(groups) == golden[wl.name]["num_groups"]
    assert math.isclose(oracle.r_hat([c for c, _, _ in terms], groups),
                        golden[wl.name]["r_hat"], rel_tol=1e-9)

    wl = full["sweep_all_k"]
    terms = inputs.sparse_hamiltonian(inputs.workload_rng(wl.name, seed), wl.n, wl.terms)
    rows = oracle.sweep_rows(terms, wl.n, range(1, wl.n + 1))
    oracle.check_sweep(golden[wl.name], rows)

    wl = full["diag_dense"]
    terms = inputs.dense_commuting(inputs.workload_rng(wl.name, seed), wl.n)
    group0 = oracle.first_fit(terms, wl.n, wl.k, oracle.sorted_order([c for c, _, _ in terms]))[0]
    assert len(group0) == golden[wl.name]["members"]

    wl = full["kstar_small"]
    oracle.check_kstar(golden[wl.name], oracle.kstar_rows(wl.sizes, wl.w, seed, wl.seeds))
