"""Command-line interface behavior, exit codes, and output formats."""

from __future__ import annotations

import ast
import concurrent.futures
import csv
import io
import json
import random
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from conftest import folds_identity_if, traced_peak
from pauliblocks import (
    CliffordCircuit,
    PauliString,
    Tableau,
    Term,
    circuit_from_text,
    circuit_to_text,
    cli,
    clifford,
)
from pauliblocks.cli import main

WORKED_EXAMPLE = "qubits: 2\n4.0 XI\n4.0 IX\n1.0 IZ\n1.0 ZX\n"


def run_cli(*argv) -> int:
    return main(list(argv))


class TestGen:
    def test_tfim_to_stdout(self, capsys):
        assert run_cli("gen", "tfim", "--n", "3") == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert lines[0] == "qubits: 3"
        assert len(lines) == 6
        assert "n_qubits=3 terms=5" in err

    def test_bacon_shor_two_terms(self, capsys):
        assert run_cli("gen", "bacon-shor", "--rows", "2", "--cols", "2") == 0
        out, _ = capsys.readouterr()
        assert out == "qubits: 4\n1.0 XXXX\n1.0 ZZZZ\n"

    def test_random_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert (
                run_cli(
                    "gen", "random", "--n", "10", "--w", "2", "--seed", "7",
                    "--out", str(path),
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_random_without_seed_fails(self, capsys):
        assert run_cli("gen", "random", "--n", "4") == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_params_fail(self, capsys):
        assert run_cli("gen", "bacon-shor", "--rows", "2") == 1
        assert run_cli("gen", "tfim") == 1


class TestGroup:
    def test_worked_example_json(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text(WORKED_EXAMPLE)
        assert run_cli("group", str(path), "--k", "1") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_groups"] == 3
        assert data["groups"] == [[0, 1], [2], [3]]
        assert data["block_sizes"] == [1, 1]
        assert data["r_hat"] == pytest.approx(1.7056866074018469, abs=1e-9)

    def test_block_size_larger_than_n_fails(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text(WORKED_EXAMPLE)
        assert run_cli("group", str(path), "--k", "5") == 1
        assert "error" in capsys.readouterr().err

    def test_exactly_one_block_choice(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text(WORKED_EXAMPLE)
        assert run_cli("group", str(path)) == 1
        assert run_cli("group", str(path), "--k", "1", "--blocks", "1,1") == 1

    def test_explicit_blocks(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text(WORKED_EXAMPLE)
        assert run_cli("group", str(path), "--blocks", "1,1") == 0
        assert json.loads(capsys.readouterr().out)["num_groups"] == 3

    def test_random_needs_seed(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text(WORKED_EXAMPLE)
        assert run_cli("group", str(path), "--k", "1", "--algorithm", "random") == 1
        assert (
            run_cli(
                "group", str(path), "--k", "1", "--algorithm", "random", "--seed", "3"
            )
            == 0
        )

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("1.0 XX\nbroken\n")
        assert run_cli("group", str(path), "--k", "1") == 1
        assert "line 2" in capsys.readouterr().err


class TestSweep:
    def make_bacon(self, tmp_path):
        path = tmp_path / "bs.txt"
        run_cli("gen", "bacon-shor", "--rows", "4", "--cols", "4", "--out", str(path))
        return path

    def test_csv_hits_single_group_first_at_4(self, tmp_path, capsys):
        path = self.make_bacon(tmp_path)
        capsys.readouterr()
        assert run_cli("sweep", str(path), "--jobs", "1") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["k"] for r in rows] == [str(k) for k in range(1, 17)]
        first_single = next(r for r in rows if r["num_groups"] == "1")
        assert first_single["k"] == "4"

    def test_csv_and_json_agree(self, tmp_path, capsys):
        path = self.make_bacon(tmp_path)
        capsys.readouterr()
        assert run_cli("sweep", str(path), "--ks", "1..6", "--jobs", "1") == 0
        csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (
            run_cli(
                "sweep", str(path), "--ks", "1..6", "--format", "json", "--jobs", "1"
            )
            == 0
        )
        json_rows = json.loads(capsys.readouterr().out)
        assert len(csv_rows) == len(json_rows) == 6
        for c, j in zip(csv_rows, json_rows):
            assert set(c.keys()) == set(j.keys())
            assert int(c["k"]) == j["k"]
            assert int(c["num_groups"]) == j["num_groups"]
            assert float(c["r_hat"]) == pytest.approx(j["r_hat"], rel=1e-15)

    def test_ks_comma_list_and_circuits(self, tmp_path, capsys):
        path = self.make_bacon(tmp_path)
        capsys.readouterr()
        assert (
            run_cli(
                "sweep", str(path), "--ks", "2,4", "--with-circuits", "--jobs", "1"
            )
            == 0
        )
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["k"] for r in rows] == ["2", "4"]
        assert all(int(r["max_block_circuit_gates"]) >= 0 for r in rows)

    def test_out_of_range_k_fails(self, tmp_path, capsys):
        path = self.make_bacon(tmp_path)
        capsys.readouterr()
        assert run_cli("sweep", str(path), "--ks", "1..20", "--jobs", "1") == 1

    @pytest.mark.parametrize(
        "ks, bad",
        [("0..3", "0"), ("2..99", "17"), (f"1..{10**23}", "17"), (f"-{10**23}..2", f"-{10**23}")],
        ids=["low", "high", "huge-high", "huge-low"],
    )
    def test_range_names_smallest_k_out_of_range(self, tmp_path, capsys, ks, bad):
        path = self.make_bacon(tmp_path)
        capsys.readouterr()
        assert run_cli("sweep", str(path), f"--ks={ks}", "--jobs", "1") == 1
        assert capsys.readouterr().err == f"error: block size {bad} out of range [1, 16]\n"


class TestKstarBoundDiag:
    def test_kstar_tfim(self, capsys):
        assert (
            run_cli("kstar", "tfim", "--sizes", "4,8", "--format", "json", "--jobs", "1")
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert [(r["n"], r["k_star_rhat"], r["k_star_groups"]) for r in rows] == [
            (4, 1, 1),
            (8, 1, 1),
        ]

    def test_kstar_bacon_requires_square_sizes(self, capsys):
        assert run_cli("kstar", "bacon-shor", "--sizes", "4,5", "--jobs", "1") == 1
        assert "perfect square" in capsys.readouterr().err

    def test_default_jobs_start_no_pool(self, tmp_path, capsys, recording_pool):
        # the benchmark's kstar_small arguments, at the default --jobs
        argv = ["kstar", "random", "--sizes", "16,32,48,64", "--w", "2.0", "--seed", "1"]
        assert run_cli(*argv, "--seeds", "30") == 0
        assert recording_pool.started == []
        capsys.readouterr()
        # three terms on 1,000 qubits: a circuit sweep of 1,000 cells runs
        # in this process unless --jobs asks for workers
        path = tmp_path / "w.txt"
        path.write_text("qubits: 1000\n1.0 Z0\n0.5 X1 X2\n0.25 Z1 Z2\n", encoding="utf-8")
        assert run_cli("sweep", str(path), "--with-circuits") == 0
        serial = capsys.readouterr().out
        assert recording_pool.started == []
        assert run_cli("sweep", str(path), "--with-circuits", "--jobs", "2") == 0
        assert capsys.readouterr().out == serial
        assert recording_pool.started == [2]
        assert recording_pool.chunks == [125]  # ceil(1,000 cells / (4 * 2 workers))

    def test_kstar_jobs_start_one_pool_of_at_most_one_worker_per_cell(
        self, capsys, recording_pool
    ):
        argv = ["kstar", "random", "--sizes", "6,8", "--w", "2.0", "--seed", "1", "--seeds", "3"]
        assert run_cli(*argv) == 0
        serial = capsys.readouterr().out
        assert recording_pool.started == []
        # six instances: --jobs 4 starts four workers, --jobs 16 only six
        for jobs in ("4", "16"):
            assert run_cli(*argv, "--jobs", jobs) == 0
            assert capsys.readouterr().out == serial
        assert recording_pool.started == [4, 6]
        assert recording_pool.chunks == [1, 1]  # under four cells per worker

    def test_jobs_help_states_the_pool_rule(self, capsys):
        for command in ("sweep", "kstar"):
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            help_text = " ".join(capsys.readouterr().out.split())
            assert "--jobs JOBS worker processes; 1 starts none (default 1)" in help_text

    def test_kstar_parallel_jobs_match_serial(self, capsys):
        # factories must survive pickling into worker processes
        for family, jobs in (("bacon-shor", 3), ("tfim", 3), ("hardcore-boson", 3)):
            assert (
                run_cli(
                    "kstar", family, "--sizes", "4,9" if family == "bacon-shor" else "4,6",
                    "--format", "json", "--jobs", str(jobs),
                )
                == 0
            )
            parallel = json.loads(capsys.readouterr().out)
            assert (
                run_cli(
                    "kstar", family, "--sizes", "4,9" if family == "bacon-shor" else "4,6",
                    "--format", "json", "--jobs", "1",
                )
                == 0
            )
            assert parallel == json.loads(capsys.readouterr().out)
        assert (
            run_cli(
                "kstar", "random", "--sizes", "5", "--seed", "0", "--seeds", "4",
                "--format", "json", "--jobs", "2",
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)[0]["num_seeds"] == 4

    def test_a_dead_worker_prints_one_error_line(self, capsys, monkeypatch):
        # a worker killed by a signal or the OOM killer breaks the pool, and
        # the pool's map raises BrokenProcessPool, a RuntimeError
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                raise BrokenProcessPool("a worker process was terminated abruptly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        assert run_cli("kstar", "tfim", "--sizes", "4,5,6", "--jobs", "2") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a worker process was terminated abruptly\n"  # no traceback

    def test_kstar_csv_and_json_agree(self, capsys):
        assert run_cli("kstar", "tfim", "--sizes", "4,8", "--jobs", "1") == 0
        csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (
            run_cli(
                "kstar", "tfim", "--sizes", "4,8", "--format", "json", "--jobs", "1"
            )
            == 0
        )
        json_rows = json.loads(capsys.readouterr().out)
        for c, j in zip(csv_rows, json_rows):
            assert set(c.keys()) == set(j.keys())
            assert int(c["n"]) == j["n"]
            assert float(c["k_star_rhat"]) == j["k_star_rhat"]
            assert float(c["k_star_groups"]) == j["k_star_groups"]

    def test_kstar_random_reports_std(self, capsys):
        assert (
            run_cli(
                "kstar", "random", "--sizes", "6", "--seed", "0", "--seeds", "3",
                "--format", "json", "--jobs", "1",
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["num_seeds"] == 3
        assert "k_star_rhat_std" in rows[0]

    def test_kstar_repeated_size_is_one_row(self, capsys):
        argv = ["kstar", "random", "--seed", "1", "--seeds", "3", "--jobs", "1"]
        assert run_cli(*argv, "--sizes", "6,6") == 0
        repeated = capsys.readouterr().out
        assert run_cli(*argv, "--sizes", "6") == 0
        assert repeated == capsys.readouterr().out
        assert list(csv.DictReader(io.StringIO(repeated)))[0]["num_seeds"] == "3"

    def test_kstar_rejects_nan_rel_tol(self, capsys):
        argv = ["kstar", "tfim", "--sizes", "4", "--rel-tol", "nan", "--jobs", "1"]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "error: rel_tol must be in [0, 1), got nan\n"

    def test_bound_output(self, capsys):
        assert run_cli("bound", "--n", "2", "--r", "2") == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split("=")[1])
        import math

        expected = (math.log2(5) + math.log2(3)) / math.log2(7)
        assert value == pytest.approx(expected, abs=1e-12)
        assert "depth_floor = 1" in out

    def test_bound_rejects_bad_r(self, capsys):
        assert run_cli("bound", "--n", "2", "--r", "3") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", str(sys.maxsize + 1), "--r", "1"],
            ["bound", "--n", "1" + "0" * 400, "--r", "1"],
            ["bound", "--n", "9" * 23, "--r", "9" * 23],
            ["gen", "random", "--n", "9" * 23, "--seed", "1"],
            ["gen", "bacon-shor", "--rows", "9" * 23, "--cols", "2"],
            ["kstar", "random", "--sizes", "9" * 23, "--seed", "1", "--seeds", "1",
             "--jobs", "1"],
        ],
        ids=["bound-maxsize", "bound-1e400", "bound-huge-r", "gen-random",
             "gen-bacon-shor", "kstar-random"],
    )
    def test_width_past_sys_maxsize_is_one_error_line(self, capsys, argv):
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sys.maxsize" in err

    def test_diag_writes_verified_block_local_circuit(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("qubits: 4\n1.0 XXXX\n1.0 ZZZZ\n")
        out = tmp_path / "circuit.txt"
        assert run_cli("diag", str(path), "--k", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "qubits: 4"
        for line in lines[1:]:
            qubits = [int(t) for t in line.split()[1:]]
            assert all(q < 2 for q in qubits) or all(q >= 2 for q in qubits)
        assert "members=2" in capsys.readouterr().err

    def test_diag_group_index_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("qubits: 4\n1.0 XXXX\n1.0 ZZZZ\n")
        assert run_cli("diag", str(path), "--k", "2", "--group-index", "9") == 1


def test_commands_build_no_term(tmp_path, capsys, monkeypatch):
    # group, sweep, kstar and diag read the Hamiltonian's columns; its Term
    # tuple is built only for a caller that reads `terms`
    path = tmp_path / "h.txt"
    path.write_text(WORKED_EXAMPLE + "2.0 Y0 Z1\n")

    def refuse(self, *args):
        raise AssertionError("a Term was built")

    monkeypatch.setattr(Term, "__init__", refuse)
    for argv in (
        ["group", str(path), "--k", "1"],
        ["sweep", str(path), "--jobs", "1", "--with-circuits"],
        ["diag", str(path), "--k", "2"],
        ["kstar", "random", "--sizes", "4,6", "--seed", "1", "--seeds", "3", "--jobs", "1"],
        ["kstar", "tfim", "--sizes", "4,6", "--jobs", "1"],
        ["kstar", "hardcore-boson", "--sizes", "4,6", "--jobs", "1"],
        ["kstar", "bacon-shor", "--sizes", "4,9", "--jobs", "1"],
    ):
        assert run_cli(*argv) == 0, capsys.readouterr().err


class TestDiagRefusesAnUnverifiedCircuit:
    """Each of diag's checks refuses a bad circuit on its own, and diag then
    writes nothing."""

    @pytest.fixture
    def run_diag(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        # group 0 holds terms 1 and 2, so a message that counts the group's
        # members instead of naming its terms is wrong
        path.write_text("qubits: 4\n0.5 XIII\n1.0 XXXX\n1.0 ZZZZ\n")
        out = tmp_path / "circuit.txt"

        def run() -> str:
            code = run_cli("diag", str(path), "--k", "2", "--out", str(out))
            stdout, err = capsys.readouterr()
            assert (code, stdout, out.exists()) == (1, "", False)
            assert err.startswith("error: verification failed: ") and err.count("\n") == 1
            return err

        return run

    @pytest.mark.parametrize("trusted", [None, "tableau", "conjugate"])
    def test_circuit_without_its_last_gate(self, monkeypatch, run_diag, trusted):
        # diag imports its clifford names when it runs, so the patches go on
        # the module it imports them from
        real = clifford.diagonalize_group

        def drop_last_gate(members, blocks):
            circuit = real(members, blocks)
            return CliffordCircuit(circuit.n_qubits, circuit.gates[:-1])

        def diagonal(*args):
            return PauliString(args[-1].n_qubits)

        monkeypatch.setattr(clifford, "diagonalize_group", drop_last_gate)
        # a trusted check calls every image diagonal: the other must refuse
        if trusted == "tableau":
            monkeypatch.setattr(Tableau, "apply", diagonal)
        elif trusted == "conjugate":
            monkeypatch.setattr(clifford, "conjugate", diagonal)
        assert run_diag() == "error: verification failed: term 1 is not diagonalized\n"

    def test_tableau_that_is_not_symplectic(self, monkeypatch, run_diag):
        monkeypatch.setattr(Tableau, "is_symplectic", lambda self: False)
        assert run_diag() == "error: verification failed: tableau is not symplectic\n"


class TestExtremeInputs:
    @pytest.mark.parametrize("coeff", ["1e308", "1e-200"])
    def test_score_is_finite_for_extreme_coefficients(self, tmp_path, capsys, coeff):
        path = tmp_path / "h.txt"
        path.write_text(f"qubits: 2\n{coeff} XI\n{coeff} IX\n")
        assert run_cli("group", str(path), "--k", "1") == 0
        scores = [json.loads(capsys.readouterr().out)["r_hat"]]
        assert run_cli("sweep", str(path), "--jobs", "1", "--format", "json") == 0
        scores += [row["r_hat"] for row in json.loads(capsys.readouterr().out)]
        assert scores == pytest.approx([2.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "text",
        ["nan XI\n", "inf XI\n", "1e308 XI\n1e308 XI\n", "1e308 II\n1e308 II\n"],
        ids=["nan", "inf", "merge", "offset"],
    )
    def test_non_finite_coefficient_names_its_line(self, tmp_path, capsys, text):
        path = tmp_path / "h.txt"
        path.write_text("qubits: 2\n" + text)
        with folds_identity_if("II" in text):
            assert run_cli("group", str(path), "--k", "1") == 1
        out, err = capsys.readouterr()
        assert out == ""
        last = text.count("\n") + 1
        assert err.startswith(f"error: {path}: line {last}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random", "--n", "4", "--w", "inf", "--seed", "0"],
            ["kstar", "random", "--sizes", "4", "--w", "inf", "--seed", "0",
             "--seeds", "2", "--jobs", "1"],
        ],
        ids=["gen", "kstar"],
    )
    def test_non_finite_mean_weight_is_one_error_line(self, capsys, argv):
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random", "--n", "4", "--w", "1e308", "--seed", "0"],
            ["kstar", "random", "--sizes", "4", "--w", "1e308", "--seed", "1",
             "--jobs", "1"],
        ],
        ids=["gen", "kstar"],
    )
    def test_infinite_weight_draw_clamps_to_n(self, argv):
        assert run_cli(*argv) == 0

    @pytest.mark.parametrize(
        "args, check",
        [(["group", "--k", "1"], lambda out: json.loads(out)["groups"] == [[0, 1], [2]]),
         (["sweep", "--ks", "1..100", "--with-circuits", "--jobs", "1"],
          lambda out: len(out.splitlines()) == 101)],
        ids=["group-k1", "sweep-circuits"],
    )
    def test_memory_on_a_wide_register_follows_the_terms(self, tmp_path, capsys, args, check):
        # with a mask per block, each peaked at about 660 MB on 100,000
        # qubits: Θ(n²/k) bits, and 26 s for the sweep (2 cores, Python 3.11)
        path = tmp_path / "w.txt"
        path.write_text("qubits: 100000\n1.0 Z0\n0.5 X1 X2\n0.25 Z1 Z2\n")
        code, peak = traced_peak(lambda: run_cli(args[0], str(path), *args[1:]), 15)
        out, err = capsys.readouterr()
        assert code == 0, err
        assert check(out)
        assert peak < 32 * 2**20, peak

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "hardcore-boson", "--n", "100", "--g", "1e307"],
            ["kstar", "hardcore-boson", "--sizes", "4,100", "--g", "1e307",
             "--jobs", "1"],
        ],
        ids=["gen", "kstar"],
    )
    def test_offset_overflow_is_one_error_line(self, capsys, argv):
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: offset must be finite, got inf\n"


@pytest.mark.parametrize(
    "exc, line",
    [(TypeError("unsupported operand"), "error: unsupported operand"),
     (OverflowError("int too large to convert to float"),
      "error: int too large to convert to float"),
     (KeyError(), "error: KeyError")],  # an empty message names the type
    ids=["TypeError", "OverflowError", "KeyError"],
)
def test_any_library_error_is_one_error_line(monkeypatch, capsys, exc, line):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_bound", fail)
    assert run_cli("bound", "--n", "4", "--r", "2") == 1
    assert capsys.readouterr() == ("", line + "\n")


def test_keyboard_interrupt_is_not_an_error_line(monkeypatch, capsys):
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_bound", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_cli("bound", "--n", "4", "--r", "2")
    assert capsys.readouterr() == ("", "")


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def exhaust(path):
        raise MemoryError

    monkeypatch.setattr(cli, "load_hamiltonian", exhaust)
    assert run_cli("group", "h.txt", "--k", "1") == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("k", ["1", "99999999999"])
def test_out_of_memory_is_one_error_line(tmp_path, k):
    # BlockSpec asks for about 800 GB at either k, a list of sizes or a home
    # entry per qubit; the address-space limit makes the request fail at
    # once, and this test must never run without it
    path = tmp_path / "h.txt"
    path.write_text("qubits: 99999999999\n1.0 X0\n")
    _assert_out_of_memory(["group", str(path), "--k", k])


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize(
    "text, args",
    [
        (f"qubits: {sys.maxsize}\n1.0 X0\n", ["--k", "1"]),
        (f"qubits: {sys.maxsize}\n1.0 X0\n", ["--k", str(sys.maxsize)]),
        (f"qubits: {sys.maxsize}\n1.0 X0\n", ["--blocks", str(sys.maxsize)]),
        (f"1.0 X{sys.maxsize - 1}\n", ["--k", "1"]),
    ],
    ids=["k1", "kn", "blocks", "sparse-index"],
)
def test_widest_loadable_input_is_out_of_memory(tmp_path, text, args):
    # a width of sys.maxsize loads; the first list or bitmap it needs, such
    # as the home entry per qubit that BlockSpec builds, cannot be
    # allocated, under the address-space limit or without it
    path = tmp_path / "h.txt"
    path.write_text(text)
    _assert_out_of_memory(["group", str(path), *args])


def _assert_out_of_memory(argv):
    limit = 1500 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    result = subprocess.run(
        [sys.executable, "-m", "pauliblocks", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: out of memory\n"


# Fragments of malformed input. Widths and indices stay small, so that no
# case asks for a large BlockSpec; wide inputs have their own tests above.
_HEADERS = ["qubits: 0", "qubits: -2", "qubits: x", "qubits:", "QUBITS: 2",
            "qubits: 2 3", "qubits: 1.5", "# comment", ""]
_COEFFICIENTS = ["1.0", "-2", "0.5", "0", "1e308", "1e-320"]
_BAD_COEFFICIENTS = ["nan", "inf", "-inf", "abc", "1e999", "0x10", "--1", ""]
_BAD_SPARSE = ["X", "Z-1", "W2", "x1", "X 0", "Y9"]


def _malformed_terms(rng: random.Random) -> str:
    """Mostly well-formed lines on a width of 1 to 4, each broken at a
    per-file rate, so that some files load and reach grouping."""
    n = rng.randint(1, 4)
    broken = rng.choice([0.0, 0.05, 0.2, 0.5])
    lines = []
    if rng.random() < 0.7:
        lines.append(rng.choice(_HEADERS) if rng.random() < broken else f"qubits: {n}")
    for _ in range(rng.randint(1, 8)):
        coefficient = rng.choice(_COEFFICIENTS)
        if rng.random() < 0.5:
            pauli = "".join(rng.choice("IXYZ") for _ in range(n))
        else:
            sparse = rng.sample(range(n), rng.randint(1, n))
            pauli = " ".join(f"{rng.choice('XYZ')}{q}" for q in sparse)
        if rng.random() < broken:
            coefficient, pauli = rng.choice([
                (rng.choice(_BAD_COEFFICIENTS), pauli),
                (coefficient, pauli + rng.choice(["Q", "I", " Z"])),
                (coefficient, rng.choice(_BAD_SPARSE)),
                (coefficient, ""),
                (rng.choice(_HEADERS), ""),
            ])
        lines.append(f"{coefficient} {pauli}".strip())
    return "\n".join(lines) + "\n"


_BAD_GATE_KINDS = ["T", "h", "cnot", "qubits:", "#H"]
_BAD_GATE_ARGS = ["-1", "x", "1.5", "", "9999999999"]


def _malformed_circuit(rng: random.Random) -> str:
    """Mostly well-formed gates on 1 to 4 qubits, broken at a per-text rate."""
    n = rng.randint(1, 4)
    broken = rng.choice([0.0, 0.1, 0.3])
    lines = [rng.choice(_HEADERS + ["H 0"]) if rng.random() < broken else f"qubits: {n}"]
    for _ in range(rng.randrange(6)):
        kind = rng.choice(["H", "S", "CNOT"])
        args = [str(rng.randrange(n + 1)) for _ in range(2 if kind == "CNOT" else 1)]
        if rng.random() < broken:
            kind = rng.choice([kind, *_BAD_GATE_KINDS])
            args = [rng.choice([*args, *_BAD_GATE_ARGS]) for _ in range(rng.randrange(4))]
        lines.append(" ".join([kind, *args]))
    return "\n".join(lines)


class TestFuzz:
    """Seeded malformed inputs: the CLI answers each with exit 0 or one
    `error:` line and exit 1, never with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [["group", "--k", "2"], ["sweep", "--jobs", "1"], ["diag", "--k", "1"]],
        ids=["group", "sweep", "diag"],
    )
    def test_malformed_term_files(self, tmp_path, capsys, argv):
        rng = random.Random(" ".join(argv))
        command, *options = argv
        for case in range(300):
            text = _malformed_terms(rng)
            path = tmp_path / f"h{case}.txt"  # a fresh file: no truncate to flush
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                code = run_cli(command, str(path), *options)
            err = capsys.readouterr().err
            assert code in (0, 1), text
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, text

    def test_malformed_circuit_text(self):
        rng = random.Random(0)
        for _ in range(1000):
            text = _malformed_circuit(rng)
            try:
                circuit = circuit_from_text(text)
            except ValueError:
                continue
            assert circuit_from_text(circuit_to_text(circuit)) == circuit


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pauliblocks", "gen", "tfim", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("qubits: 2\n")

    def test_module_invocation_error_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "pauliblocks", "gen", "tfim"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "error:" in result.stderr

    # the modules that each path must load and must not, beyond those a bare
    # interpreter already holds; none of these paths reaches the pool threshold
    ANALYSIS, CLIFFORD = "pauliblocks.analysis", "pauliblocks.clifford"
    LAZY = {ANALYSIS, CLIFFORD, "statistics"}
    POOL = {"concurrent.futures", "multiprocessing"}
    # no path builds a value type through dataclasses, which loads inspect
    NEVER = POOL | {"dataclasses", "inspect"}

    @pytest.mark.parametrize(
        ("argv", "loads", "never"),
        [
            ([], {"pauliblocks.grouping"}, LAZY | {"json", "csv"}),
            (["group", "--k", "2"], {"pauliblocks.cli", "json"}, LAZY | {"csv"}),
            (["diag", "--k", "2"], {CLIFFORD}, LAZY - {CLIFFORD} | {"json", "csv"}),
            (["sweep", "--jobs", "2"], {ANALYSIS, "csv"}, {CLIFFORD, "json"}),
            (["sweep", "--format", "json"], {ANALYSIS, "json"}, {CLIFFORD, "csv"}),
            (
                ["kstar", "random", "--sizes", "4,6", "--seed", "1", "--seeds", "3"],
                {ANALYSIS, "statistics", "csv"},
                {CLIFFORD, "json"},
            ),
            (["bound", "--n", "4", "--r", "4"], {ANALYSIS}, {CLIFFORD, "json", "csv"}),
        ],
        ids=["import", "group", "diag", "sweep", "sweep-json", "kstar", "bound"],
    )
    def test_each_path_loads_only_what_it_runs(self, tmp_path, argv, loads, never):
        """In a fresh interpreter without numpy, `import pauliblocks` and each
        command load the modules they run and no others of `never` or NEVER."""
        if argv and argv[0] in ("group", "diag", "sweep"):
            path = tmp_path / "h.txt"
            path.write_text("qubits: 4\n1.0 XXXX\n1.0 ZZZZ\n")
            argv = [argv[0], str(path), *argv[1:]]
        code = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "sys.modules['numpy'] = None\n"
            "import pauliblocks\n"
            "if sys.argv[1:]:\n"
            "    from pauliblocks.cli import main\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(sorted(set(sys.modules) - bare - {'numpy'}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        loaded = set(ast.literal_eval(result.stdout.splitlines()[-1]))
        assert loads <= loaded
        assert loaded & (never | self.NEVER) == set()
