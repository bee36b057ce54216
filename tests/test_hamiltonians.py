"""Model generators and term-list file ingestion."""

from __future__ import annotations

import itertools
import sys

import pytest

from conftest import folds_identity_if
from pauliblocks import (
    BlockSpec,
    Hamiltonian,
    HamiltonianFileError,
    PauliString,
    Term,
    bacon_shor,
    commutes,
    hamiltonian_to_text,
    hardcore_boson_1d,
    k_commutes,
    load_hamiltonian,
    parse_pauli,
    random_hamiltonian,
    save_hamiltonian,
    tfim,
)


class TestTypes:
    def test_term_rejects_zero_and_nonfinite(self):
        p = parse_pauli("X", 1)
        with pytest.raises(ValueError):
            Term(0.0, p)
        with pytest.raises(ValueError):
            Term(float("inf"), p)

    def test_hamiltonian_rejects_duplicates(self):
        p = parse_pauli("XY", 2)
        with pytest.raises(ValueError):
            Hamiltonian(2, (Term(1.0, p), Term(2.0, p)))

    def test_hamiltonian_rejects_identity_terms(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, (Term(1.0, PauliString.identity(2)),))

    def test_hamiltonian_rejects_no_qubits(self):
        with pytest.raises(ValueError, match="n_qubits must be positive"):
            Hamiltonian(0, ())

    def test_hamiltonian_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            Hamiltonian(3, (Term(1.0, parse_pauli("XY", 2)),))

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
    def test_hamiltonian_rejects_non_finite_offset(self, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            Hamiltonian(2, (), offset)
        with pytest.raises(ValueError, match="offset must be finite"):
            Hamiltonian(2, (Term(1.0, parse_pauli("XY", 2)),), offset)


class TestBaconShor:
    def test_2x2(self):
        h = bacon_shor(2, 2)
        assert h.n_qubits == 4
        assert [t.pauli.render() for t in h.terms] == ["XXXX", "ZZZZ"]
        assert all(t.coefficient == 1.0 for t in h.terms)

    def test_2x2_terms_two_commute(self):
        h = bacon_shor(2, 2, "column_major")
        p, q = h.terms[0].pauli, h.terms[1].pauli
        assert k_commutes(p, q, BlockSpec.uniform(2, 4))

    def test_3x3_shape(self):
        h = bacon_shor(3, 3)
        assert h.num_terms == 4
        assert all(t.pauli.weight == 6 for t in h.terms)

    @pytest.mark.parametrize("rows,cols", list(itertools.product(range(2, 6), repeat=2)))
    def test_term_count_and_full_commutation(self, rows, cols):
        h = bacon_shor(rows, cols)
        assert h.num_terms == (rows - 1) + (cols - 1)
        for a, b in itertools.combinations(h.paulis(), 2):
            assert commutes(a, b)

    @pytest.mark.parametrize("rows,cols", list(itertools.product(range(2, 7), repeat=2)))
    def test_columnwise_and_rowwise_block_commutation(self, rows, cols):
        n = rows * cols
        by_col = bacon_shor(rows, cols, "column_major")
        col_blocks = BlockSpec.uniform(rows, n)
        for a, b in itertools.combinations(by_col.paulis(), 2):
            assert k_commutes(a, b, col_blocks)
        by_row = bacon_shor(rows, cols, "row_major")
        row_blocks = BlockSpec.uniform(cols, n)
        for a, b in itertools.combinations(by_row.paulis(), 2):
            assert k_commutes(a, b, row_blocks)

    def test_rejects_small_and_bad_ordering(self):
        with pytest.raises(ValueError):
            bacon_shor(1, 3)
        with pytest.raises(ValueError):
            bacon_shor(2, 2, "diagonal")

    @pytest.mark.parametrize("rows, cols", [(sys.maxsize, 2), (2, sys.maxsize), (10**23, 2)])
    def test_width_past_sys_maxsize_names_it(self, rows, cols):
        # checked before a mask as wide as the lattice is built
        with pytest.raises(ValueError, match=f"has {rows * cols} qubits, more than sys.maxsize"):
            bacon_shor(rows, cols)


class TestTfim:
    def test_3_sites(self):
        h = tfim(3, 1.0, 1.0)
        rendered = {(t.coefficient, t.pauli.render()) for t in h.terms}
        assert rendered == {
            (1.0, "ZZI"),
            (1.0, "IZZ"),
            (1.0, "XII"),
            (1.0, "IXI"),
            (1.0, "IIX"),
        }

    def test_coefficients(self):
        h = tfim(2, 2.0, 0.5)
        assert {(t.coefficient, t.pauli.render()) for t in h.terms} == {
            (2.0, "ZZ"),
            (0.5, "XI"),
            (0.5, "IX"),
        }

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_classes_are_internally_qubitwise_commuting(self, n):
        h = tfim(n)
        blocks = BlockSpec.uniform(1, n)
        zz = [t.pauli for t in h.terms if t.pauli.x_bits == 0]
        xs = [t.pauli for t in h.terms if t.pauli.z_bits == 0]
        assert len(zz) == n - 1 and len(xs) == n
        for a, b in itertools.combinations(zz, 2):
            assert k_commutes(a, b, blocks)
        for a, b in itertools.combinations(xs, 2):
            assert k_commutes(a, b, blocks)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            tfim(1)

    def test_rejects_zero_couplings(self):
        with pytest.raises(ValueError, match="both couplings are zero"):
            tfim(3, j=0.0, g=0.0)

    @pytest.mark.parametrize("n", [sys.maxsize + 1, 10**23])
    def test_width_past_sys_maxsize_names_it(self, n):
        # checked before the first term, as wide as the chain, is built
        with pytest.raises(ValueError, match=f"chain length {n} exceeds sys.maxsize"):
            tfim(n)


class TestHardcoreBoson:
    def test_two_sites(self):
        h = hardcore_boson_1d(2, 2.0, 1.0)
        assert {(t.coefficient, t.pauli.render()) for t in h.terms} == {
            (1.0, "XX"),
            (1.0, "YY"),
            (-2.0, "ZI"),
            (-2.0, "IZ"),
        }
        assert h.offset == 4.0

    def test_zero_site_energy(self):
        h = hardcore_boson_1d(3, 2.0, 0.0)
        assert {t.pauli.render() for t in h.terms} == {"XXI", "IXX", "YYI", "IYY"}
        assert h.offset == 0.0

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            hardcore_boson_1d(1)

    def test_rejects_zero_couplings(self):
        with pytest.raises(ValueError, match="both couplings are zero"):
            hardcore_boson_1d(3, t=0.0, g=0.0)

    def test_offset_overflow_is_rejected(self):
        # every coefficient, -2g and t/2, is finite; the offset 2gn is not
        with pytest.raises(ValueError, match="offset must be finite, got inf"):
            hardcore_boson_1d(100, g=1e307)
        assert hardcore_boson_1d(8, g=1e307).offset == 1.6e308

    @pytest.mark.parametrize("n", [sys.maxsize + 1, 10**23])
    def test_width_past_sys_maxsize_names_it(self, n):
        # checked before the first term, as wide as the chain, is built
        with pytest.raises(ValueError, match=f"chain length {n} exceeds sys.maxsize"):
            hardcore_boson_1d(n)


class TestRandomHamiltonian:
    def test_deterministic(self):
        a = random_hamiltonian(12, 2.0, seed=7)
        b = random_hamiltonian(12, 2.0, seed=7)
        assert a == b
        assert a != random_hamiltonian(12, 2.0, seed=8)

    def test_term_count_and_unit_coefficients(self):
        h = random_hamiltonian(15, 3.0, seed=1)
        assert h.num_terms == 15
        assert all(t.coefficient == 1.0 for t in h.terms)

    @pytest.mark.parametrize("seed", range(10))
    def test_weights_within_bounds(self, seed):
        h = random_hamiltonian(16, 4.0, seed=seed)
        assert all(1 <= t.pauli.weight <= 16 for t in h.terms)

    def test_tiny_mean_weight_clamps_to_one(self):
        h = random_hamiltonian(6, 1e-9, seed=3)
        assert all(t.pauli.weight == 1 for t in h.terms)

    def test_huge_mean_weight_clamps_to_n(self):
        # the first draw at seed 0 is infinite
        h = random_hamiltonian(4, 1e308, seed=0)
        assert h.num_terms == 4
        assert all(t.pauli.weight == 4 for t in h.terms)

    def test_mean_weight_matches_clamped_exponential(self):
        # analytic mean of round(Exp(mean 2)) clamped to [1, 50] is 2.2005
        weights = [
            t.pauli.weight
            for seed in range(20)
            for t in random_hamiltonian(50, 2.0, seed).terms
        ]
        assert len(weights) == 1000
        mean = sum(weights) / len(weights)
        assert 1.5 <= mean <= 3.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_no_qubits(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            random_hamiltonian(n, 2.0, seed=0)

    def test_rejects_bad_w(self):
        for w in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                random_hamiltonian(4, w, seed=0)

    @pytest.mark.parametrize("n", [sys.maxsize + 1, 10**23])
    def test_width_past_sys_maxsize_names_it(self, n):
        # checked before range(n) is sampled
        with pytest.raises(ValueError, match=f"qubit count {n} exceeds sys.maxsize"):
            random_hamiltonian(n, 2.0, seed=0)


class TestFiles:
    def test_load_spaced_dense(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("4.0 X I\n1.0 I Z\n")
        h = load_hamiltonian(path)
        assert h.n_qubits == 2
        assert [(t.coefficient, t.pauli.render()) for t in h.terms] == [
            (4.0, "XI"),
            (1.0, "IZ"),
        ]

    def test_roundtrip(self, tmp_path):
        h = tfim(3, 1.0, 1.0)
        path = tmp_path / "tfim.txt"
        save_hamiltonian(h, path)
        assert load_hamiltonian(path) == h

    def test_header_and_sparse_lines(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# comment\nqubits: 4\n0.5 X0 Z3\n-1.5 Y2\n")
        h = load_hamiltonian(path)
        assert h.n_qubits == 4
        assert [(t.coefficient, t.pauli.render()) for t in h.terms] == [
            (0.5, "XIIZ"),
            (-1.5, "IIYI"),
        ]

    @pytest.mark.parametrize("text", ["qubits: 4\n0.5 X0 Z3\n", "1.0 XZ\n-0.5 YI\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_hamiltonian(marked) == load_hamiltonian(plain)

    def test_zero_coefficient_dropped_with_warning(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0.0 XX\n1.0 ZZ\n")
        with pytest.warns(UserWarning, match="zero-coefficient"):
            h = load_hamiltonian(path)
        assert h.num_terms == 1

    def test_duplicates_merged_with_warning(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 XX\n2.0 XX\n")
        with pytest.warns(UserWarning, match="duplicate"):
            h = load_hamiltonian(path)
        assert h.num_terms == 1
        assert h.terms[0].coefficient == 3.0

    def test_merge_to_zero_dropped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 XX\n-1.0 XX\n1.0 ZZ\n")
        with pytest.warns(UserWarning):
            h = load_hamiltonian(path)
        assert [t.pauli.render() for t in h.terms] == ["ZZ"]

    def test_identity_line_folds_into_offset(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("3.0 II\n1.0 ZZ\n")
        with pytest.warns(UserWarning, match="identity"):
            h = load_hamiltonian(path)
        assert h.offset == 3.0
        assert h.num_terms == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 XX\n1.0 QQ\n")
        with pytest.raises(HamiltonianFileError, match="line 2"):
            load_hamiltonian(path)

    def test_bad_coefficient_reports_number(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# top\nabc XX\n")
        with pytest.raises(HamiltonianFileError, match="line 2"):
            load_hamiltonian(path)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1.0 XX\nnan XI\n", 2),
            ("# top\n-inf XI\n", 2),
            ("qubits: 2\n1e999 XI\n", 2),
            ("1e308 XI\n1.0 ZZ\n1e308 XI\n", 3),
            ("1e308 II\n1.0 ZZ\n1e308 II\n", 3),
        ],
        ids=["nan", "inf", "overflow", "merge-overflow", "offset-overflow"],
    )
    def test_non_finite_coefficient_reports_number(self, tmp_path, text, line):
        path = tmp_path / "h.txt"
        path.write_text(text)
        with folds_identity_if("II" in text):
            with pytest.raises(HamiltonianFileError, match=f"line {line}: .*finite"):
                load_hamiltonian(path)

    def test_huge_declared_width_loads(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("qubits: 99999999999\n1.0 X0\n")
        h = load_hamiltonian(path)
        assert h.n_qubits == 99999999999
        assert [(t.pauli.x_bits, t.pauli.z_bits) for t in h.terms] == [(1, 0)]

    def test_width_of_sys_maxsize_loads(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text(f"qubits: {sys.maxsize}\n1.0 X0\n")
        assert load_hamiltonian(path).n_qubits == sys.maxsize

    @pytest.mark.parametrize(
        "text",
        [f"# top\nqubits: {sys.maxsize + 1}\n1.0 X0\n", f"# top\n1.0 X{sys.maxsize}\n"],
        ids=["header", "sparse-index"],
    )
    def test_width_past_sys_maxsize_reports_number(self, tmp_path, text):
        path = tmp_path / "h.txt"
        path.write_text(text)
        with pytest.raises(HamiltonianFileError, match="line 2: .*sys.maxsize"):
            load_hamiltonian(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("qubits: two", "cannot parse qubit count from 'qubits: two'"),
            ("qubits:", "cannot parse qubit count"),
            ("qubits: 0", "qubit count must be positive"),
            ("qubits: -3", "qubit count must be positive"),
        ],
        ids=["word", "empty", "zero", "negative"],
    )
    def test_bad_header_reports_number(self, tmp_path, header, message):
        path = tmp_path / "h.txt"
        path.write_text(f"# top\n{header}\n1.0 X0\n")
        with pytest.raises(HamiltonianFileError, match=f"line 2: {message}"):
            load_hamiltonian(path)

    def test_inconsistent_dense_lengths(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 XX\n1.0 XXX\n")
        with pytest.raises(HamiltonianFileError, match="line 1"):
            load_hamiltonian(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(HamiltonianFileError, match="no terms"):
            load_hamiltonian(path)

    def test_header_must_come_first(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 XX\nqubits: 2\n")
        with pytest.raises(HamiltonianFileError, match="line 2"):
            load_hamiltonian(path)

    def test_offset_not_persisted(self):
        h = hardcore_boson_1d(2, 2.0, 1.0)
        assert "offset" not in hamiltonian_to_text(h)
