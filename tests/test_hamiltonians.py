"""Model generators and term-list file ingestion."""

from __future__ import annotations

import itertools
import pickle
import random
import re
import sys
import time
import warnings

import numpy as np
import pytest

import reference
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
from pauliblocks import hamiltonians as hamiltonians_module
from pauliblocks import paulis as paulis_module


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

    def test_qubit_count_and_seed_must_be_integers(self):
        with pytest.raises(TypeError):
            Hamiltonian(2.5, ())
        with pytest.raises(TypeError):
            random_hamiltonian(4, 2.0, seed=1.5)
        terms = (Term(1.0, parse_pauli("XY", 2)),)
        h = Hamiltonian(np.int64(2), terms)
        assert h == Hamiltonian(2, terms) and type(h.n_qubits) is int
        assert random_hamiltonian(4, 2.0, seed=np.int64(3)) == random_hamiltonian(4, 2.0, seed=3)

    def test_hamiltonian_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            Hamiltonian(3, (Term(1.0, parse_pauli("XY", 2)),))

    @pytest.mark.parametrize("n", [1024, 4_000_000])
    def test_hamiltonian_names_a_string_as_the_loader_does(self, n):
        # dense up to 1,024 qubits; past that by its support, so in time
        p = PauliString(n, 1, 0)
        name = "X" + "I" * (n - 1) if n == 1024 else "X0"
        start = time.perf_counter()
        with pytest.raises(ValueError) as raised:
            Hamiltonian(n, (Term(1.0, p), Term(2.0, p)))
        assert time.perf_counter() - start < 0.1
        assert str(raised.value) == f"duplicate term {name}"
        with pytest.raises(ValueError) as raised:
            Hamiltonian(2, (Term(1.0, p),))
        assert str(raised.value) == f"term {name} acts on {n} qubits, expected 2"

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
    def test_hamiltonian_rejects_non_finite_offset(self, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            Hamiltonian(2, (), offset)
        with pytest.raises(ValueError, match="offset must be finite"):
            Hamiltonian(2, (Term(1.0, parse_pauli("XY", 2)),), offset)


class TestColumns:
    """A Hamiltonian holds its terms as columns and builds `terms` on first
    read; one built from `Term`s is the same value."""

    BUILDERS = {
        "loaded": lambda path: load_hamiltonian(path),
        "tfim": lambda path: tfim(4, 0.5, -2.0),
        "hardcore-boson": lambda path: hardcore_boson_1d(3),
        "bacon-shor": lambda path: bacon_shor(2, 3),
        "random": lambda path: random_hamiltonian(6, 2.0, seed=4),
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_agrees_with_the_same_terms(self, tmp_path, build):
        path = tmp_path / "h.txt"
        path.write_text("qubits: 3\n0.5 X0 Z2\n-1.0 YYI\n2.0 Z1\n")
        h = build(path)
        twin = Hamiltonian(
            h.n_qubits, [Term(c, p) for c, p in zip(h.coefficients(), h.paulis())], h.offset
        )
        # each check on a fresh value, whose terms no earlier read has built
        fresh = lambda: build(path)  # noqa: E731
        assert fresh() == twin and twin == fresh()
        assert hash(fresh()) == hash(twin)
        assert repr(fresh()) == repr(twin)
        assert pickle.loads(pickle.dumps(fresh())) == twin
        assert pickle.loads(pickle.dumps(twin)) == fresh()
        assert fresh().num_terms == twin.num_terms == len(twin.terms)

    def test_terms_are_built_once_on_first_read(self, monkeypatch):
        h = tfim(3)
        built = []
        real = Term.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(Term, "__init__", counting)
        assert h.num_terms == 5 and h.coefficients() == [1.0] * 5 and built == []
        first = h.terms
        assert h.terms is first and len(built) == 5
        assert [t.pauli for t in first] == h.paulis()


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
        # seven draws, one of them a repeat that is drawn again, in draw order
        h = random_hamiltonian(6, 1e-9, seed=3)
        assert all(t.pauli.weight == 1 for t in h.terms)
        assert [t.pauli.render() for t in h.terms] == [
            "IIIIXI", "IIIIYI", "ZIIIII", "IIIYII", "IZIIII", "IXIIII"
        ]

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

    def test_huge_width_warns_in_time(self, tmp_path):
        # a warning names a wide string by its support, so that its cost
        # follows the support, not the declared width
        path = tmp_path / "h.txt"
        path.write_text("qubits: 4000000\n1.0 X0\n1.0 X0\n")
        start = time.perf_counter()
        with pytest.warns(UserWarning, match="^merging duplicate term X0$"):
            h = load_hamiltonian(path)
        assert time.perf_counter() - start < 0.1
        assert [t.coefficient for t in h.terms] == [2.0]

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_strings_past_1024_qubits_are_named_sparse(self, tmp_path, n):
        path = tmp_path / "h.txt"
        path.write_text(f"qubits: {n}\n0.0 Y3 Z{n - 1}\n0.0 {'I' * n}\n1.0 X0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_hamiltonian(path)
        names = [f"IIIY{'I' * (n - 5)}Z", "I" * n] if n == 1024 else [f"Y3 Z{n - 1}", "identity"]
        assert [str(w.message) for w in caught] == [
            f"dropping zero-coefficient term {name}" for name in names
        ]

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


class TestPlainBits:
    """Duplicates are found on (x_bits, z_bits), never by hashing a
    `PauliString`, and the loader parses each line's Pauli text once."""

    @pytest.fixture
    def unhashable(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{self!r} was hashed")

        monkeypatch.setattr(PauliString, "__hash__", refuse)

    @pytest.mark.parametrize("header", ["qubits: 3\n", ""], ids=["header", "no-header"])
    def test_load_hashes_no_string(self, tmp_path, unhashable, header):
        path = tmp_path / "h.txt"
        lines = ["1.0 XYZ", "2.0 X0 Y1 Z2", "0.0 ZZI", "4.0 III", "-1.0 Z0", "1.0 ZII", "0.5 Y1"]
        path.write_text(header + "\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = load_hamiltonian(path)
        assert [str(w.message) for w in caught] == [
            "merging duplicate term XYZ",
            "dropping zero-coefficient term ZZI",
            "folding identity term into the constant offset",
            "merging duplicate term ZII",
            "term ZII merged to zero and dropped",
        ]
        assert [(t.coefficient, t.pauli.render()) for t in h.terms] == [(3.0, "XYZ"), (0.5, "IYI")]
        assert (h.n_qubits, h.offset) == (3, 4.0)

    def test_generators_hash_no_string(self, unhashable):
        # seed 3 draws one string twice (see test_tiny_mean_weight_clamps_to_one)
        h = random_hamiltonian(6, 1e-9, seed=3)
        assert [t.pauli.render() for t in h.terms] == [
            "IIIIXI", "IIIIYI", "ZIIIII", "IIIYII", "IZIIII", "IXIIII"
        ]
        built = (tfim(5), hardcore_boson_1d(5), bacon_shor(3, 4))
        assert [g.num_terms for g in built] == [9, 13, 5]
        p = parse_pauli("XY", 2)
        with pytest.raises(ValueError, match="duplicate term XY"):
            Hamiltonian(2, (Term(1.0, p), Term(2.0, parse_pauli("X0 Y1", 2))))

    @pytest.mark.parametrize("header", ["qubits: 3\n", ""], ids=["header", "no-header"])
    def test_each_pauli_text_is_parsed_once(self, tmp_path, monkeypatch, header):
        texts = []

        def counting(text, *args, parse=paulis_module._pauli_bits):
            texts.append(text)
            return parse(text, *args)

        for module in (paulis_module, hamiltonians_module):
            monkeypatch.setattr(module, "_pauli_bits", counting)
        path = tmp_path / "h.txt"
        path.write_text(header + "# comment\n1.0 XYZ\n2.0 X0 Z2\n-1.0 I I Y\n")
        h = load_hamiltonian(path)
        assert texts == ["XYZ", "X0 Z2", "I I Y"]
        assert [t.pauli.render() for t in h.terms] == ["XYZ", "XIZ", "IIY"]

    @pytest.mark.parametrize(
        "header, wide, width_error",
        [
            ("qubits: 4\n", "X4", "qubit index 4 out of range for n=4"),
            ("", f"X{sys.maxsize}", f"qubit index {sys.maxsize} needs more than sys.maxsize"),
        ],
        ids=["header", "no-header"],
    )
    def test_errors_come_coefficient_then_syntax_then_width(
        self, tmp_path, header, wide, width_error
    ):
        # the file holds them in the opposite order, one per line
        first = 1 + header.count("\n")
        lines = ["1.0 ZZZZ", f"1.0 {wide}", "1.0 Q1", "abc XX"]
        expected = [
            f"line {first + 3}: invalid coefficient 'abc'",
            f"line {first + 2}: cannot parse Pauli 'Q1'",
            f"line {first + 1}: {width_error}",
        ]
        path = tmp_path / "h.txt"
        for kept, message in zip((4, 3, 2), expected):
            path.write_text(header + "\n".join(lines[:kept]) + "\n")
            with pytest.raises(HamiltonianFileError, match=re.escape(message)):
                load_hamiltonian(path)


def _fuzz_line(rng: random.Random, n: int, pool: list[str]) -> str:
    """One term-file line drawn from the alphabet of malformed and valid input."""
    if rng.random() < 0.1:
        return rng.choice(["", "# comment", "   ", "\t# indented comment", "", "qubits: 3"])
    coefficient = rng.choice(
        ["1.0", "-2.5", "0.5", "3", "-1.0", "0", "0.0", "-0.0", "1e-3", "1e308", "1_0"] * 12
        + ["nan", "inf", "-inf", "1e309", "0x1", "\u0661.\u0665", "abc", "--1"]
    )
    if rng.random() < 0.6:
        pauli = rng.choice(pool)
    elif rng.random() < 0.5:  # dense, perhaps of another length or split by whitespace
        length = n + rng.choice([0, 0, 0, 0, -1, 1])
        pauli = rng.choice([" ", "", "\t"]).join(rng.choice("IXYZ") for _ in range(length))
    else:  # sparse, perhaps repeating or passing the width, or malformed
        tokens = []
        for _ in range(rng.randint(1, 3)):
            idx = rng.choice([rng.randrange(n), rng.randrange(n), n, rng.randrange(n + 2)])
            digits = str(idx) if rng.random() < 0.9 else chr(0x0660 + idx % 10)  # Arabic-Indic
            tokens.append(rng.choice("XYZ") + digits)
        if rng.random() < 0.15:
            tokens.append(rng.choice(["Q1", "I0", "X", "x1", "X-1", "XI", f"X{sys.maxsize}"]))
        pauli = rng.choice([" ", "  ", "\t"]).join(tokens)
    if rng.random() < 0.01:
        return coefficient
    gap = rng.choice([" ", "\t", "   "])
    return f"{coefficient}{gap}{pauli}"


def _fuzz_file(seed: int) -> str:
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    pool = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(3)]
    pool += ["I" * n, f"{rng.choice('XYZ')}{rng.randrange(n)}"]
    lines = [rng.choice(["# fuzzed term file", "", "  "]) for _ in range(rng.randint(0, 2))]
    header = rng.random()
    if header < 0.5:
        lines.append(f"qubits: {n}")
    elif header < 0.6:
        lines.append(rng.choice([f"QUBITS:{n}", "qubits: 0", "qubits: two", f"qubits: {n + 1}"]))
    lines += [_fuzz_line(rng, n, pool) for _ in range(rng.randint(0, 9))]
    if rng.random() < 0.3:  # a string and its negation: merged to zero
        lines += [f"1.5 {pool[0]}", f"-1.5 {pool[0]}"]
    if rng.random() < 0.1:  # a merge or an identity offset that overflows
        lines += [f"1e308 {rng.choice(pool[-2:])}"] * 2
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["\n", ""])
    return ("\ufeff" if rng.random() < 0.2 else "") + text


def _outcome(load, path):
    """(the Hamiltonian and its repr, or the error's type and text, and the
    warnings) of one load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            h = load(path)
            result = h, repr(h)
        except ValueError as exc:
            result = type(exc).__name__, str(exc)
    return result, [str(w.message) for w in caught]


class TestOnePassLoader:
    """The one-pass loader against the frozen three-pass one it replaced."""

    STEMS = (  # a loaded Hamiltonian, and every error and warning the loader gives
        "loaded", "header must be the first", "cannot parse qubit count", "must be positive",
        "expected '<coefficient> <pauli>'", "invalid coefficient", "coefficient must be finite",
        "no terms found", "cannot parse Pauli", "needs more than sys.maxsize",
        "characters, expected", "out of range for n", "duplicate qubit index",
        "non-finite coefficient", "non-finite offset", "dropping zero-coefficient",
        "folding identity", "merging duplicate term", "merged to zero",
    )

    def test_agrees_with_the_three_pass_loader(self, tmp_path):
        kinds = set()
        for seed in range(300):
            path = tmp_path / f"fuzz{seed}.txt"
            path.write_bytes(_fuzz_file(seed).encode("utf-8"))
            expected = _outcome(reference.load_hamiltonian, path)
            assert _outcome(load_hamiltonian, path) == expected, (seed, path.read_text())
            result, warned = expected
            message = "loaded" if isinstance(result[0], Hamiltonian) else result[1]
            texts = (message, *warned)
            kinds.update(stem for stem in self.STEMS for text in texts if stem in text)
        # the files reach every outcome
        assert kinds == set(self.STEMS)
