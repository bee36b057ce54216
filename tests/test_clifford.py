"""Conjugation rules, tableaus, and per-block diagonalization synthesis."""

from __future__ import annotations

import random

import pytest

from conftest import circuit_matrix, equal_up_to_sign, pauli_matrix
from pauliblocks import clifford
from pauliblocks import (
    BlockSpec,
    CliffordCircuit,
    Gate,
    PauliString,
    Tableau,
    circuit_depth,
    circuit_from_text,
    circuit_to_text,
    commutes,
    conjugate,
    count_diagonalized,
    diagonalize_group,
    is_diagonal,
    parse_pauli,
    per_block_circuits,
    random_circuit,
    random_hamiltonian,
    sorted_insertion,
)


class TestGates:
    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate.cnot(1, 1)

    def test_kind_and_arity_validation(self):
        with pytest.raises(ValueError):
            Gate("T", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))

    def test_circuit_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CliffordCircuit(2, (Gate.h(2),))

    def test_str(self):
        assert str(Gate.h(3)) == "H 3"
        assert str(Gate.cnot(2, 5)) == "CNOT 2 5"


class TestConjugate:
    def test_h_swaps_x_and_z(self):
        c = CliffordCircuit(1, (Gate.h(0),))
        assert conjugate(c, parse_pauli("X", 1)) == parse_pauli("Z", 1)
        assert conjugate(c, parse_pauli("Z", 1)) == parse_pauli("X", 1)
        assert conjugate(c, parse_pauli("Y", 1)) == parse_pauli("Y", 1)

    def test_s_maps_x_to_y(self):
        c = CliffordCircuit(1, (Gate.s(0),))
        img = conjugate(c, parse_pauli("X", 1))
        assert (img.x_bits, img.z_bits) == (1, 1)
        assert conjugate(c, parse_pauli("Z", 1)) == parse_pauli("Z", 1)

    def test_cnot_spreads_x_and_z(self):
        c = CliffordCircuit(2, (Gate.cnot(0, 1),))
        assert conjugate(c, parse_pauli("XI", 2)) == parse_pauli("XX", 2)
        assert conjugate(c, parse_pauli("IZ", 2)) == parse_pauli("ZZ", 2)
        assert conjugate(c, parse_pauli("IX", 2)) == parse_pauli("IX", 2)
        assert conjugate(c, parse_pauli("ZI", 2)) == parse_pauli("ZI", 2)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(CliffordCircuit(2, ()), parse_pauli("X", 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_matrix_conjugation(self, n):
        rng = random.Random(n)
        for trial in range(8):
            circ = random_circuit(n, 12, seed=100 * n + trial)
            u = circuit_matrix(circ)
            x = rng.randrange(1 << n)
            z = rng.randrange(1 << n)
            p = PauliString(n, x, z)
            image = conjugate(circ, p)
            assert equal_up_to_sign(
                u @ pauli_matrix(p) @ u.conj().T, pauli_matrix(image)
            )

    def test_commutation_preserved(self):
        rng = random.Random(3)
        for trial in range(30):
            n = rng.randrange(2, 9)
            circ = random_circuit(n, 25, seed=trial)
            p = PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n))
            q = PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n))
            assert commutes(p, q) == commutes(conjugate(circ, p), conjugate(circ, q))


class TestDiagonal:
    def test_z_type_is_diagonal(self):
        assert is_diagonal(parse_pauli("ZZIZ", 4))

    def test_identity_is_diagonal(self):
        assert is_diagonal(PauliString.identity(4))

    def test_x_part_is_not(self):
        assert not is_diagonal(parse_pauli("XZZZ", 4))


class TestTableau:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_random_circuits_are_symplectic(self, n):
        for seed in range(5):
            tab = Tableau.from_circuit(random_circuit(n, 20, seed))
            assert tab.is_symplectic()

    def test_apply_agrees_with_gatewise_conjugation(self):
        rng = random.Random(1)
        for seed in range(10):
            n = rng.randrange(1, 7)
            circ = random_circuit(n, 15, seed)
            tab = Tableau.from_circuit(circ)
            p = PauliString(n, rng.randrange(1 << n), rng.randrange(1 << n))
            assert tab.apply(p) == conjugate(circ, p)

    def test_non_symplectic_rejected(self):
        # images of X0 and Z0 must anticommute; make them equal instead
        tab = Tableau(1, [(1, 0)], [(1, 0)])
        assert not tab.is_symplectic()

    def test_rejects_no_qubits(self):
        with pytest.raises(ValueError, match="positive"):
            Tableau(0, [], [])

    def test_immutable(self):
        tab = Tableau.from_circuit(CliffordCircuit(1, (Gate.h(0),)))
        for name, value in (("n_qubits", 2), ("x_images", ((5, 7),)), ("z_images", ())):
            with pytest.raises(AttributeError):
                setattr(tab, name, value)
        # an image out of range cannot get past the constructor's check
        assert tab.x_images == ((0, 1),) and tab.is_symplectic()

    def test_images_stored_as_tuples_compared_by_identity(self):
        tab = Tableau(1, [(0, 1)], [(1, 0)])
        assert tab.x_images == ((0, 1),) and tab.z_images == ((1, 0),)
        assert tab == tab and tab != Tableau(1, [(0, 1)], [(1, 0)])

    @pytest.mark.parametrize(
        "x_images, z_images",
        [([(-1, 0)], [(0, 1)]), ([(1, 0)], [(0, 2)]), ([(1, -2)], [(0, 1)])],
    )
    def test_rejects_image_out_of_range(self, x_images, z_images):
        with pytest.raises(ValueError, match="out of range"):
            Tableau(1, x_images, z_images)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_images_match_matrix_conjugation(self, n):
        for seed in range(6):
            circ = random_circuit(n, 4 * n * n, seed=10 * n + seed)
            u = circuit_matrix(circ)
            tab = Tableau.from_circuit(circ)
            for j in range(n):
                for gen, (x, z) in (
                    (PauliString(n, 1 << j, 0), tab.x_images[j]),
                    (PauliString(n, 0, 1 << j), tab.z_images[j]),
                ):
                    assert equal_up_to_sign(
                        u @ pauli_matrix(gen) @ u.conj().T,
                        pauli_matrix(PauliString(n, x, z)),
                    )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
    def test_matches_per_generator_replay(self, n):
        rng = random.Random(n)
        for seed in range(3):
            circ = random_circuit(n, rng.randrange(4 * n * n + 1), seed)
            tab = Tableau.from_circuit(circ)
            assert tab.x_images == tuple(
                clifford._replay(circ.gates, 1 << j, 0) for j in range(n)
            )
            assert tab.z_images == tuple(
                clifford._replay(circ.gates, 0, 1 << j) for j in range(n)
            )

    def test_built_without_the_row_replay(self, monkeypatch):
        # the tableau and conjugate() must stay two implementations of the
        # gate rules, so that diag's two checks are independent
        circ = random_circuit(5, 60, seed=7)
        expected = [conjugate(circ, PauliString(5, 1 << j, 0)) for j in range(5)]

        def refuse(*args):
            raise AssertionError("row-wise replay used")

        monkeypatch.setattr(clifford, "_apply_gate", refuse)
        tab = Tableau.from_circuit(circ)
        assert [PauliString(5, *img) for img in tab.x_images] == expected


class TestDiagonalizeGroup:
    def test_two_block_example(self):
        members = [parse_pauli("XXXX", 4), parse_pauli("ZZZZ", 4)]
        blocks = BlockSpec.uniform(2, 4)
        circ = diagonalize_group(members, blocks)
        for sub, (start, stop) in zip(per_block_circuits(circ, blocks), blocks.spans):
            for gate in sub.gates:
                assert all(start <= q < stop for q in gate.qubits)
        for p in members:
            assert is_diagonal(conjugate(circ, p))

    def test_already_diagonal_members_give_empty_circuit(self):
        members = [parse_pauli("ZZII", 4), parse_pauli("IZZI", 4)]
        for k in (1, 2, 4):
            circ = diagonalize_group(members, BlockSpec.uniform(k, 4))
            assert circ.gate_count == 0

    def test_single_x_needs_one_hadamard(self):
        circ = diagonalize_group([parse_pauli("X", 1)], BlockSpec.uniform(1, 1))
        assert circ.gates == (Gate.h(0),)

    def test_rejects_non_block_commuting_members(self):
        with pytest.raises(ValueError):
            diagonalize_group(
                [parse_pauli("X", 1), parse_pauli("Z", 1)], BlockSpec.uniform(1, 1)
            )

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            diagonalize_group([], BlockSpec.uniform(1, 1))
        with pytest.raises(ValueError):
            diagonalize_group(
                [parse_pauli("X", 1), parse_pauli("XX", 2)], BlockSpec.uniform(1, 1)
            )

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_random_groupings_diagonalize_soundly(self, n):
        for seed in range(4):
            h = random_hamiltonian(n, 2.0, seed=seed)
            for k in range(1, n + 1):
                blocks = BlockSpec.uniform(k, n)
                grouping = sorted_insertion(h, blocks)
                paulis = h.paulis()
                for group in grouping.groups:
                    members = [paulis[i] for i in group]
                    circ = diagonalize_group(members, blocks)
                    subs = per_block_circuits(circ, blocks)  # raises on crossing
                    for p in members:
                        assert is_diagonal(conjugate(circ, p))
                    # disjoint blocks parallelize: whole-circuit depth is the
                    # worst per-block depth
                    per_block = max((circuit_depth(s) for s in subs), default=0)
                    assert circuit_depth(circ) == per_block

    def test_matrix_level_diagonalization(self):
        members = [parse_pauli("XX", 2), parse_pauli("YY", 2)]
        circ = diagonalize_group(members, BlockSpec.uniform(2, 2))
        u = circuit_matrix(circ)
        import numpy as np

        for p in members:
            conj = u @ pauli_matrix(p) @ u.conj().T
            off_diagonal = conj - np.diag(np.diag(conj))
            assert np.allclose(off_diagonal, 0)


class TestCountDiagonalized:
    def test_empty_circuit_counts_z_strings(self):
        assert count_diagonalized(CliffordCircuit(2, ())) == 4

    def test_single_hadamard(self):
        assert count_diagonalized(CliffordCircuit(1, (Gate.h(0),))) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_random_20_gate_circuit_on_3_qubits(self, seed):
        assert count_diagonalized(random_circuit(3, 20, seed)) == 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_always_two_to_the_n(self, n):
        for seed in range(10):
            assert count_diagonalized(random_circuit(n, 30, seed)) == 2**n

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            count_diagonalized(CliffordCircuit(7, ()))


class TestDepthAndText:
    def test_empty_depth(self):
        assert circuit_depth(CliffordCircuit(3, ())) == 0

    def test_disjoint_gates_share_a_layer(self):
        c = CliffordCircuit(3, (Gate.h(0), Gate.h(1), Gate.h(2)))
        assert circuit_depth(c) == 1

    def test_shared_qubit_forces_sequencing(self):
        c = CliffordCircuit(3, (Gate.cnot(0, 1), Gate.cnot(1, 2)))
        assert circuit_depth(c) == 2

    def test_block_local_depth_is_max_over_blocks(self):
        members = [parse_pauli("XXXX", 4), parse_pauli("ZZZZ", 4)]
        blocks = BlockSpec.uniform(2, 4)
        circ = diagonalize_group(members, blocks)
        subs = per_block_circuits(circ, blocks)
        assert circuit_depth(circ) == max(circuit_depth(s) for s in subs)

    def test_per_block_rejects_crossing_gate(self):
        circ = CliffordCircuit(4, (Gate.cnot(1, 2),))
        with pytest.raises(ValueError):
            per_block_circuits(circ, BlockSpec.uniform(2, 4))

    @pytest.mark.parametrize("gate", [Gate.cnot(3, 4), Gate.cnot(1, 0), Gate.cnot(5, 0)])
    def test_per_block_rejects_crossing_uneven_blocks(self, gate):
        circ = CliffordCircuit(6, (gate,))
        with pytest.raises(ValueError, match="crosses a block boundary"):
            per_block_circuits(circ, BlockSpec((1, 3, 2)))

    def test_per_block_uneven_blocks(self):
        gates = (Gate.h(5), Gate.cnot(3, 1), Gate.s(0), Gate.cnot(4, 5), Gate.h(2))
        subs = per_block_circuits(CliffordCircuit(6, gates), BlockSpec((1, 3, 2)))
        assert [sub.gates for sub in subs] == [
            (Gate.s(0),),
            (Gate.cnot(3, 1), Gate.h(2)),
            (Gate.h(5), Gate.cnot(4, 5)),
        ]
        assert all(sub.n_qubits == 6 for sub in subs)

    def test_text_roundtrip(self):
        circ = CliffordCircuit(6, (Gate.h(3), Gate.s(0), Gate.cnot(2, 5)))
        text = circuit_to_text(circ)
        assert text == "qubits: 6\nH 3\nS 0\nCNOT 2 5\n"
        assert circuit_from_text(text) == circ

    @pytest.mark.parametrize("text", ["qubits: -3\n", "qubits: 0\n"])
    def test_text_rejects_non_positive_width(self, text):
        with pytest.raises(ValueError, match="positive"):
            circuit_from_text(text)

    def test_text_requires_header(self):
        with pytest.raises(ValueError):
            circuit_from_text("H 0\n")

    def test_random_circuit_determinism(self):
        assert random_circuit(4, 10, 3) == random_circuit(4, 10, 3)
        only_single = random_circuit(1, 50, 0)
        assert all(g.kind != "CNOT" for g in only_single.gates)
