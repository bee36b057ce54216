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
    bacon_shor,
    circuit_depth,
    circuit_from_text,
    circuit_to_text,
    commutes,
    conjugate,
    count_diagonalized,
    diagonalize_group,
    hardcore_boson_1d,
    is_diagonal,
    parse_pauli,
    per_block_circuits,
    random_circuit,
    random_hamiltonian,
    sorted_insertion,
    tfim,
)
from pauliblocks.paulis import first_noncommuting_pair


def replay(circuit: CliffordCircuit, x: int, z: int) -> tuple[int, int]:
    """The (x, z) image of one string under the circuit, through `conjugate`."""
    image = conjugate(circuit, PauliString(circuit.n_qubits, x, z))
    return image.x_bits, image.z_bits


def refuse(name: str):
    def refuse_call(*args):
        raise AssertionError(f"{name} used")

    return refuse_call


class TestGates:
    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(ValueError):
            Gate.cnot(1, 1)

    def test_kind_and_arity_validation(self):
        with pytest.raises(ValueError):
            Gate("T", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))

    @pytest.mark.parametrize("kind, qubits", [("H", (-1,)), ("CNOT", (0, -2))])
    def test_rejects_negative_index(self, kind, qubits):
        with pytest.raises(ValueError, match="negative qubit index"):
            Gate(kind, qubits)

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
    def test_needs_one_image_per_generator(self):
        with pytest.raises(ValueError, match="one image per basis generator"):
            Tableau(2, ((1, 0), (2, 0)), ((0, 1),))

    def test_apply_rejects_width_mismatch(self):
        tab = Tableau.from_circuit(CliffordCircuit(2, ()))
        with pytest.raises(ValueError, match="qubit count mismatch"):
            tab.apply(PauliString(3, 1, 0))

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
            assert tab.x_images == tuple(replay(circ, 1 << j, 0) for j in range(n))
            assert tab.z_images == tuple(replay(circ, 0, 1 << j) for j in range(n))

    def test_built_without_the_row_replay(self, monkeypatch):
        # the tableau and conjugate() must stay two implementations of the
        # gate rules, so that diag's two checks are independent
        circ = random_circuit(5, 60, seed=7)
        generators = [PauliString(5, 1 << j, 0) for j in range(5)]
        with monkeypatch.context() as m:
            m.setattr(clifford, "_apply_to_columns", refuse("column rules"))
            images = [clifford.conjugate(circ, p) for p in generators]
        monkeypatch.setattr(clifford, "conjugate", refuse("conjugate"))
        tab = Tableau.from_circuit(circ)
        assert [PauliString(5, *img) for img in tab.x_images] == images
        assert [tab.apply(p) for p in generators] == images
        assert tab.is_symplectic()


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

    @pytest.mark.parametrize(
        "dense, message",
        [
            # block 0 commutes; only block 1 holds the failing pair
            (["XXII", "ZZXI", "IIZI"], "members 1 and 2 do not block-commute under BlockSpec((2, 2))"),
            # XZ is the product of XI and IZ: three members, two independent rows
            (["XZ", "XI", "IZ", "ZZ"], "members 0 and 3 do not block-commute under BlockSpec((2,))"),
        ],
        ids=["later-block", "dependent-members"],
    )
    def test_error_names_the_first_failing_pair(self, dense, message):
        members = [parse_pauli(text, len(text)) for text in dense]
        blocks = BlockSpec.uniform(2, len(dense[0]))
        with pytest.raises(ValueError) as caught:
            diagonalize_group(members, blocks)
        assert str(caught.value) == message

    def test_commuting_members_need_no_pair_search_or_split(self, monkeypatch):
        # commutation is checked on each block's independent rows; the
        # pairwise search over the members runs only once that check fails
        rng = random.Random(11)
        blocks = BlockSpec((3, 5, 4))
        members = random_block_commuting_set(rng, blocks, 24)
        expected = reference_gates(members, blocks)

        def refuse(*args):
            raise AssertionError("called on the success path")

        monkeypatch.setattr(clifford, "first_noncommuting_pair", refuse)
        monkeypatch.setattr(clifford, "per_block_circuits", refuse)
        assert diagonalize_group(members, blocks).gates == expected

    @pytest.mark.parametrize(
        "sizes", [(4,), (2, 2, 2), (3, 3, 3, 3), (1, 2, 3), (5, 1, 4), (1,) * 5, (7, 6)]
    )
    def test_raises_exactly_when_a_pair_fails(self, sizes):
        # the elimination is the only commutation check: it must refuse every
        # set with a failing pair, name that pair, and diagonalize the rest
        blocks = BlockSpec(sizes)
        n = blocks.n_qubits
        rng = random.Random(str(sizes))
        for trial in range(12):
            members = random_block_commuting_set(rng, blocks, rng.randint(2, 2 * n))
            if trial % 2:
                members[rng.randrange(len(members))] = PauliString(
                    n, rng.getrandbits(n), rng.getrandbits(n)
                )
            pair = first_noncommuting_pair(members, blocks)
            if pair is None:
                circ = diagonalize_group(members, blocks)
                assert all(is_diagonal(conjugate(circ, p)) for p in members)
            else:
                message = f"members {pair[0]} and {pair[1]} do not block-commute under {blocks}"
                with pytest.raises(ValueError) as caught:
                    diagonalize_group(members, blocks)
                assert str(caught.value) == message

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


def row_wise_diagonalize_block(rows: list[list[int]], qubits: range) -> list[Gate]:
    """Reference synthesis: the elimination applied row by row, each emitted
    gate replayed on every row not yet fixed through `conjugate`,
    independently of the column rules that the library uses."""
    gates: list[Gate] = []
    open_rows = list(rows)  # rows not yet fixed, in their original order
    pivots = 0  # bitmask of the fixed rows' pivot qubits

    def emit(gate: Gate) -> None:
        gates.append(gate)
        step = CliffordCircuit(qubits.stop, (gate,))
        for row in open_rows:
            row[0], row[1] = replay(step, *row)

    for _ in range(len(rows)):
        candidate = -1
        for i, row in enumerate(open_rows):
            if row[0] & pivots:
                raise RuntimeError("block diagonalization failed: rows do not commute")
            # clear Z entries on already-fixed pivots by row multiplication
            row[1] &= ~pivots
            if row[0] and candidate < 0:
                candidate = i
        if candidate < 0:
            break
        row = open_rows[candidate]
        x = row[0]
        pivot = (x & -x).bit_length() - 1
        for j in qubits:
            if j != pivot and (x >> j) & 1:
                emit(Gate.cnot(pivot, j))
        if (row[1] >> pivot) & 1:
            emit(Gate.s(pivot))
        z_rest = row[1]
        for j in qubits:
            if (z_rest >> j) & 1:
                emit(Gate.h(j))
        for j in qubits:
            if (z_rest >> j) & 1:
                emit(Gate.cnot(pivot, j))
        if row != [1 << pivot, 0]:
            raise RuntimeError("block diagonalization failed to isolate a pivot")
        emit(Gate.h(pivot))
        del open_rows[candidate]
        pivots |= 1 << pivot
    if any(row[0] for row in open_rows):
        raise RuntimeError("block diagonalization left a non-diagonal row")
    return gates


def reference_gates(members: list[PauliString], blocks: BlockSpec) -> tuple[Gate, ...]:
    gates: list[Gate] = []
    for (start, stop), mask in zip(blocks.spans, blocks.masks):
        restrictions = ((p.x_bits & mask, p.z_bits & mask) for p in members)
        rows = clifford._independent_rows(restrictions, stop)
        gates += row_wise_diagonalize_block(rows, range(start, stop))
    return tuple(gates)


def random_block_commuting_set(rng: random.Random, blocks: BlockSpec, size: int):
    """`size` Z-type strings, repeats and products allowed, conjugated by a
    random circuit that stays inside each block: they block-commute."""
    n = blocks.n_qubits
    gates = []
    for start, stop in blocks.spans:
        width = stop - start
        local = random_circuit(width, rng.randrange(4 * width * width + 1), rng.getrandbits(30))
        gates += [Gate(g.kind, tuple(q + start for q in g.qubits)) for g in local.gates]
    circ = CliffordCircuit(n, tuple(gates))
    return [conjugate(circ, PauliString(n, 0, rng.getrandbits(n))) for _ in range(size)]


class TestSynthesisMatchesRowWiseReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
    def test_random_commuting_sets_uniform_blocks(self, n):
        rng = random.Random(n)
        for trial in range(4):
            k = rng.randint(1, n)
            blocks = BlockSpec.uniform(k, n)
            members = random_block_commuting_set(rng, blocks, rng.randint(1, n))
            assert diagonalize_group(members, blocks).gates == reference_gates(
                members, blocks
            )

    @pytest.mark.parametrize(
        "sizes", [(1, 2, 3), (3, 2, 1), (5, 1, 7, 2), (1,) * 6, (13, 27), (40,)]
    )
    def test_random_commuting_sets_uneven_blocks(self, sizes):
        blocks = BlockSpec(sizes)
        rng = random.Random(sum(sizes) * len(sizes))
        for _ in range(4):
            members = random_block_commuting_set(rng, blocks, rng.randint(1, sum(sizes)))
            assert diagonalize_group(members, blocks).gates == reference_gates(
                members, blocks
            )

    @pytest.mark.parametrize(
        "h",
        [bacon_shor(3, 3), bacon_shor(2, 4, "row_major"), tfim(7, g=0.5),
         hardcore_boson_1d(6), random_hamiltonian(10, 2.0, seed=3)],
        ids=["bacon-shor", "bacon-shor-row-major", "tfim", "hardcore-boson", "random"],
    )
    def test_every_group_at_every_k_of_each_family(self, h):
        paulis = h.paulis()
        for k in range(1, h.n_qubits + 1):
            blocks = BlockSpec.uniform(k, h.n_qubits)
            for group in sorted_insertion(h, blocks).groups:
                members = [paulis[i] for i in group]
                assert diagonalize_group(members, blocks).gates == reference_gates(
                    members, blocks
                )

    def test_built_without_the_row_replay(self, monkeypatch):
        # conjugate() must stay an implementation of the gate rules apart
        # from synthesis, so that it checks synthesis independently
        rng = random.Random(5)
        blocks = BlockSpec((3, 5, 4))
        members = random_block_commuting_set(rng, blocks, 12)
        with monkeypatch.context() as m:
            m.setattr(clifford, "_apply_to_columns", refuse("column rules"))
            expected = reference_gates(members, blocks)
        monkeypatch.setattr(clifford, "conjugate", refuse("conjugate"))
        assert diagonalize_group(members, blocks).gates == expected

    def test_anticommuting_rows_raise(self):
        # the elimination's pivot-column test is the precondition check
        with pytest.raises(ValueError, match="do not commute"):
            clifford._diagonalize_block([(1, 0), (0, 1)], range(1))
        with pytest.raises(RuntimeError, match="do not commute"):
            row_wise_diagonalize_block([[1, 0], [0, 1]], range(1))

    def test_pivot_check_reads_the_columns(self, monkeypatch):
        # with the column gate rules disabled, the row XX stays XX and the
        # check that the pass isolated its pivot must fire
        monkeypatch.setattr(clifford, "_apply_to_columns", lambda kind, qubits, xs, zs: None)
        with pytest.raises(RuntimeError, match="isolate a pivot"):
            clifford._diagonalize_block([(0b11, 0)], range(2))


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

    @pytest.mark.parametrize("n_qubits, n_gates", [(0, 1), (2, -1)])
    def test_random_circuit_rejects_bad_arguments(self, n_qubits, n_gates):
        with pytest.raises(ValueError, match="need n_qubits >= 1 and n_gates >= 0"):
            random_circuit(n_qubits, n_gates, 0)

    def test_random_circuit_determinism(self):
        assert random_circuit(4, 10, 3) == random_circuit(4, 10, 3)
        only_single = random_circuit(1, 50, 0)
        assert all(g.kind != "CNOT" for g in only_single.gates)
