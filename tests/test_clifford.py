"""Conjugation rules, tableaus, and per-block diagonalization synthesis."""

from __future__ import annotations

import functools
import operator
import random
import signal

import numpy as np
import pytest

from conftest import circuit_matrix, equal_up_to_sign, pauli_matrix
from pauliblocks import clifford
from pauliblocks import (
    BlockSpec,
    CliffordCircuit,
    Gate,
    Hamiltonian,
    PauliString,
    Tableau,
    Term,
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
    k_sweep,
    parse_pauli,
    per_block_circuits,
    random_circuit,
    random_hamiltonian,
    sorted_insertion,
    tfim,
)
from pauliblocks.cli import main
from pauliblocks.paulis import first_noncommuting_pair


def three_terms(n: int) -> Hamiltonian:
    """Z0, X1 X2 and Z1 Z2 on n qubits: a wide register whose blocks are
    empty past qubit 2."""
    return Hamiltonian(n, (
        Term(1.0, PauliString(n, 0, 0b001)),
        Term(0.5, PauliString(n, 0b110, 0)),
        Term(0.25, PauliString(n, 0, 0b110)),
    ))


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

    def test_indices_counts_and_seeds_must_be_integers(self):
        for make in (
            lambda: Gate("H", (1.5,)),
            lambda: Gate.cnot(0, 1.0),
            lambda: CliffordCircuit(2.0, ()),
            lambda: random_circuit(3, 4, seed=1.5),
        ):
            with pytest.raises(TypeError):
                make()
        gate = Gate("CNOT", np.array([0, 1]))
        assert gate == Gate.cnot(0, 1) and str(gate) == "CNOT 0 1"
        assert CliffordCircuit(np.int64(2), (gate,)) == CliffordCircuit(2, (gate,))

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
        # members of weight 1 to 3 on a wide register, on qubits that a small
        # circuit acts on, the last one included, and on one it leaves alone,
        # so the walk over their set bits reaches high positions
        n = 3000
        moved = [0, 1, 1500, 2997, 2998, 2999]
        for seed in range(3):
            local = random_circuit(len(moved), 30, seed)
            gates = [Gate(g.kind, tuple(moved[q] for q in g.qubits)) for g in local.gates]
            circ = CliffordCircuit(n, tuple(gates))
            tab = Tableau.from_circuit(circ)
            for _ in range(5):
                x = z = 0
                for q in rng.sample([*moved, 2000], rng.randint(1, 3)):
                    letter = rng.randrange(1, 4)  # X, Z or Y
                    x |= (letter & 1) << q
                    z |= (letter >> 1) << q
                p = PauliString(n, x, z)
                assert tab.apply(p) == conjugate(circ, p)

    def test_non_symplectic_rejected(self):
        # images of X0 and Z0 must anticommute; make them equal instead
        tab = Tableau(1, [(1, 0)], [(1, 0)])
        assert not tab.is_symplectic()

    @pytest.mark.parametrize("kind", ["X", "Z"])
    def test_like_generators_two_apart_are_checked(self, kind):
        # the 4-qubit identity with X_2 -> X_2 Z_0 (or Z_2 -> Z_2 X_0): its one
        # broken pair is (X_0, X_2) (or (Z_0, Z_2)), generators two apart
        xs = [(1 << j, 0) for j in range(4)]
        zs = [(0, 1 << j) for j in range(4)]
        assert Tableau(4, xs, zs).is_symplectic()
        if kind == "X":
            xs[2] = (0b100, 0b001)
        else:
            zs[2] = (0b001, 0b100)
        images = xs + zs
        broken = [
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if ((images[i][0] & images[j][1]) ^ (images[i][1] & images[j][0])).bit_count() % 2
            != (j == i + 4)
        ]
        assert broken == ([(0, 2)] if kind == "X" else [(4, 6)])
        assert not Tableau(4, xs, zs).is_symplectic()

    @pytest.mark.parametrize("k", ["1", "8000"])
    def test_wide_diag_verifies_in_one_pass(self, tmp_path, capsys, k):
        # a check over every pair of generators makes Θ(n²) n-bit kernel
        # calls: `diag` took 16.6 s in process at 8,000 qubits with it, and
        # 0.12 s with the F2 pass (2 cores, Python 3.11)
        path = tmp_path / "w.txt"
        path.write_text("qubits: 8000\n1.0 Z0\n0.5 X1 X2\n0.25 Z1 Z2\n", encoding="utf-8")

        def expire(signum, frame):
            raise TimeoutError("diag did not verify 8,000 qubits within 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            code = main(["diag", str(path), "--k", k])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        out, err = capsys.readouterr()
        assert code == 0, err
        assert out.splitlines()[0] == "qubits: 8000"

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


def packed_independent_rows(vectors, width: int) -> list[list[int]]:
    """Reference reduction: each (x, z) vector of at most `width` bits packed
    into one integer, (x << width) | z, and pivoted on its leading bit."""
    pivots: dict[int, int] = {}
    for x, z in vectors:
        v = (x << width) | z
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    mask = (1 << width) - 1
    return [[v >> width, v & mask] for _, v in sorted(pivots.items(), reverse=True)]


class TestIndependentRows:
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 13, 40])
    def test_matches_the_packed_reduction(self, width):
        # the leading-bit order, x bits above z bits, is the packed order;
        # vectors sit at an offset, as a block's restrictions do
        rng = random.Random(width)
        for offset in (0, 1, 7, 64):
            for _ in range(15):
                vectors = [
                    tuple(rng.getrandbits(width) << offset if rng.random() < 0.6 else 0
                          for _ in "xz")
                    for _ in range(rng.randint(0, 2 * width + 3))
                ]
                vectors += rng.sample(vectors, len(vectors) // 3)  # repeats reduce to zero
                assert clifford._independent_rows(vectors) == packed_independent_rows(
                    vectors, offset + width
                )

    def test_a_row_with_x_bits_ranks_above_every_x_free_row(self):
        rows = [(0, 0b100), (0b1, 0), (0, 0b1), (0b10, 0b111)]
        assert clifford._independent_rows(rows) == [[0b10, 0b111], [0b1, 0], [0, 0b100], [0, 0b1]]


def reference_gates(members: list[PauliString], blocks: BlockSpec) -> tuple[Gate, ...]:
    gates: list[Gate] = []
    for start, stop in blocks.spans:
        mask = (1 << stop) - (1 << start)
        restrictions = ((p.x_bits & mask, p.z_bits & mask) for p in members)
        rows = clifford._independent_rows(restrictions)
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


def sparse_block_commuting_set(rng: random.Random, blocks: BlockSpec, size: int):
    """Like `random_block_commuting_set`, but inside one to three blocks,
    never all of them, each on two or three of its qubits scattered over it:
    every other block holds none of the members' support."""
    n = blocks.n_qubits
    gates, touched = [], 0
    wide = [span for span in blocks.spans if span[1] - span[0] >= 2]
    count = rng.randint(1, min(3, len(wide), len(blocks.spans) - 1))
    for start, stop in rng.sample(wide, count):
        qubits = rng.sample(range(start, stop), rng.randint(2, min(3, stop - start)))
        local = random_circuit(len(qubits), rng.randrange(40), rng.getrandbits(30))
        gates += [Gate(g.kind, tuple(qubits[q] for q in g.qubits)) for g in local.gates]
        touched |= sum(1 << q for q in qubits)
    circ = CliffordCircuit(n, tuple(gates))
    return [
        conjugate(circ, PauliString(n, 0, rng.getrandbits(n) & touched)) for _ in range(size)
    ]


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

    @pytest.mark.parametrize(
        "blocks",
        [BlockSpec.uniform(32, 128), BlockSpec.uniform(50, 120), BlockSpec((1, 30, 2, 50, 45)),
         BlockSpec((64, 1, 1, 64, 3))],
        ids=["uniform-32", "uniform-50-uneven-tail", "uneven", "two-wide"],
    )
    def test_sparse_members_on_wide_blocks(self, blocks):
        rng = random.Random(blocks.n_qubits + len(blocks.spans))
        for _ in range(6):
            members = sparse_block_commuting_set(rng, blocks, rng.randint(1, 6))
            support = functools.reduce(operator.or_, (p.x_bits | p.z_bits for p in members))
            # an empty block
            assert any(not support & (1 << b) - (1 << a) for a, b in blocks.spans)
            circ = diagonalize_group(members, blocks)
            assert circ.gates == reference_gates(members, blocks)
            assert all(support >> q & 1 for g in circ.gates for q in g.qubits)

    @pytest.mark.parametrize(
        "blocks", [BlockSpec.uniform(4, 4000), BlockSpec((3, 1, 996, 2, 2998))],
        ids=["uniform-4", "uneven"],
    )
    def test_each_touched_block_is_synthesized_once(self, monkeypatch, blocks):
        calls = []
        real = clifford._diagonalize_block

        def spy(rows):
            calls.append(rows)
            return real(rows)

        monkeypatch.setattr(clifford, "_diagonalize_block", spy)
        rng = random.Random(len(blocks))
        shared = 0  # the touched blocks holding two or more support qubits
        for _ in range(6):
            members = sparse_block_commuting_set(rng, blocks, rng.randint(2, 6))
            support = functools.reduce(operator.or_, (p.x_bits | p.z_bits for p in members))
            homes = [blocks.home[q] for q in range(blocks.n_qubits) if support >> q & 1]
            shared += len(homes) - len(set(homes))
            calls.clear()
            assert diagonalize_group(members, blocks).gates == reference_gates(members, blocks)
            assert len(calls) == len(set(homes))
        assert shared

    def test_columns_hold_only_the_qubits_the_rows_act_on(self, monkeypatch):
        # the cost of a block follows its rows: a with-circuits sweep of three
        # terms on 2,000 qubits keys no column by a qubit that no row touches
        filled = []
        real = clifford._transpose

        def spy(rows, xs, zs):
            rows = list(rows)
            real(rows, xs, zs)
            filled.append((rows, xs, zs))

        monkeypatch.setattr(clifford, "_transpose", spy)
        sweep = k_sweep(three_terms(2000), range(1, 2001), with_circuits=True)
        assert [r.max_block_circuit_gates for r in sweep[:3]] == [1, 1, 2]
        assert len(filled) >= 2000
        for rows, xs, zs in filled:
            support = functools.reduce(operator.or_, (x | z for x, z in rows), 0)
            assert list(xs) == list(zs) == sorted(xs)
            assert sum(1 << q for q in xs) == support

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
            clifford._diagonalize_block([(1, 0), (0, 1)])
        with pytest.raises(RuntimeError, match="do not commute"):
            row_wise_diagonalize_block([[1, 0], [0, 1]], range(1))

    def test_pivot_check_reads_the_columns(self, monkeypatch):
        # with the column gate rules disabled, the row XX stays XX and the
        # check that the pass isolated its pivot must fire
        monkeypatch.setattr(clifford, "_apply_to_columns", lambda kind, qubits, xs, zs: None)
        with pytest.raises(RuntimeError, match="isolate a pivot"):
            clifford._diagonalize_block([(0b11, 0)])


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
