"""Clifford circuits over {CNOT, H, S}: conjugation, tableaus, and
per-block diagonalization of block-commuting Pauli sets.

Conjugation is tracked phaselessly on the (x, z) bit vectors:

    H(q):       swap x_q and z_q
    S(q):       z_q ^= x_q
    CNOT(c, t): x_t ^= x_c, z_c ^= z_t

A Pauli is diagonal iff its x bits are all zero. Diagonalizing a group of
mutually block-commuting strings reduces each block independently by
symplectic Gaussian elimination, so the resulting circuit never contains a
gate that crosses a block boundary.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Iterable, Sequence

from .paulis import BlockSpec, PauliString, _Frozen, block_commutes_all, first_noncommuting_pair

__all__ = [
    "Gate",
    "CliffordCircuit",
    "Tableau",
    "conjugate",
    "is_diagonal",
    "diagonalize_group",
    "count_diagonalized",
    "circuit_depth",
    "per_block_circuits",
    "random_circuit",
    "circuit_to_text",
    "circuit_from_text",
]

_KINDS = ("H", "S", "CNOT")


class Gate(_Frozen):
    __slots__ = _fields = ("kind", "qubits")

    def __init__(self, kind: str, qubits: tuple[int, ...]):
        if kind not in _KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = 2 if kind == "CNOT" else 1
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s), got {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index in {qubits}")
        if kind == "CNOT" and qubits[0] == qubits[1]:
            raise ValueError("CNOT control and target must differ")
        self._set("kind", kind)
        self._set("qubits", tuple(qubits))

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("H", (q,))

    @classmethod
    def s(cls, q: int) -> "Gate":
        return cls("S", (q,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    def __str__(self) -> str:
        return " ".join([self.kind, *map(str, self.qubits)])


class CliffordCircuit(_Frozen):
    __slots__ = _fields = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...]):
        self._set("gates", tuple(gates))
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        for g in self.gates:
            if max(g.qubits) >= n_qubits:
                raise ValueError(f"gate {g} out of range for {n_qubits} qubits")
        self._set("n_qubits", n_qubits)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def conjugate(circuit: CliffordCircuit, pauli: PauliString) -> PauliString:
    """Phaseless image of a Pauli string under conjugation by the circuit,
    each gate applied to the string's own (x, z) bits, first gate first."""
    if pauli.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"qubit count mismatch: circuit has {circuit.n_qubits}, Pauli has {pauli.n_qubits}"
        )
    x, z = pauli.x_bits, pauli.z_bits
    for gate in circuit.gates:
        if gate.kind == "H":
            d = (x ^ z) & (1 << gate.qubits[0])
            if d:  # XOR only on a change: each XOR builds a new n-bit int
                x ^= d
                z ^= d
        elif gate.kind == "S":
            z ^= x & (1 << gate.qubits[0])
        else:
            c, t = gate.qubits
            if x >> c & 1:
                x ^= 1 << t
            if z >> t & 1:
                z ^= 1 << c
    return PauliString(pauli.n_qubits, x, z)


def is_diagonal(pauli: PauliString) -> bool:
    """True iff the string is Z-type (diagonal in the computational basis)."""
    return pauli.x_bits == 0


def _apply_to_columns(kind: str, qubits: tuple[int, ...], xs, zs) -> None:
    """Apply a gate to a bit matrix held column-wise, in place: xs[q] and
    zs[q] mask the rows with an x or z bit on qubit q."""
    if kind == "H":
        (q,) = qubits
        xs[q], zs[q] = zs[q], xs[q]
    elif kind == "S":
        (q,) = qubits
        zs[q] ^= xs[q]
    else:
        c, t = qubits
        xs[t] ^= xs[c]
        zs[c] ^= zs[t]


def _transpose(columns: Sequence[int], height: int) -> list[int]:
    """Transpose a bit matrix: bit q of row r is bit r of columns[q]."""
    # reversed strings put row r at index r; the last column is the top digit
    digits = [format(c, f"0{height}b")[::-1] for c in reversed(columns)]
    return [int("".join(row), 2) for row in zip(*digits)]


class Tableau(_Frozen):
    """Symplectic action of a circuit on the phaseless Pauli generators.

    Stores the (x, z) image of every X_j and Z_j basis generator; the image
    of an arbitrary string is the XOR combination selected by its bits.
    """

    __slots__ = _fields = ("n_qubits", "x_images", "z_images")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity

    def __init__(
        self, n_qubits: int, x_images: tuple[tuple[int, int], ...],
        z_images: tuple[tuple[int, int], ...],
    ):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        if len(x_images) != n_qubits or len(z_images) != n_qubits:
            raise ValueError("need one image per basis generator")
        self._set("n_qubits", n_qubits)
        self._set("x_images", tuple(x_images))
        self._set("z_images", tuple(z_images))
        limit = 1 << n_qubits
        for x, z in self.x_images + self.z_images:
            if not (0 <= x < limit and 0 <= z < limit):
                raise ValueError(f"image ({x}, {z}) out of range for {n_qubits} qubits")

    @classmethod
    def from_circuit(cls, circuit: CliffordCircuit) -> "Tableau":
        """Build the tableau column by column, one pass over the gates.

        xs[q] and zs[q] mask the 2n generator rows (X_j is row j, Z_j row
        n + j) whose image has an x or z bit on qubit q, so each gate costs
        O(1) big-int operations. Synthesis applies its gates by the same
        column rules; `conjugate` applies them to one string's own bits,
        apart from both.
        """
        n = circuit.n_qubits
        xs = [1 << q for q in range(n)]
        zs = [1 << (n + q) for q in range(n)]
        for gate in circuit.gates:
            _apply_to_columns(gate.kind, gate.qubits, xs, zs)
        images = list(zip(_transpose(xs, 2 * n), _transpose(zs, 2 * n)))
        return cls(n, images[:n], images[n:])

    def apply(self, pauli: PauliString) -> PauliString:
        if pauli.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        x = z = 0
        for j in range(self.n_qubits):
            if (pauli.x_bits >> j) & 1:
                gx, gz = self.x_images[j]
                x ^= gx
                z ^= gz
            if (pauli.z_bits >> j) & 1:
                gx, gz = self.z_images[j]
                x ^= gx
                z ^= gz
        return PauliString(self.n_qubits, x, z)

    def is_symplectic(self) -> bool:
        """Check directly that the 2n x 2n binary action preserves the
        symplectic form on all generator pairs."""
        whole = (-1,)  # one block over every bit: plain commutation
        xs, zs = self.x_images, self.z_images
        for i in range(self.n_qubits):
            if not (
                block_commutes_all(*xs[i], xs[i + 1 :], whole)
                and block_commutes_all(*zs[i], zs[i + 1 :], whole)
                and block_commutes_all(*xs[i], zs[:i] + zs[i + 1 :], whole)
                and not block_commutes_all(*xs[i], (zs[i],), whole)
            ):
                return False
        return True


def _independent_rows(vectors: Iterable[tuple[int, int]], width: int) -> list[list[int]]:
    """Reduce (x, z) vectors of at most `width` bits over F2 to an
    independent generating subset."""
    pivots: dict[int, int] = {}  # pivot bit -> combined 2*width-bit vector
    for x, z in vectors:
        v = (x << width) | z
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                break
    mask = (1 << width) - 1
    return [[v >> width, v & mask] for _, v in sorted(pivots.items(), reverse=True)]


def _diagonalize_block(rows: Sequence[Sequence[int]], qubits: range) -> list[tuple]:
    """Emit (kind, qubits) gates over {CNOT, H, S} on `qubits` sending every
    independent (x, z) row, supported on `qubits`, to Z-type.

    The rows are held column-wise: xs[q] and zs[q] mask the rows with an x
    or z bit on qubit q, so each gate costs O(1) big-int operations. Each
    pass fixes one row to a single-qubit Z on a fresh pivot, which later
    gates never touch, so the loop ends within len(rows) passes. Unless the
    rows pairwise commute, the pivot-column test raises ValueError, and it
    is complete. Take any anticommuting pair of rows. Gates, and the
    Z-clearing products with a fixed row, keep every open pair's relation;
    two rows never fixed end Z-type, so they commute. So the first of the
    pair to be fixed as Z on its pivot finds the other still open, with an x
    bit on that pivot. Any other failure breaks an invariant: RuntimeError.
    """
    xs, zs = dict.fromkeys(qubits, 0), dict.fromkeys(qubits, 0)
    for i, (x, z) in enumerate(rows):
        for cols, bits in ((xs, x), (zs, z)):
            while bits:
                low = bits & -bits
                cols[low.bit_length() - 1] |= 1 << i
                bits ^= low
    open_rows = (1 << len(rows)) - 1  # rows not yet fixed; bit i is row i
    gates: list[tuple] = []

    def emit(kind: str, *on: int) -> None:
        gates.append((kind, on))
        _apply_to_columns(kind, on, xs, zs)

    for _ in range(len(rows)):
        open_x = open_rows & functools.reduce(operator.or_, xs.values())
        if not open_x:
            break
        row = open_x & -open_x  # the first open row with an x bit
        x_support = [q for q, col in xs.items() if col & row]
        pivot = x_support[0]
        for j in x_support[1:]:
            emit("CNOT", pivot, j)
        if zs[pivot] & row:
            emit("S", pivot)
        z_rest = [q for q, col in zs.items() if col & row]
        for j in z_rest:
            emit("H", j)
        for j in z_rest:
            emit("CNOT", pivot, j)
        support = [q for q, col in xs.items() if (col | zs[q]) & row]
        if support != [pivot] or zs[pivot] & row:  # the row is not X on the pivot
            raise RuntimeError("block diagonalization failed to isolate a pivot")
        emit("H", pivot)
        open_rows ^= row
        # no later gate touches the pivot, so check its final columns once and
        # clear its Z entries on the open rows (a product with the fixed row)
        if xs[pivot] & open_rows:
            raise ValueError("rows do not commute")
        zs[pivot] &= ~open_rows
    if open_rows and open_rows & functools.reduce(operator.or_, xs.values()):
        raise RuntimeError("block diagonalization left a non-diagonal row")
    return gates


def _block_gate_lists(bits: Sequence[tuple[int, int]], blocks: BlockSpec) -> list[list[tuple]]:
    """One (kind, qubits) list per block, by symplectic Gaussian elimination
    over an independent generating subset of the (x, z) rows' restrictions
    to it. By bilinearity the rows block-commute iff each block's subset
    commutes, which the elimination checks: ValueError if not."""
    return [
        # restrictions stay at their global positions, so the gates do too
        _diagonalize_block(_independent_rows(((x & mask, z & mask) for x, z in bits), stop),
                           range(start, stop))
        for (start, stop), mask in zip(blocks.spans, blocks.masks)
    ]


def diagonalize_group(members: Sequence[PauliString], blocks: BlockSpec) -> CliffordCircuit:
    """Synthesize a circuit conjugating every member to Z-type, block by block.

    Members must pairwise block-commute under `blocks`; the elimination checks
    it, and the error names the first pair that does not. The circuit is the
    per-block gate lists of `_block_gate_lists` joined, so each sub-circuit
    stays in one block; its `Gate`s are the only ones that synthesis builds.
    """
    members = list(members)
    if not members:
        raise ValueError("no members to diagonalize")
    n = members[0].n_qubits
    blocks.require_n(n)
    if any(p.n_qubits != n for p in members):
        raise ValueError("members act on different qubit counts")
    try:
        gates = _block_gate_lists([(p.x_bits, p.z_bits) for p in members], blocks)
    except ValueError:
        a, b = first_noncommuting_pair(members, blocks)
        raise ValueError(f"members {a} and {b} do not block-commute under {blocks}") from None
    return CliffordCircuit(n, tuple(Gate(*g) for g in itertools.chain(*gates)))


def count_diagonalized(circuit: CliffordCircuit) -> int:
    """Number of phaseless n-qubit Paulis whose image under the circuit is
    diagonal, by exhaustive enumeration of all 4^n strings (n <= 6)."""
    n = circuit.n_qubits
    if n > 6:
        raise ValueError(f"enumeration supports n <= 6, got {n}")
    tab = Tableau.from_circuit(circuit)
    # x part of the image of a string is linear in its bits
    x_of_xgen = [img[0] for img in tab.x_images]
    x_of_zgen = [img[0] for img in tab.z_images]

    def xor_table(parts: list[int]) -> list[int]:
        out = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = (m & -m).bit_length() - 1
            out[m] = out[m & (m - 1)] ^ parts[low]
        return out

    from_x = xor_table(x_of_xgen)
    from_z = xor_table(x_of_zgen)
    counts: dict[int, int] = {}
    for v in from_z:
        counts[v] = counts.get(v, 0) + 1
    return sum(counts.get(v, 0) for v in from_x)


def _depth(gates: Iterable[tuple[int, ...]]) -> int:
    """Greedy layering depth of gates given as qubit tuples: each lands in
    the earliest layer after the last layer touching any of its qubits."""
    last: dict[int, int] = {}
    depth = 0
    for qubits in gates:
        layer = 1 + max(last.get(q, 0) for q in qubits)
        for q in qubits:
            last[q] = layer
        depth = max(depth, layer)
    return depth


def circuit_depth(circuit: CliffordCircuit) -> int:
    """Greedy layering depth of the circuit's gates (see `_depth`)."""
    return _depth(g.qubits for g in circuit.gates)


def per_block_circuits(
    circuit: CliffordCircuit, blocks: BlockSpec
) -> list[CliffordCircuit]:
    """Split a block-local circuit into one sub-circuit per block.

    Raises ValueError if any gate touches qubits in more than one block.
    """
    blocks.require_n(circuit.n_qubits)
    buckets: list[list[Gate]] = [[] for _ in blocks.spans]
    home = blocks.home
    for gate in circuit.gates:
        homes = {home[q] for q in gate.qubits}
        if len(homes) != 1:
            raise ValueError(f"gate {gate} crosses a block boundary")
        buckets[homes.pop()].append(gate)
    return [CliffordCircuit(circuit.n_qubits, tuple(b)) for b in buckets]


def random_circuit(n_qubits: int, n_gates: int, seed: int) -> CliffordCircuit:
    """A seeded random circuit over {CNOT, H, S} (CNOT only when n >= 2)."""
    if n_qubits < 1 or n_gates < 0:
        raise ValueError("need n_qubits >= 1 and n_gates >= 0")
    rng = random.Random(seed)
    kinds = _KINDS if n_qubits >= 2 else ("H", "S")
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "CNOT":
            c, t = rng.sample(range(n_qubits), 2)
            gates.append(Gate.cnot(c, t))
        else:
            gates.append(Gate(kind, (rng.randrange(n_qubits),)))
    return CliffordCircuit(n_qubits, tuple(gates))


def circuit_to_text(circuit: CliffordCircuit) -> str:
    """Plain-text export: a "qubits: n" line then one gate per line."""
    lines = [f"qubits: {circuit.n_qubits}"]
    lines.extend(str(g) for g in circuit.gates)
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> CliffordCircuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("qubits:"):
        raise ValueError("circuit text must start with 'qubits: n'")
    n = int(lines[0].split(":", 1)[1])
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        gates.append(Gate(parts[0], tuple(int(q) for q in parts[1:])))
    return CliffordCircuit(n, tuple(gates))
