"""Hamiltonian data model, model-family generators, and term-list files.

A Hamiltonian is a list of real-coefficient Pauli terms on a fixed qubit
count, plus a scalar offset for any identity contribution. Generators cover
four families: Bacon-Shor lattice stabilizers, the 1D transverse-field
Ising chain, a 1D hardcore-boson chain, and random sparse Paulis with
exponentially distributed weights.
"""

from __future__ import annotations

import math
import operator
import random
import sys
import warnings

from .paulis import PauliString, _Frozen, _pauli_bits, pauli_notation

__all__ = [
    "Term",
    "Hamiltonian",
    "HamiltonianFileError",
    "bacon_shor",
    "tfim",
    "hardcore_boson_1d",
    "random_hamiltonian",
    "load_hamiltonian",
    "save_hamiltonian",
    "hamiltonian_to_text",
]


class Term(_Frozen):
    """A real coefficient attached to a Pauli string."""

    __slots__ = _fields = ("coefficient", "pauli")

    def __init__(self, coefficient: float, pauli: PauliString):
        if not math.isfinite(coefficient):
            raise ValueError(f"coefficient must be finite, got {coefficient}")
        if coefficient == 0.0:
            raise ValueError("zero-coefficient terms are not allowed")
        self._set("coefficient", coefficient)
        self._set("pauli", pauli)


class Hamiltonian(_Frozen):
    """An ordered collection of distinct Pauli terms plus a scalar offset.

    Invariants enforced at construction: the offset is finite, every term
    acts on n_qubits qubits, no two terms share a Pauli string, and no term
    is the identity (identity contributions belong in `offset`).
    """

    __slots__ = _fields = ("n_qubits", "terms", "offset")

    def __init__(self, n_qubits: int, terms: tuple[Term, ...], offset: float = 0.0):
        n_qubits = operator.index(n_qubits)
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not math.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset}")
        self._set("n_qubits", n_qubits)
        self._set("terms", tuple(terms))
        self._set("offset", offset)
        seen = set()  # (x_bits, z_bits) of each term so far
        for p in (t.pauli for t in self.terms):
            bits = p.x_bits, p.z_bits
            if p.n_qubits != n_qubits:
                name = _name(p.n_qubits, *bits)
                raise ValueError(f"term {name} acts on {p.n_qubits} qubits, expected {n_qubits}")
            if p.is_identity:
                raise ValueError("identity terms must be carried in the offset")
            if bits in seen:
                raise ValueError(f"duplicate term {_name(n_qubits, *bits)}")
            seen.add(bits)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def coefficients(self) -> list[float]:
        return [t.coefficient for t in self.terms]

    def paulis(self) -> list[PauliString]:
        return [t.pauli for t in self.terms]


class HamiltonianFileError(ValueError):
    """Raised for malformed term-list files; message carries the line number."""


def _line_error(path, ln: int, message: str) -> HamiltonianFileError:
    """The error to raise for line `ln` (1-based) of the term-list file `path`."""
    return HamiltonianFileError(f"{path}: line {ln}: {message}")


def _name(n: int, x: int, z: int) -> str:
    """A string as messages name it: dense up to 1,024 qubits, sparse past that."""
    if n <= 1024:
        return PauliString(n, x, z).render()
    tokens = []  # "X0 Z3", or "identity": the cost follows the support, not n
    support = x | z
    while support:
        low = support & -support
        tokens.append(f"{'IXZY'[bool(x & low) + 2 * bool(z & low)]}{low.bit_length() - 1}")
        support ^= low
    return " ".join(tokens) or "identity"


def _merge_terms(path, n_qubits: int, raw: list[tuple[int, float, tuple]]) -> Hamiltonian:
    """Merge duplicate strings, fold identities into the offset, drop zeros.

    `raw` holds (line number, coefficient, (x_bits, z_bits)) in file order;
    strings are told apart by their bits alone.

    Raises:
        HamiltonianFileError: a merge or the offset overflows; the message
            names the line.
    """
    offset = 0.0
    acc: dict[tuple[int, int], float] = {}
    for ln, coeff, bits in raw:
        if coeff == 0.0:
            warnings.warn(f"dropping zero-coefficient term {_name(n_qubits, *bits)}")
            continue
        if bits == (0, 0):
            warnings.warn("folding identity term into the constant offset")
            offset += coeff
            if not math.isfinite(offset):
                message = "folding identity term into the offset gives a non-finite offset"
                raise _line_error(path, ln, f"{message} {offset}")
            continue
        total = acc.get(bits, 0.0) + coeff  # coeff itself on a first sight
        if bits in acc:
            name = _name(n_qubits, *bits)
            if not math.isfinite(total):
                message = f"merging duplicate term {name} gives a non-finite coefficient {total}"
                raise _line_error(path, ln, message)
            warnings.warn(f"merging duplicate term {name}")
        acc[bits] = total
    terms = []
    for bits, coeff in acc.items():
        if coeff == 0.0:
            warnings.warn(f"term {_name(n_qubits, *bits)} merged to zero and dropped")
            continue
        terms.append(Term(coeff, PauliString(n_qubits, *bits)))
    return Hamiltonian(n_qubits, tuple(terms), offset)


def bacon_shor(
    rows: int, cols: int, ordering: str = "column_major"
) -> Hamiltonian:
    """Stabilizer Hamiltonian of a rows x cols lattice, all coefficients 1.

    Each X-type stabilizer acts with X on every qubit of two adjacent
    columns (weight 2*rows, cols-1 of them); each Z-type stabilizer acts
    with Z on every qubit of two adjacent rows (weight 2*cols, rows-1 of
    them). `ordering` lays qubits out column by column ("column_major",
    qubit index = c*rows + r) or row by row ("row_major", index =
    r*cols + c).
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"lattice must be at least 2x2, got {rows}x{cols}")
    if ordering not in ("column_major", "row_major"):
        raise ValueError(f"unknown ordering {ordering!r}")
    n = rows * cols
    if n > sys.maxsize:
        raise ValueError(f"a {rows}x{cols} lattice has {n} qubits, more than sys.maxsize")

    column = [0] * cols  # qubit mask of each lattice column
    row = [0] * rows  # and of each lattice row
    for r in range(rows):
        for c in range(cols):
            bit = 1 << (c * rows + r if ordering == "column_major" else r * cols + c)
            column[c] |= bit
            row[r] |= bit
    terms = [Term(1.0, PauliString(n, column[c] | column[c + 1], 0)) for c in range(cols - 1)]
    terms += [Term(1.0, PauliString(n, 0, row[r] | row[r + 1])) for r in range(rows - 1)]
    return Hamiltonian(n, tuple(terms))


def _require_chain(n: int) -> None:
    if n < 2:
        raise ValueError(f"chain needs at least 2 sites, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"chain length {n} exceeds sys.maxsize")


def tfim(n: int, j: float = 1.0, g: float = 1.0) -> Hamiltonian:
    """Open-boundary transverse-field Ising chain:
    j * sum ZZ on adjacent pairs + g * sum X on every site."""
    _require_chain(n)
    raw: list[tuple[float, PauliString]] = []
    if j != 0.0:
        for i in range(n - 1):
            raw.append((j, PauliString(n, 0, (1 << i) | (1 << (i + 1)))))
    if g != 0.0:
        for i in range(n):
            raw.append((g, PauliString(n, 1 << i, 0)))
    if not raw:
        raise ValueError("both couplings are zero; Hamiltonian would be empty")
    return Hamiltonian(n, tuple(Term(c, p) for c, p in raw))


def hardcore_boson_1d(n: int, t: float = 2.0, g: float = 1.0) -> Hamiltonian:
    """1D hardcore-boson chain in the qubit encoding.

    Hopping gives (t/2) * (XX + YY) on adjacent pairs; the site term
    2g * (I - Z) splits into Z terms with coefficient -2g plus a constant
    2g per site, which is recorded on the Hamiltonian offset rather than
    as identity terms.
    """
    _require_chain(n)
    raw: list[tuple[float, PauliString]] = []
    if t != 0.0:
        for i in range(n - 1):
            pair = (1 << i) | (1 << (i + 1))
            raw.append((t / 2.0, PauliString(n, pair, 0)))
        for i in range(n - 1):
            pair = (1 << i) | (1 << (i + 1))
            raw.append((t / 2.0, PauliString(n, pair, pair)))
    offset = 0.0
    if g != 0.0:
        for i in range(n):
            raw.append((-2.0 * g, PauliString(n, 0, 1 << i)))
        offset = 2.0 * g * n
    if not raw:
        raise ValueError("both couplings are zero; Hamiltonian would be empty")
    return Hamiltonian(n, tuple(Term(c, p) for c, p in raw), offset)


def random_hamiltonian(n: int, w: float, seed: int) -> Hamiltonian:
    """n random unit-coefficient Pauli terms on n qubits.

    Each term's weight t is drawn from an exponential distribution with
    mean w, rounded to the nearest integer and clamped to [1, n]; t
    distinct qubits are then chosen without replacement and each is
    assigned X, Y, or Z uniformly. Duplicate strings are re-drawn. The
    construction is a pure function of (n, w, seed).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > sys.maxsize:
        raise ValueError(f"qubit count {n} exceeds sys.maxsize")
    if not 0 < w < math.inf:
        raise ValueError(f"mean weight w must be positive and finite, got {w}")
    rng = random.Random(operator.index(seed))
    # (x_bits, z_bits), insertion-ordered; a repeat is a no-op and the loop draws again
    drawn: dict[tuple[int, int], None] = {}
    while len(drawn) < n:
        # a draw past n weighs n: an infinite one cannot be rounded
        t = max(round(min(rng.expovariate(1.0 / w), n)), 1)
        x = z = 0
        for q in rng.sample(range(n), t):
            letter = rng.choice("XYZ")
            if letter != "Z":
                x |= 1 << q
            if letter != "X":
                z |= 1 << q
        drawn[x, z] = None
    return Hamiltonian(n, tuple(Term(1.0, PauliString(n, x, z)) for x, z in drawn))


def load_hamiltonian(path) -> Hamiltonian:
    """Read a term-list file.

    Format: UTF-8 text, with or without a byte-order mark; '#' lines are
    comments, the first non-comment line may be "qubits: n", and each
    remaining line is "<coefficient> <pauli>" with a finite coefficient and
    the Pauli in dense or sparse notation.
    Without the header, n is inferred as the largest dense length or sparse
    index + 1, and every dense line must then have exactly that length.
    Errors come in this order, each kind by line number: header and
    coefficient, Pauli syntax, width (a header-less file's past sys.maxsize
    first) and duplicate sparse index, then merge and offset overflow.

    Raises:
        HamiltonianFileError: malformed or inconsistent line, a width or
            sparse index that needs more than sys.maxsize qubits, non-finite
            coefficient, a duplicate whose merged coefficient overflows, or
            identity lines whose offset overflows (message includes the
            1-based line number), or empty file.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()

    entries: list[tuple[int, float, str]] = []
    declared_n: int | None = None
    for ln, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.lower().startswith("qubits:"):
            if entries or declared_n is not None:
                raise _line_error(path, ln, "'qubits:' header must be the first non-comment line")
            try:
                declared_n = int(stripped.split(":", 1)[1])
            except ValueError:
                message = f"cannot parse qubit count from {stripped!r}"
                raise _line_error(path, ln, message) from None
            if declared_n < 1:
                raise _line_error(path, ln, "qubit count must be positive")
            if declared_n > sys.maxsize:
                raise _line_error(path, ln, f"qubit count {declared_n} exceeds sys.maxsize")
            continue
        fields = stripped.split(None, 1)
        if len(fields) != 2:
            raise _line_error(path, ln, f"expected '<coefficient> <pauli>', got {stripped!r}")
        try:
            coeff = float(fields[0])
        except ValueError:
            raise _line_error(path, ln, f"invalid coefficient {fields[0]!r}") from None
        if not math.isfinite(coeff):
            raise _line_error(path, ln, f"coefficient must be finite, got {fields[0]!r}")
        entries.append((ln, coeff, fields[1]))

    if not entries:
        raise HamiltonianFileError(f"{path}: no terms found")

    notations = []
    for ln, _, text in entries:
        try:
            notations.append(pauli_notation(text))
        except ValueError as exc:
            raise _line_error(path, ln, str(exc)) from None

    n = declared_n
    if n is None:
        n = 0
        for (ln, _, _), p in zip(entries, notations):
            width = len(p) if isinstance(p, str) else 1 + max(i for _, i in p)
            if width > sys.maxsize:
                message = f"qubit index {width - 1} needs more than sys.maxsize qubits"
                raise _line_error(path, ln, message)
            n = max(n, width)

    raw = []
    for (ln, coeff, text), notation in zip(entries, notations):
        try:
            raw.append((ln, coeff, _pauli_bits(notation, n, text)))
        except ValueError as exc:
            raise _line_error(path, ln, str(exc)) from None
    return _merge_terms(path, n, raw)


def hamiltonian_to_text(h: Hamiltonian) -> str:
    """Term-list text with a "qubits:" header and dense Paulis.

    The scalar offset is not part of the file format and is not persisted.
    """
    lines = [f"qubits: {h.n_qubits}"]
    lines.extend(f"{t.coefficient!r} {t.pauli.render()}" for t in h.terms)
    return "\n".join(lines) + "\n"


def save_hamiltonian(h: Hamiltonian, path) -> None:
    """Write the term-list file format produced by `hamiltonian_to_text`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hamiltonian_to_text(h))
