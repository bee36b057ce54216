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

from .paulis import PauliString, _Frozen, _pauli_bits

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
    is the identity (identity contributions belong in `offset`). The terms
    are held as three columns, `_columns`: coefficients, x bitmaps and z
    bitmaps, which the library reads; `terms` is built when first read.
    """

    _fields = ("n_qubits", "terms", "offset")
    __slots__ = ("n_qubits", "offset", "_columns", "_terms")

    def __init__(self, n_qubits: int, terms: tuple[Term, ...], offset: float = 0.0):
        terms = tuple(terms)
        ps = [t.pauli for t in terms]
        columns = [t.coefficient for t in terms], [p.x_bits for p in ps], [p.z_bits for p in ps]
        self._fill(n_qubits, *columns, offset, terms, [p.n_qubits for p in ps])

    @classmethod
    def _from_columns(cls, n_qubits: int, coefficients, xs, zs, offset=0.0) -> Hamiltonian:
        h = cls.__new__(cls)
        h._fill(n_qubits, coefficients, xs, zs, offset)
        return h

    def _fill(self, n_qubits, coefficients, xs, zs, offset, terms=None, widths=()) -> None:
        """Check the columns by one pass of map and set calls, the coefficients
        first, as building the terms would; a loop runs only on a failure, to
        name the first offender. `widths` holds each given term's qubit count."""
        n_qubits = operator.index(n_qubits)
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not all(map(math.isfinite, coefficients)) or 0.0 in coefficients:
            for c, x, z in zip(coefficients, xs, zs):
                Term(c, PauliString(n_qubits, x, z))  # the first to fail raises
        if not math.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset}")
        supports = list(map(operator.or_, xs, zs))  # below 1 for an identity or a negative
        if supports and (
            min(supports) < 1 or max(supports).bit_length() > n_qubits
            or len(set(zip(xs, zs))) < len(xs)
            or widths.count(n_qubits) < len(widths)
        ):
            seen = set()  # (x_bits, z_bits) of each term so far
            for w, x, z in zip(widths or [n_qubits] * len(xs), xs, zs):
                if w != n_qubits:
                    message = f"term {_name(w, x, z)} acts on {w} qubits, expected {n_qubits}"
                    raise ValueError(message)
                PauliString(n_qubits, x, z)  # its range check
                if not x | z:
                    raise ValueError("identity terms must be carried in the offset")
                if (x, z) in seen:
                    raise ValueError(f"duplicate term {_name(n_qubits, x, z)}")
                seen.add((x, z))
        self._set("n_qubits", n_qubits)
        self._set("offset", offset)
        self._set("_columns", (tuple(coefficients), tuple(xs), tuple(zs)))
        self._set("_terms", terms)

    @property
    def terms(self) -> tuple[Term, ...]:
        if self._terms is None:
            n, columns = self.n_qubits, zip(*self._columns)
            self._set("_terms", tuple(Term(c, PauliString(n, x, z)) for c, x, z in columns))
        return self._terms

    @property
    def num_terms(self) -> int:
        return len(self._columns[0])

    def coefficients(self) -> list[float]:
        return list(self._columns[0])

    def paulis(self) -> list[PauliString]:
        return [PauliString(self.n_qubits, x, z) for _, x, z in zip(*self._columns)]


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
    xs = [column[c] | column[c + 1] for c in range(cols - 1)] + [0] * (rows - 1)
    zs = [0] * (cols - 1) + [row[r] | row[r + 1] for r in range(rows - 1)]
    return Hamiltonian._from_columns(n, [1.0] * len(xs), xs, zs)


def _require_chain(n: int) -> None:
    if n < 2:
        raise ValueError(f"chain needs at least 2 sites, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"chain length {n} exceeds sys.maxsize")


def tfim(n: int, j: float = 1.0, g: float = 1.0) -> Hamiltonian:
    """Open-boundary transverse-field Ising chain:
    j * sum ZZ on adjacent pairs + g * sum X on every site."""
    _require_chain(n)
    # (coefficient, x_bits, z_bits) of each term; 3 << i acts on qubits i and i + 1
    terms = [(j, 0, 3 << i) for i in range(n - 1)] if j != 0.0 else []
    terms += [(g, 1 << i, 0) for i in range(n)] if g != 0.0 else []
    if not terms:
        raise ValueError("both couplings are zero; Hamiltonian would be empty")
    return Hamiltonian._from_columns(n, *zip(*terms))


def hardcore_boson_1d(n: int, t: float = 2.0, g: float = 1.0) -> Hamiltonian:
    """1D hardcore-boson chain in the qubit encoding.

    Hopping gives (t/2) * (XX + YY) on adjacent pairs; the site term
    2g * (I - Z) splits into Z terms with coefficient -2g plus a constant
    2g per site, which is recorded on the Hamiltonian offset rather than
    as identity terms.
    """
    _require_chain(n)
    hops = range(n - 1) if t != 0.0 else ()  # 3 << i acts on qubits i and i + 1
    sites = range(n) if g != 0.0 else ()
    # (coefficient, x_bits, z_bits) of each term: the XXs, the YYs, then the Zs
    terms = [(t / 2.0, 3 << i, 0) for i in hops] + [(t / 2.0, 3 << i, 3 << i) for i in hops]
    terms += [(-2.0 * g, 0, 1 << i) for i in sites]
    if not terms:
        raise ValueError("both couplings are zero; Hamiltonian would be empty")
    return Hamiltonian._from_columns(n, *zip(*terms), 2.0 * g * n if sites else 0.0)


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
    return Hamiltonian._from_columns(n, [1.0] * n, *zip(*drawn))


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
    first) and duplicate sparse index, then merge and offset overflow. Each
    line is parsed once and merged as it is read; an error of a later kind,
    and every warning, waits until no earlier kind can come.

    Raises:
        HamiltonianFileError: malformed or inconsistent line, a width or
            sparse index that needs more than sys.maxsize qubits, non-finite
            coefficient, a duplicate whose merged coefficient overflows, or
            identity lines whose offset overflows (message includes the
            1-based line number), or empty file.
    """
    declared_n: int | None = None
    first = widest = 0  # the first term's line; the widest string, for a header-less file
    syntax = wide = width = None  # (line, message) of the first error of each deferred kind
    dense: dict[int, tuple[int, str]] = {}  # header-less: width -> its first dense (line, text)
    acc: dict[tuple[int, int], float] = {}  # (x_bits, z_bits) -> merged coefficient
    notes = []  # (line, bits or None for an identity, merged total or offset or None for a zero)
    memo: dict = {}  # each sparse token's reading, for _pauli_bits
    offset = 0.0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for ln, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            if stripped.lower().startswith("qubits:"):
                if first or declared_n is not None:
                    message = "'qubits:' header must be the first non-comment line"
                    raise _line_error(path, ln, message)
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
            first = first or ln
            if syntax:  # only coefficient errors come before it
                continue
            try:
                x, z, w, is_dense, problem = _pauli_bits(fields[1], declared_n, memo)
            except ValueError as exc:
                syntax = ln, str(exc)
                continue
            if declared_n is None:
                if w > sys.maxsize:
                    wide = wide or (ln, f"qubit index {w - 1} needs more than sys.maxsize qubits")
                    continue
                widest = max(widest, w)
                if is_dense:
                    dense.setdefault(w, (ln, fields[1]))
            bits = x, z
            if problem:
                width = width or (ln, problem)
            elif coeff == 0.0:
                notes.append((ln, bits, None))
            elif not x | z:
                offset += coeff
                notes.append((ln, None, offset))
            elif bits in acc:
                acc[bits] += coeff
                notes.append((ln, bits, acc[bits]))
            else:
                acc[bits] = coeff

    if not first:
        raise HamiltonianFileError(f"{path}: no terms found")
    n = declared_n or widest
    for w, (ln, text) in dense.items():  # a header-less file's dense lines, by width
        if w != n and (width is None or ln < width[0]):
            width = ln, _pauli_bits(text, n, {})[-1]
    for error in (syntax, wide, width):
        if error:
            raise _line_error(path, *error)
    for ln, bits, value in notes:  # what the merge met, in line order
        if bits is None:
            warnings.warn("folding identity term into the constant offset")
            if not math.isfinite(value):
                message = "folding identity term into the offset gives a non-finite offset"
                raise _line_error(path, ln, f"{message} {value}")
        elif value is None:
            warnings.warn(f"dropping zero-coefficient term {_name(n, *bits)}")
        elif not math.isfinite(value):
            message = f"merging duplicate term {_name(n, *bits)} gives a non-finite coefficient"
            raise _line_error(path, ln, f"{message} {value}")
        else:
            warnings.warn(f"merging duplicate term {_name(n, *bits)}")
    for bits in [bits for bits, c in acc.items() if c == 0.0]:
        warnings.warn(f"term {_name(n, *bits)} merged to zero and dropped")
        del acc[bits]
    xs, zs = [x for x, _ in acc], [z for _, z in acc]
    return Hamiltonian._from_columns(n, list(acc.values()), xs, zs, offset)


def hamiltonian_to_text(h: Hamiltonian) -> str:
    """Term-list text with a "qubits:" header and dense Paulis.

    The scalar offset is not part of the file format and is not persisted.
    """
    n = h.n_qubits
    lines = [f"qubits: {n}"]
    lines.extend(f"{c!r} {PauliString(n, x, z).render()}" for c, x, z in zip(*h._columns))
    return "\n".join(lines) + "\n"


def save_hamiltonian(h: Hamiltonian, path) -> None:
    """Write the term-list file format produced by `hamiltonian_to_text`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hamiltonian_to_text(h))
