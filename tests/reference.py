"""A frozen copy of the three-pass term-list loader that the one-pass
`load_hamiltonian` replaced, and of the per-qubit renderer it names strings
with, kept as test oracles. Its warnings and errors are the documented
contract: the file name keeps it out of the test collection, and nothing
here may change with the library."""

from __future__ import annotations

import math
import re
import sys
import warnings

from pauliblocks import Hamiltonian, HamiltonianFileError, PauliString, Term

_DENSE_TEXT = re.compile(r"[IXYZ\s]+")
_SPARSE_TEXT = re.compile(r"\s*[XYZ]\d+(?:\s+[XYZ]\d+)*\s*")
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


def pauli_notation(text: str) -> str | list[tuple[str, int]]:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty Pauli specification")
    if _DENSE_TEXT.fullmatch(text):
        return "".join(tokens)
    if _SPARSE_TEXT.fullmatch(text):
        return [(t[0], int(t[1:])) for t in tokens]
    raise ValueError(
        f"cannot parse Pauli {text!r}: expected dense IXYZ text or sparse tokens like 'X0 Z3'"
    )


def pauli_bits(notation, n_qubits: int, text: str) -> tuple[int, int]:
    if isinstance(notation, str):
        if len(notation) != n_qubits:
            raise ValueError(
                f"dense Pauli {notation!r} has {len(notation)} characters, expected {n_qubits}"
            )
        reverse = notation[::-1]
        return int(reverse.translate(_X_DIGITS), 2), int(reverse.translate(_Z_DIGITS), 2)
    x = z = 0
    for letter, idx in notation:
        if idx >= n_qubits:
            raise ValueError(f"qubit index {idx} out of range for n={n_qubits}")
        bit = 1 << idx
        if (x | z) & bit:
            raise ValueError(f"duplicate qubit index {idx} in {text!r}")
        if letter != "Z":
            x |= bit
        if letter != "X":
            z |= bit
    return x, z


def _line_error(path, ln: int, message: str) -> HamiltonianFileError:
    return HamiltonianFileError(f"{path}: line {ln}: {message}")


def dense_text(n: int, x: int, z: int) -> str:
    """The per-qubit renderer that `PauliString.render` replaced: qubit 0
    leftmost, one letter per qubit."""
    chars = []
    for i in range(n):
        chars.append("IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)])
    return "".join(chars)


def _name(n: int, x: int, z: int) -> str:
    if n <= 1024:
        return dense_text(n, x, z)
    tokens = []
    support = x | z
    while support:
        low = support & -support
        tokens.append(f"{'IXZY'[bool(x & low) + 2 * bool(z & low)]}{low.bit_length() - 1}")
        support ^= low
    return " ".join(tokens) or "identity"


def _merge_terms(path, n_qubits: int, raw: list[tuple[int, float, tuple]]) -> Hamiltonian:
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
        total = acc.get(bits, 0.0) + coeff
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


def load_hamiltonian(path) -> Hamiltonian:
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
            raw.append((ln, coeff, pauli_bits(notation, n, text)))
        except ValueError as exc:
            raise _line_error(path, ln, str(exc)) from None
    return _merge_terms(path, n, raw)
