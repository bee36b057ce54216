"""Phaseless Pauli strings in the binary symplectic representation.

A Pauli string on n qubits is stored as two integer bitmaps:

    x_bits: bit i set iff qubit i carries X or Y
    z_bits: bit i set iff qubit i carries Z or Y

so I=(0,0), X=(1,0), Y=(1,1), Z=(0,1). Qubit 0 is the leftmost character
in dense text notation and the least significant bit of the bitmaps.
Two strings commute iff their symplectic inner product
popcount((x1 & z2) ^ (z1 & x2)) is even; block-wise commutativity applies
the same test to each block of an ordered qubit partition, and
`block_commutes_all` is the one place that test is written.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

__all__ = [
    "PauliString",
    "BlockSpec",
    "parse_pauli",
    "commutes",
    "restrict",
    "k_commutes",
    "block_commutes_all",
    "first_noncommuting_pair",
    "pauli_notation",
]

# Whole-text forms: `\s` and str.split() agree on what is whitespace, so a
# match means every whitespace-separated token has the named form.
_DENSE_TEXT = re.compile(r"[IXYZ\s]+")
_SPARSE_TEXT = re.compile(r"\s*[XYZ]\d+(?:\s+[XYZ]\d+)*\s*")
# Dense text to binary digits, qubit 0 first: X or Y sets x, Z or Y sets z.
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


class _Frozen:
    """Base of the immutable value types. A subclass names in `_fields` its
    constructor's arguments, in order, which equality, hashing, repr and pickles read."""

    __slots__ = ()
    _set = object.__setattr__  # bound to the instance: self._set(name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # a copy or an unpickle checks its values again
        return type(self), self._values()


class PauliString(_Frozen):
    """An immutable, phaseless n-qubit Pauli string.

    Coefficients and phases are not part of the string; they live on
    Hamiltonian terms. Instances hash and compare by value and are safe
    to share between threads.
    """

    _fields = ("n_qubits", "x_bits", "z_bits")
    __slots__ = (*_fields, "_hash")  # loading a Hamiltonian hashes each string often

    def __init__(self, n_qubits: int, x_bits: int = 0, z_bits: int = 0):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        # bit_length, not a comparison with 1 << n_qubits, so that a wide
        # string costs no n_qubits-bit integer
        if x_bits < 0 or z_bits < 0 or (x_bits | z_bits).bit_length() > n_qubits:
            raise ValueError(f"bit vectors out of range for {n_qubits} qubits")
        self._set("n_qubits", n_qubits)
        self._set("x_bits", x_bits)
        self._set("z_bits", z_bits)
        self._set("_hash", hash((n_qubits, x_bits, z_bits)))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @property
    def support(self) -> int:
        """Bitmap of qubits carrying a non-identity factor."""
        return self.x_bits | self.z_bits

    @property
    def weight(self) -> int:
        """Number of non-identity single-qubit factors."""
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def render(self) -> str:
        """Dense text form, qubit 0 leftmost (e.g. "XYZI")."""
        chars = []
        for i in range(self.n_qubits):
            x = (self.x_bits >> i) & 1
            z = (self.z_bits >> i) & 1
            chars.append("IXZY"[x + 2 * z])
        return "".join(chars)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PauliString({self.render()!r})"

    def __str__(self) -> str:
        return self.render()


class BlockSpec(_Frozen):
    """An ordered partition of n qubit positions into contiguous blocks.

    The block sizes (k_1, ..., k_m) must be positive and sum to the qubit
    count of any string the partition is applied to. Each block's span and
    bitmask, and each qubit's block index (`home`), are derived once at
    construction; equality, hashing, repr and pickling use `sizes` alone.
    """

    _fields = ("sizes",)
    __slots__ = (*_fields, "spans", "masks", "home")

    def __init__(self, sizes: tuple[int, ...]):
        sizes = tuple(map(int, sizes))
        if not sizes:
            raise ValueError("BlockSpec needs at least one block")
        if min(sizes) < 1:
            raise ValueError(f"block sizes must be positive, got {sizes}")
        spans = []
        masks = []
        home: list[int] = []  # qubit -> block
        start = 0
        for idx, s in enumerate(sizes):
            stop = start + s
            spans.append((start, stop))
            masks.append(((1 << s) - 1) << start)
            home += [idx] * s
            start = stop
        self._set("sizes", sizes)
        self._set("spans", tuple(spans))
        self._set("masks", tuple(masks))
        self._set("home", tuple(home))

    @classmethod
    def uniform(cls, k: int, n_qubits: int) -> "BlockSpec":
        """Blocks of size k covering n qubits; the final block is smaller
        when k does not divide n."""
        if not 1 <= k <= n_qubits:
            raise ValueError(f"block size k={k} must lie in [1, {n_qubits}]")
        sizes = [k] * (n_qubits // k)
        if n_qubits % k:
            sizes.append(n_qubits % k)
        return cls(sizes)

    @property
    def n_qubits(self) -> int:
        return self.spans[-1][1]

    def require_n(self, n_qubits: int) -> None:
        if self.n_qubits != n_qubits:
            raise ValueError(
                f"block sizes sum to {self.n_qubits}, expected {n_qubits}"
            )

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.spans)

    def __repr__(self) -> str:
        return f"BlockSpec({self.sizes})"


def pauli_notation(text: str) -> str | list[tuple[str, int]]:
    """Split Pauli text into its dense string ("XIZY") or its sparse
    (letter, qubit index) pairs, without checking it against a width.

    Raises:
        ValueError: empty text, or text that is neither dense nor sparse.
    """
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


def parse_pauli(text: str, n_qubits: int) -> PauliString:
    """Parse dense ("XIZY") or sparse ("X0 Z3") Pauli notation.

    Dense tokens may be split by whitespace ("X I" equals "XI") and must
    total exactly n_qubits characters. Sparse tokens name a Pauli letter in
    {X, Y, Z} and a qubit index; unmentioned positions are identity.

    Raises:
        ValueError: invalid character, index >= n_qubits, duplicate sparse
            index, or wrong dense length.
    """
    notation = pauli_notation(text)
    if isinstance(notation, str):
        if len(notation) != n_qubits:
            raise ValueError(
                f"dense Pauli {notation!r} has {len(notation)} characters, expected {n_qubits}"
            )
        reverse = notation[::-1]  # int() reads the last qubit first
        x = int(reverse.translate(_X_DIGITS), 2)
        z = int(reverse.translate(_Z_DIGITS), 2)
        return PauliString(n_qubits, x, z)
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
    return PauliString(n_qubits, x, z)


def block_commutes_all(
    x: int, z: int, members: Iterable[tuple[int, int]], masks: Sequence[int]
) -> bool:
    """True iff the string with bitmaps (x, z) block-commutes with every
    (mx, mz) in `members`, each block given by its qubit bitmask in `masks`.

    The single mask -1 makes the whole string one block: plain commutation.
    """
    for mx, mz in members:
        anti = (x & mz) ^ (z & mx)
        if anti:
            for mask in masks:
                if (anti & mask).bit_count() & 1:
                    return False
    return True


def first_noncommuting_pair(
    paulis: Sequence[PauliString], blocks: BlockSpec
) -> tuple[int, int] | None:
    """Positions (a, b), a < b, of the first pair in `paulis` that does not
    block-commute, in lexicographic order, or None if every pair does."""
    bits = [(p.x_bits, p.z_bits) for p in paulis]
    for a, (x, z) in enumerate(bits):
        for b in range(a + 1, len(bits)):
            if not block_commutes_all(x, z, (bits[b],), blocks.masks):
                return a, b
    return None


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff PQ = QP as operators (even symplectic inner product)."""
    if p.n_qubits != q.n_qubits:
        raise ValueError(f"qubit count mismatch: {p.n_qubits} vs {q.n_qubits}")
    return block_commutes_all(p.x_bits, p.z_bits, [(q.x_bits, q.z_bits)], (-1,))


def restrict(p: PauliString, a: int, b: int) -> PauliString:
    """The (b - a)-qubit string made of factors a through b - 1 of p."""
    if not 0 <= a < b <= p.n_qubits:
        raise ValueError(f"invalid restriction range [{a}, {b}) on {p.n_qubits} qubits")
    mask = ((1 << b) - 1) ^ ((1 << a) - 1)
    return PauliString(b - a, (p.x_bits & mask) >> a, (p.z_bits & mask) >> a)


def k_commutes(p: PauliString, q: PauliString, blocks: BlockSpec) -> bool:
    """True iff p and q commute within every block of the partition."""
    if p.n_qubits != q.n_qubits:
        raise ValueError(f"qubit count mismatch: {p.n_qubits} vs {q.n_qubits}")
    blocks.require_n(p.n_qubits)
    return block_commutes_all(p.x_bits, p.z_bits, [(q.x_bits, q.z_bits)], blocks.masks)
