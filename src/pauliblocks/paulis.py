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

import operator
import sys
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
]

_DENSE_LETTERS = frozenset("IXYZ")  # dense text is these and whitespace
# Dense text to binary digits, qubit 0 first: X or Y sets x, Z or Y sets z.
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")
_LETTERS = str.maketrans("0123", "IXZY")  # hex digit x_q + 2 z_q to its letter


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

    __slots__ = _fields = ("n_qubits", "x_bits", "z_bits")

    def __init__(self, n_qubits: int, x_bits: int = 0, z_bits: int = 0):
        n_qubits = operator.index(n_qubits)
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {n_qubits}")
        x_bits, z_bits = operator.index(x_bits), operator.index(z_bits)
        # bit_length, not a comparison with 1 << n_qubits, so that a wide
        # string costs no n_qubits-bit integer; x | z < 0 iff x or z is
        if (bits := x_bits | z_bits) < 0 or bits.bit_length() > n_qubits:
            raise ValueError(f"bit vectors out of range for {n_qubits} qubits")
        self._set("n_qubits", n_qubits)
        self._set("x_bits", x_bits)
        self._set("z_bits", z_bits)

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
        """Dense text form, qubit 0 leftmost (e.g. "XYZI"). Bit q of x and of z
        read as hex digit q, so digit q of x + 2z is x_q + 2 z_q, with no carry."""
        w = f"0{self.n_qubits}"
        digits = int(format(self.x_bits, f"{w}b"), 16) + 2 * int(format(self.z_bits, f"{w}b"), 16)
        return format(digits, f"{w}x")[::-1].translate(_LETTERS)

    def __repr__(self) -> str:
        return f"PauliString({self.render()!r})"

    def __str__(self) -> str:
        return self.render()


class BlockSpec(_Frozen):
    """An ordered partition of n qubit positions into contiguous blocks.

    The block sizes (k_1, ..., k_m) must be positive and sum to the qubit
    count of any string the partition is applied to. Each block's first
    qubit (`starts`) and each qubit's block index (`home`) are derived once
    at construction; equality, hashing, repr and pickling use `sizes` alone.
    """

    _fields = ("sizes",)
    __slots__ = (*_fields, "starts", "home")

    def __init__(self, sizes: tuple[int, ...]):
        sizes = tuple(map(operator.index, sizes))
        if not sizes:
            raise ValueError("BlockSpec needs at least one block")
        if min(sizes) < 1:
            raise ValueError(f"block sizes must be positive, got {sizes}")
        starts = []
        home: list[int] = []  # qubit -> block
        for idx, s in enumerate(sizes):
            starts.append(len(home))
            home += [idx] * s
        self._set("sizes", sizes)
        self._set("starts", tuple(starts))
        self._set("home", tuple(home))

    @classmethod
    def uniform(cls, k: int, n_qubits: int) -> "BlockSpec":
        """Blocks of size k covering n qubits; the final block is smaller
        when k does not divide n."""
        k, n_qubits = operator.index(k), operator.index(n_qubits)
        if not 1 <= k <= n_qubits:
            raise ValueError(f"block size k={k} must lie in [1, {n_qubits}]")
        sizes = [k] * (n_qubits // k)
        if n_qubits % k:
            sizes.append(n_qubits % k)
        return cls(sizes)

    @property
    def n_qubits(self) -> int:
        return len(self.home)

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:  # each block's [start, stop)
        return tuple((a, a + s) for a, s in zip(self.starts, self.sizes))

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


def parse_pauli(text: str, n_qubits: int) -> PauliString:
    """Parse dense ("XIZY") or sparse ("X0 Z3") Pauli notation.

    Dense tokens may be split by whitespace ("X I" equals "XI") and must
    total exactly n_qubits characters. Sparse tokens name a Pauli letter in
    {X, Y, Z} and a qubit index; unmentioned positions are identity.

    Raises:
        ValueError: invalid character, index >= n_qubits, duplicate sparse
            index, or wrong dense length.
    """
    x, z, _, _, problem = _pauli_bits(text, n_qubits, {})
    if problem:
        raise ValueError(problem)
    return PauliString(n_qubits, x, z)


def _pauli_bits(text: str, n_qubits: int | None, memo: dict) -> tuple:
    """(x_bits, z_bits, width, dense, problem) of dense or sparse Pauli text,
    in one pass: width is the dense length or one past the largest index,
    problem the first wrong length, index past n_qubits or repeated index,
    and the sparse bits stop before it. n_qubits None checks no dense length
    and bounds indices by sys.maxsize. `memo`, shared across calls, maps
    each sparse token read to (index, sets x, sets z).

    Raises:
        ValueError: empty text, or text that is neither dense nor sparse.
    """
    tokens = text.split()
    letters = "".join(tokens)
    if _DENSE_LETTERS.issuperset(letters):
        if not letters:
            raise ValueError("empty Pauli specification")
        width, problem = len(letters), None
        if n_qubits is not None and width != n_qubits:
            problem = f"dense Pauli {letters!r} has {width} characters, expected {n_qubits}"
        reverse = letters[::-1]  # int() reads the last qubit first
        x, z = int(reverse.translate(_X_DIGITS), 2), int(reverse.translate(_Z_DIGITS), 2)
        return x, z, width, True, problem
    limit = sys.maxsize if n_qubits is None else n_qubits
    x = z = width = 0
    problem = None
    for token in tokens:
        if token not in memo:  # read each distinct token once
            letter, digits = token[0], token[1:]
            if letter not in "XYZ" or not digits.isdecimal():  # isdecimal: what int() reads
                expected = "expected dense IXYZ text or sparse tokens like 'X0 Z3'"
                raise ValueError(f"cannot parse Pauli {text!r}: {expected}")
            memo[token] = int(digits), letter != "Z", letter != "X"
        idx, has_x, has_z = memo[token]
        if idx >= width:
            width = idx + 1
        if problem:
            continue
        if idx >= limit:
            problem = f"qubit index {idx} out of range for n={n_qubits}"
            continue
        bit = 1 << idx
        if (x | z) & bit:
            problem = f"duplicate qubit index {idx} in {text!r}"
            continue
        if has_x:
            x |= bit
        if has_z:
            z |= bit
    return x, z, width, False, problem


def _transpose(rows: Iterable[Sequence[int]], xs, zs) -> None:
    """Fill the columns of (x, z) rows in place: for each row r, set bit r
    of xs[q] for every qubit q set in its x, and of zs[q] for every q set in
    its z. xs and zs, lists or dicts, must hold every such q. Given the
    columns as rows, it fills the rows: the transpose is its own inverse."""
    for r, (x, z) in enumerate(rows):
        bit = 1 << r
        for cols, bits in ((xs, x), (zs, z)):
            while bits:
                low = bits & -bits
                cols[low.bit_length() - 1] |= bit
                bits ^= low


def block_commutes_all(
    x: int, z: int, members: Iterable[tuple[int, int]], starts: Sequence[int]
) -> bool:
    """True iff the string with bitmaps (x, z) block-commutes with every
    (mx, mz) in `members`, for blocks that begin at the increasing `starts`:
    a block's anticommuting bits have the parity of the suffixes at its start
    and at the next together, so all are even iff every suffix at a start
    is. The single start 0 makes the whole string one block."""
    for mx, mz in members:
        anti = (x & mz) ^ (z & mx)
        for s in starts:
            if not (suffix := anti >> s):  # so is every later one
                break
            if suffix.bit_count() & 1:
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
            if not block_commutes_all(x, z, (bits[b],), blocks.starts):
                return a, b
    return None


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff PQ = QP as operators (even symplectic inner product)."""
    if p.n_qubits != q.n_qubits:
        raise ValueError(f"qubit count mismatch: {p.n_qubits} vs {q.n_qubits}")
    return block_commutes_all(p.x_bits, p.z_bits, [(q.x_bits, q.z_bits)], (0,))


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
    return block_commutes_all(p.x_bits, p.z_bits, [(q.x_bits, q.z_bits)], blocks.starts)
