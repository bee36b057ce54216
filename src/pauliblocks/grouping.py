"""Greedy partitioning of Hamiltonian terms into block-commuting groups.

Sorted insertion visits terms by decreasing coefficient magnitude and puts
each into the first existing group whose every member block-commutes with
it, opening a new group otherwise. Random insertion is the same first-fit
pass over a seeded random permutation of the terms.

A grouping's quality is scored by the squared ratio of the total absolute
coefficient mass to the sum of per-group Euclidean coefficient norms. The
score is 1 when every group is a singleton and equals the term count when
all equal-magnitude terms share one group.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Iterable, NamedTuple, Sequence

from .hamiltonians import Hamiltonian
from .paulis import BlockSpec, _Frozen, block_commutes_all, first_noncommuting_pair

__all__ = [
    "Grouping",
    "sorted_insertion",
    "random_insertion",
    "r_hat",
    "check_grouping",
]


class Grouping(_Frozen):
    """A partition of term indices into mutually block-commuting groups."""

    __slots__ = _fields = ("blocks", "groups", "r_hat")

    def __init__(self, blocks: BlockSpec, groups: tuple[tuple[int, ...], ...], r_hat: float):
        self._set("blocks", blocks)
        self._set("groups", tuple(tuple(g) for g in groups))
        self._set("r_hat", r_hat)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @classmethod
    def from_groups(
        cls,
        h: Hamiltonian,
        blocks: BlockSpec,
        groups: Iterable[Iterable[int]],
    ) -> "Grouping":
        """Build a grouping from explicit index groups, validating it before scoring."""
        frozen = tuple(tuple(g) for g in groups)
        if frozen:  # no groups at all is refused by the score, as "empty grouping"
            _require_partition(h, frozen)
            # plain ints, so that numpy integers reach JSON as numbers
            frozen = tuple(tuple(map(operator.index, g)) for g in frozen)
        out = cls(blocks, frozen, _r_hat_of_groups(_terms(h), frozen))
        check_grouping(h, out)
        return out

    def to_json_dict(self) -> dict:
        return {
            "block_sizes": list(self.blocks.sizes),
            "groups": [list(g) for g in self.groups],
            "r_hat": self.r_hat,
            "num_groups": self.num_groups,
        }


class _Terms(NamedTuple):
    """What every grouping of one Hamiltonian reads, whatever its blocks:
    a sweep builds it once and shares it across k."""

    n_qubits: int
    xs: list[int]  # x bitmap of each term
    zs: list[int]  # z bitmap of each term
    order: list[int]  # sorted insertion: decreasing |c|, ties by index
    scaled: list[float]  # coefficients times a power of two
    numerator: float  # sum of |scaled|, left to right


def _terms(h: Hamiltonian) -> _Terms:
    coeffs = h.coefficients()
    # The score is invariant under a common scale. Scaling by the power of
    # two that brings max|c| into [0.5, 1) is exact, so ordinary inputs score
    # bit for bit as before, and no sum overflows nor largest square underflows.
    e = math.frexp(max((abs(c) for c in coeffs), default=0.0))[1]
    scaled = [math.ldexp(c, -e) for c in coeffs]
    # Every sum in the score runs left to right with +=: builtin sum() is
    # compensated from Python 3.12 on and would change the last bits.
    numerator = 0.0
    for c in scaled:
        numerator += abs(c)
    xs = [t.pauli.x_bits for t in h.terms]
    zs = [t.pauli.z_bits for t in h.terms]
    order = sorted(range(h.num_terms), key=lambda i: -abs(coeffs[i]))
    return _Terms(h.n_qubits, xs, zs, order, scaled, numerator)


# qubit -> its (x, z, x ^ z) columns, masks over the terms by insertion rank
_Columns = dict[int, tuple[int, int, int]]


def _columns(t: _Terms, order: Sequence[int]) -> _Columns:
    """For each qubit some term acts on, its (x, z, x ^ z) columns: masks
    over the terms in insertion-rank space, bit r standing for term order[r].
    A string that is X on that qubit anticommutes there with the terms in
    the z column, Z with the x column and Y with the x ^ z column."""
    xcol: dict[int, int] = {}
    zcol: dict[int, int] = {}
    for r, i in enumerate(order):
        for col, bits in ((xcol, t.xs[i]), (zcol, t.zs[i])):
            while bits:
                low = bits & -bits
                q = low.bit_length() - 1
                col[q] = col.get(q, 0) | (1 << r)
                bits ^= low
    cols = {}
    for q in xcol.keys() | zcol.keys():
        xc, zc = xcol.get(q, 0), zcol.get(q, 0)
        cols[q] = (xc, zc, xc ^ zc)
    return cols


def _anti(cols: _Columns, x: int, z: int) -> list[tuple[int, int]]:
    """(qubit, mask of the terms anticommuting with (x, z) on that qubit) for
    each qubit in the support of (x, z), in increasing qubit order."""
    out = []
    bits = x | z
    while bits:
        low = bits & -bits
        q = low.bit_length() - 1
        xc, zc, yc = cols[q]
        out.append((q, (yc if z & low else zc) if x & low else xc))
        bits ^= low
    return out


def _anti_table(
    t: _Terms, order: Sequence[int]
) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]]]:
    """(antis, cuts) over the terms in `order`, for a sweep of block sizes.

    antis[r] is `_anti(cols, x, z)` of term order[r] over the columns
    `_columns(t, order)`: its pairs reference the columns' own ints, so the
    table grows linearly in the term count. cuts holds, sorted, every pair
    of consecutive split qubits of some term: the qubits whose column holds
    one of its even partners, the terms it anticommutes with on a nonzero
    even number of qubits.
    """
    cols = _columns(t, order)
    antis = []
    cuts: set[tuple[int, int]] = set()
    for i in order:
        anti = _anti(cols, t.xs[i], t.zs[i])
        hit = odd = 0
        for _, a in anti:
            hit |= a
            odd ^= a
        even = hit & ~odd
        qs = [q for q, a in anti if a & even]
        cuts.update(zip(qs, qs[1:]))
        antis.append(anti)
    return antis, sorted(cuts)


def _relation_classes(cuts: Sequence[tuple[int, int]], ks: Sequence[int]) -> list[list[int]]:
    """Split the uniform block sizes ks into classes under which every pair
    of terms block-commutes alike, each class in the order of ks.

    A pair that anticommutes on no position, or on an odd number of them,
    block-commutes the same way under every partition. A pair that
    anticommutes on an even number block-commutes when every block holds an
    even number of those positions. So only the cuts of `_anti_table`
    matter, and only whether each of them shares a block. Block sizes that
    keep the same cuts together share a relation, so first fit, sorted or
    seeded random, groups the terms identically under each of them.

    Block size k splits cut (a, b) exactly when a multiple of k lies in
    (a, b], so the cuts k splits are those covering one of its multiples:
    about n log n masks for n qubits, not one test per size and cut.
    """
    top = max((b for _, b in cuts), default=0)
    # each cut's bit is set from a + 1 and cleared from b + 1, so covers[m]
    # is the mask of the cuts (a, b) with a < m <= b
    edges = [0] * (top + 2)
    for i, (a, b) in enumerate(cuts):
        edges[a + 1] ^= 1 << i
        edges[b + 1] ^= 1 << i
    covers = list(itertools.accumulate(edges, operator.xor))
    classes: dict[int, list[int]] = {}
    for k in ks:
        split = 0
        for m in range(k, top + 1, k):
            split |= covers[m]
        classes.setdefault(split, []).append(k)
    return list(classes.values())


def _column_fit(
    antis: Sequence[list[tuple[int, int]]], order: Sequence[int], home: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The groups `_first_fit` makes under any contiguous partition, given
    as its `BlockSpec.home`, one group at a time on the antis of
    `_anti_table(t, order)`.

    A group takes the lowest remaining rank and drops from its candidates
    every term that fails to block-commute with it, then takes the lowest
    candidate left, and so on. So a term joins group g exactly when it
    conflicts with some member of each earlier group and with no earlier
    member of g, as in first fit. A term's conflicts are those that
    anticommute with it on an odd number of qubits of some block: the OR
    over blocks of the XOR of its columns in that block. The antis run in
    increasing qubit order, so each block's columns are consecutive.
    """
    groups = []
    remaining = (1 << len(order)) - 1
    while remaining:
        group = []
        candidates = remaining
        while candidates:
            low = candidates & -candidates
            r = low.bit_length() - 1
            group.append(order[r])
            remaining ^= low
            hit = parity = 0
            block = -1
            for q, a in antis[r]:
                if home[q] == block:
                    parity ^= a
                else:
                    hit |= parity
                    parity = a
                    block = home[q]
            candidates &= ~(hit | parity | low)
        groups.append(tuple(group))
    return tuple(groups)


def _sweep_groups(
    t: _Terms, order: Sequence[int], ks: Sequence[int]
) -> list[tuple[int, tuple[tuple[int, ...], ...], float]]:
    """(k, groups, r_hat) for each uniform block size k in ks, in
    increasing k: the groups `_first_fit` makes over `order`, and their score.

    One anticommutation table serves every k, and one column fit serves
    each class of block sizes under which every pair of terms
    block-commutes alike.
    """
    antis, cuts = _anti_table(t, order)
    out = []
    for ks_alike in _relation_classes(cuts, ks):
        k = ks_alike[0]  # block q // k, as in BlockSpec.uniform(k, n).home
        groups = _column_fit(antis, order, [q // k for q in range(t.n_qubits)])
        r_hat = _r_hat_of_groups(t, groups)
        out.extend((k, groups, r_hat) for k in ks_alike)
    return sorted(out, key=lambda swept: swept[0])


def _r_hat_of_groups(t: _Terms, groups: Sequence[Sequence[int]]) -> float:
    if not groups:
        raise ValueError("empty grouping")
    scaled = t.scaled
    denominator = 0.0
    for group in groups:
        squares = 0.0
        for i in group:
            squares += scaled[i] * scaled[i]
        denominator += math.sqrt(squares)
    return (t.numerator / denominator) ** 2


def r_hat(h: Hamiltonian, grouping: Grouping) -> float:
    """Measurement-cost reduction score of a grouping, recomputed from h."""
    _require_partition(h, grouping.groups)
    return _r_hat_of_groups(_terms(h), grouping.groups)


def _require_partition(h: Hamiltonian, groups: Sequence[Sequence[int]]) -> None:
    # operator.index takes ints and numpy integers but refuses a float, which
    # would pass the set comparison and then fail as a list index
    try:
        flat = [operator.index(i) for g in groups for i in g]
    except TypeError:
        flat = None
    if flat is None or len(flat) != h.num_terms or set(flat) != set(range(h.num_terms)):
        raise ValueError("groups do not form a partition of the term indices")


def check_grouping(h: Hamiltonian, grouping: Grouping) -> None:
    """Re-verify a grouping against its Hamiltonian from scratch.

    Checks the partition property and that every intra-group pair of
    Paulis block-commutes under the grouping's BlockSpec, independently of
    any bookkeeping done while the grouping was built.
    """
    grouping.blocks.require_n(h.n_qubits)
    _require_partition(h, grouping.groups)
    paulis = h.paulis()
    for group in grouping.groups:
        pair = first_noncommuting_pair([paulis[i] for i in group], grouping.blocks)
        if pair is not None:
            a, b = pair
            raise ValueError(f"terms {group[a]} and {group[b]} do not block-commute")


def _first_fit(t: _Terms, blocks: BlockSpec, order: Sequence[int]) -> Grouping:
    blocks.require_n(t.n_qubits)
    masks = blocks.masks
    xs, zs = t.xs, t.zs
    groups: list[list[int]] = []
    # cached (x, z) of each group's members, one kernel call per group
    group_bits: list[list[tuple[int, int]]] = []
    for i in order:
        x, z = xs[i], zs[i]
        for group, bits in zip(groups, group_bits):
            if block_commutes_all(x, z, bits, masks):
                group.append(i)
                bits.append((x, z))
                break
        else:
            groups.append([i])
            group_bits.append([(x, z)])
    return Grouping(blocks, groups, _r_hat_of_groups(t, groups))


def sorted_insertion(h: Hamiltonian, blocks: BlockSpec) -> Grouping:
    """Greedy first-fit grouping in decreasing |coefficient| order.

    Ties in magnitude are broken by original term index, so the result is
    deterministic.
    """
    t = _terms(h)
    return _first_fit(t, blocks, _order(t, "sorted", None))


def random_insertion(h: Hamiltonian, blocks: BlockSpec, seed: int) -> Grouping:
    """First-fit grouping over a seeded uniform random term order."""
    t = _terms(h)
    return _first_fit(t, blocks, _order(t, "random", seed))


def _order(t: _Terms, algorithm: str, seed: int | None) -> list[int]:
    """The term indices in the named insertion's order: "sorted", or
    "random" with a seed."""
    if algorithm == "sorted":
        order = t.order
    elif algorithm == "random":
        if seed is None:
            raise ValueError("random insertion requires a seed")
        order = list(range(len(t.xs)))
        random.Random(seed).shuffle(order)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not order:
        raise ValueError("cannot group an empty Hamiltonian")
    return order
