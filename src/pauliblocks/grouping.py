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

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .hamiltonians import Hamiltonian
from .paulis import BlockSpec, block_commutes_all, first_noncommuting_pair

__all__ = [
    "Grouping",
    "sorted_insertion",
    "random_insertion",
    "r_hat",
    "check_grouping",
]


@dataclass(frozen=True)
class Grouping:
    """A partition of term indices into mutually block-commuting groups."""

    blocks: BlockSpec
    groups: tuple[tuple[int, ...], ...]
    r_hat: float

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
        """Build a grouping from explicit index groups, validating it."""
        frozen = tuple(tuple(g) for g in groups)
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
    a sweep builds it once and shares it across k, and across processes."""

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
    flat = [i for g in groups for i in g]
    if len(flat) != h.num_terms or set(flat) != set(range(h.num_terms)):
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
    if not t.xs:
        raise ValueError("cannot group an empty Hamiltonian")
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
    frozen = tuple(tuple(g) for g in groups)
    return Grouping(blocks, frozen, _r_hat_of_groups(t, frozen))


def sorted_insertion(h: Hamiltonian, blocks: BlockSpec) -> Grouping:
    """Greedy first-fit grouping in decreasing |coefficient| order.

    Ties in magnitude are broken by original term index, so the result is
    deterministic.
    """
    return _insertion(_terms(h), blocks, "sorted", None)


def random_insertion(h: Hamiltonian, blocks: BlockSpec, seed: int) -> Grouping:
    """First-fit grouping over a seeded uniform random term order."""
    return _insertion(_terms(h), blocks, "random", seed)


def _insertion(
    t: _Terms, blocks: BlockSpec, algorithm: str, seed: int | None
) -> Grouping:
    """Group with the named insertion: "sorted", or "random" with a seed."""
    if algorithm == "sorted":
        return _first_fit(t, blocks, t.order)
    if algorithm == "random":
        if seed is None:
            raise ValueError("random insertion requires a seed")
        order = list(range(len(t.xs)))
        random.Random(seed).shuffle(order)
        return _first_fit(t, blocks, order)
    raise ValueError(f"unknown algorithm {algorithm!r}")
