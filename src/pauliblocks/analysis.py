"""Block-size sweeps, threshold extraction, scaling studies, and counting
oracles for block-commuting Pauli sets.

A sweep groups one Hamiltonian at every requested block size k and records
the group count and the measurement-cost score per k. The threshold k* is
the smallest k at which the score first reaches its maximum (within a
relative tolerance) or the group count first reaches its minimum. Counting
helpers provide both closed forms and brute-force enumerations so each can
check the other.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from .clifford import _block_gate_lists, _depth
from .grouping import (
    _anti_rows,
    _column_fit,
    _columns,
    _order,
    _r_hat_of_groups,
    _relation_classes,
    _terms,
)
from .hamiltonians import Hamiltonian
from .paulis import BlockSpec, PauliString, block_commutes_all, restrict

__all__ = [
    "SweepRow",
    "KStarResult",
    "ScalingRow",
    "k_sweep",
    "find_k_star",
    "k_star_scaling",
    "count_block_commuting",
    "enumerate_block_commuting",
    "max_set_size_check",
    "count_linearly_independent_sets",
    "count_independent_commuting_sets",
    "diag_gate_lower_bound",
    "min_circuit_depth",
]


class _Row:
    def to_json_dict(self) -> dict:
        """The row's fields in declaration order, without optional columns
        that are None."""
        return {key: v for key, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class SweepRow(_Row):
    k: int
    num_groups: int
    r_hat: float
    max_block_circuit_gates: int | None = None
    max_block_circuit_depth: int | None = None


@dataclass(frozen=True)
class KStarResult:
    k_star_rhat: int
    k_star_groups: int


@dataclass(frozen=True)
class ScalingRow(_Row):
    n: int
    k_star_rhat: float
    k_star_groups: float
    k_star_rhat_std: float | None = None
    k_star_groups_std: float | None = None
    num_seeds: int | None = None


def _map(fn: Callable, items: list, jobs: int) -> list:
    """[fn(item) for item in items], on up to `jobs` worker processes when
    jobs > 1 and there is more than one item. No more workers start than
    there are items: under fork the pool starts all of them up front. The
    pool is imported only here: importing it loads multiprocessing, which
    serial runs need not."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _sweep_cell(args) -> list[SweepRow]:
    t, rows, order, classes, with_circuits = args
    out = []
    for ks in classes:
        # the ks of one class share a relation, so one grouping serves them all
        groups = _column_fit(rows, order, ks[0])
        r_hat = _r_hat_of_groups(t, groups)
        for k in ks:
            gates = depth = None
            if with_circuits:
                blocks = BlockSpec.uniform(k, t.n_qubits)
                gates = depth = 0
                for group in groups:
                    members = [PauliString(t.n_qubits, t.xs[i], t.zs[i]) for i in group]
                    for block_gates in _block_gate_lists(members, blocks):
                        gates = max(gates, len(block_gates))
                        depth = max(depth, _depth(block_gates))
            out.append(SweepRow(k, len(groups), r_hat, gates, depth))
    return out


def k_sweep(
    h: Hamiltonian,
    ks: Iterable[int],
    *,
    algorithm: str = "sorted",
    seed: int | None = None,
    with_circuits: bool = False,
    jobs: int = 1,
) -> list[SweepRow]:
    """One grouping per block size, computed once per class of block sizes
    under which every pair of terms block-commutes alike.

    Block sizes of one class give identical groups, so first fit runs once
    per class, at the class's smallest k. It runs on one anticommutation
    table, built once per sweep: for each term (in insertion order), masks
    over the terms of those it anticommutes with on an odd number of qubits
    and on a nonzero even number, and its qubit columns that hold an even
    partner. Groups are built one at a time: each takes the first remaining
    term, clears every term that fails to k-commute with it (its odd
    partners, and the even ones that some block splits), and takes the
    first term left, until none is; the groups equal first fit's.

    Rows come back ordered by k. When `with_circuits` is set, each row also
    reports the largest per-block diagonalization sub-circuit (gate count
    and greedy-layering depth) over that row's groups, synthesized under
    that row's own blocks. `jobs` > 1 hands each of up to `jobs` worker
    processes one stride of the classes together with the table, so the
    table is pickled once per worker; the merge order is by k regardless
    of scheduling.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValueError("no block sizes given")
    for k in ks:
        if not 1 <= k <= h.n_qubits:
            raise ValueError(f"block size {k} out of range [1, {h.n_qubits}]")
    t = _terms(h)  # built once, shared by every k
    order = _order(t, algorithm, seed)
    rows = _anti_rows(t, _columns(t, order), order)  # likewise
    classes = _relation_classes(rows, ks)
    cells = min(jobs, len(classes))
    tasks = [(t, rows, order, classes[j::cells], with_circuits) for j in range(cells)]
    out = [row for cell in _map(_sweep_cell, tasks, jobs) for row in cell]
    return sorted(out, key=lambda row: row.k)


def find_k_star(rows: Sequence[SweepRow], rel_tol: float = 1e-9) -> KStarResult:
    """Smallest k where r_hat first reaches its sweep maximum (within
    rel_tol) and smallest k where the group count first reaches its
    minimum."""
    if not rows:
        raise ValueError("empty sweep")
    if not 0 <= rel_tol < 1:  # also rejects NaN
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    best_r = max(r.r_hat for r in rows)
    fewest = min(r.num_groups for r in rows)
    k_rhat = min(r.k for r in rows if r.r_hat >= (1.0 - rel_tol) * best_r)
    k_groups = min(r.k for r in rows if r.num_groups == fewest)
    return KStarResult(k_rhat, k_groups)


def _scaling_cell(args) -> KStarResult:
    factory, n, seed, rel_tol = args
    h = factory(n) if seed is None else factory(n, seed)
    return find_k_star(k_sweep(h, range(1, n + 1)), rel_tol)


def k_star_scaling(
    factory: Callable,
    sizes: Iterable[int],
    *,
    seeds: Iterable[int] | None = None,
    rel_tol: float = 1e-9,
    jobs: int = 1,
) -> list[ScalingRow]:
    """Threshold block size per Hamiltonian size, each instance swept over
    k = 1..n with sorted insertion.

    For a deterministic family, `factory(n)` builds the instance and each
    row carries exact thresholds. For a randomized family pass `seeds`;
    `factory(n, seed)` builds each instance and rows carry the mean and
    population standard deviation over the seeds. A repeated size gives
    one row, at its first position.
    """
    sizes = list(dict.fromkeys(int(n) for n in sizes))
    if not sizes:
        raise ValueError("no sizes given")
    seed_list = None if seeds is None else [int(s) for s in seeds]
    if seed_list is not None and not seed_list:
        raise ValueError("empty seed list")
    per_size = [None] if seed_list is None else seed_list
    cells = [(factory, n, seed, rel_tol) for n in sizes for seed in per_size]
    results = _map(_scaling_cell, cells, jobs)

    rows = []
    for i, n in enumerate(sizes):
        # _map keeps the order of its cells, so each size is one slice
        found = results[i * len(per_size) : (i + 1) * len(per_size)]
        rs = [r.k_star_rhat for r in found]
        gs = [r.k_star_groups for r in found]
        if seed_list is None:
            rows.append(ScalingRow(n, rs[0], gs[0]))
        else:
            mean = (statistics.fmean(rs), statistics.fmean(gs))
            spread = (statistics.pstdev(rs), statistics.pstdev(gs), len(found))
            rows.append(ScalingRow(n, *mean, *spread))
    return rows


def count_block_commuting(p: PauliString, blocks: BlockSpec) -> int:
    """Closed-form count of phaseless strings block-commuting with p:
    4^n / 2^m for m blocks, independent of p.

    The formula presumes p acts non-trivially on every block; a block on
    which p restricts to the identity commutes with everything and breaks
    the count, so such inputs are rejected.
    """
    blocks.require_n(p.n_qubits)
    for idx, (start, stop) in enumerate(blocks.spans):
        if restrict(p, start, stop).is_identity:
            raise ValueError(
                f"p restricts to the identity on block {idx} "
                f"(qubits {start}..{stop - 1}); the closed form does not apply"
            )
    n, m = p.n_qubits, len(blocks)
    return 4**n // 2**m


def enumerate_block_commuting(p: PauliString, blocks: BlockSpec) -> int:
    """Brute-force count over all 4^n phaseless strings (n <= 8).

    Unlike the closed form, this accepts identity-restricted blocks and
    returns the true, larger count for them.
    """
    n = p.n_qubits
    if n > 8:
        raise ValueError(f"enumeration supports n <= 8, got {n}")
    blocks.require_n(n)
    # The anticommuting positions of q = (x, z) with p are a ^ b, where
    # a = x & p.z and b = z & p.x. Count the strings per (a, b) and test
    # each distinct pair once, on the representative string (a, b).
    a_counts = Counter(x & p.z_bits for x in range(1 << n))
    b_counts = Counter(z & p.x_bits for z in range(1 << n))
    return sum(
        ca * cb
        for a, ca in a_counts.items()
        for b, cb in b_counts.items()
        if block_commutes_all(a, b, ((p.x_bits, p.z_bits),), blocks.masks)
    )


def max_set_size_check(n: int, blocks: BlockSpec) -> int:
    """Construct and certify a largest block-commuting set (n <= 4).

    Per block, a maximal commuting set of restrictions is grown greedily
    from the full enumeration; the tensor-product set of these is then
    verified to be pairwise block-commuting, closed under phaseless
    multiplication, and non-extendable by any outside string. Returns the
    set size, which the theory pins at 2^n.
    """
    if n > 4:
        raise ValueError(f"exhaustive check supports n <= 4, got {n}")
    blocks.require_n(n)

    whole = (-1,)  # one block over every bit: plain commutation
    per_block: list[list[tuple[int, int]]] = []
    for start, stop in blocks.spans:
        width = stop - start
        chosen: list[tuple[int, int]] = []
        for x in range(1 << width):
            for z in range(1 << width):
                if block_commutes_all(x, z, chosen, whole):
                    chosen.append((x, z))
        per_block.append(chosen)

    members: list[tuple[int, int]] = [(0, 0)]
    for (start, _), options in zip(blocks.spans, per_block):
        members = [
            (x | (bx << start), z | (bz << start))
            for x, z in members
            for bx, bz in options
        ]
    member_set = set(members)

    for i in range(len(members)):
        if not block_commutes_all(*members[i], members[i + 1 :], blocks.masks):
            raise RuntimeError("product set is not pairwise block-commuting")
        for j in range(i + 1, len(members)):
            prod = (members[i][0] ^ members[j][0], members[i][1] ^ members[j][1])
            if prod not in member_set:
                raise RuntimeError("product set is not closed under multiplication")
    for x in range(1 << n):
        for z in range(1 << n):
            if (x, z) in member_set:
                continue
            if block_commutes_all(x, z, members, blocks.masks):
                raise RuntimeError("found an outside string extending the set")
    return len(members)


def count_linearly_independent_sets(dim: int, r: int) -> int:
    """Number of r-element sets of linearly independent vectors in a
    dim-dimensional binary vector space: (1/r!) * prod_{k<r} (2^dim - 2^k)."""
    if dim < 1 or not 1 <= r <= dim:
        raise ValueError(f"need 1 <= r <= dim, got r={r}, dim={dim}")
    product = 1
    for k in range(r):
        product *= 2**dim - 2**k
    sets, remainder = divmod(product, math.factorial(r))
    assert remainder == 0
    return sets


def count_independent_commuting_sets(n: int, r: int) -> int:
    """Number of r-element sets of independent, pairwise-commuting
    phaseless n-qubit strings: (1/r!) * prod_{k<r} (4^n/2^k - 2^k).

    Zero when r exceeds n, since a commuting subgroup has at most 2^n
    elements and therefore at most n independent generators.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    product = 1
    for k in range(r):
        product *= 4**n // 2**k - 2**k
    if product <= 0:
        return 0
    sets, remainder = divmod(product, math.factorial(r))
    assert remainder == 0
    return sets


def diag_gate_lower_bound(n: int, r: int) -> float:
    """Gate-count threshold below which some size-r independent commuting
    set on n qubits escapes simultaneous diagonalization by any {CNOT, H,
    S, I} circuit: sum_{k<r} log2(1 + 2^(n-k)) / log2(n^2 + n + 1).

    The numerator is log2 of the ratio between all independent commuting
    r-sets and the r-sets any single circuit can diagonalize (the
    linearly independent subsets of one 2^n-element commuting subgroup);
    the denominator counts the gate choices per step. The terms add left
    to right, m = n first, the same on every Python (builtin sum()
    compensates from 3.12 on). From m = 53 on each term is exactly m, so
    those terms add as one integer series, converted to float once: bit
    for bit the term-by-term sum while the series stays below 2^53, and
    rounded once instead of per term past it.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"n={n} exceeds sys.maxsize")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}")
    wide = max(n - r + 1, 53)  # 1 + 2^m rounds to 2^m from m = 53 on
    total = float((wide + n) * (n - wide + 1) // 2) if wide <= n else 0.0
    for m in range(min(n, 52), n - r, -1):
        total += math.log2(1 + 2**m)
    return total / math.log2(n * n + n + 1)


def min_circuit_depth(d_gates: float, n: int) -> int:
    """Minimum possible depth of an n-qubit circuit with d gates."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.ceil(d_gates / n)
