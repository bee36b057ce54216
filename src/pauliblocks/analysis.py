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
import operator
import sys
from collections import Counter
from typing import Callable, Iterable, Sequence

from .grouping import _order, _sweep_groups, _terms
from .hamiltonians import Hamiltonian
from .paulis import BlockSpec, PauliString, _Frozen, block_commutes_all, restrict

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


class _Row(_Frozen):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The row's fields in order, without optional columns that are None."""
        return {key: v for key in self._fields if (v := getattr(self, key)) is not None}


class SweepRow(_Row):
    __slots__ = _fields = ("k", "num_groups", "r_hat",
                           "max_block_circuit_gates", "max_block_circuit_depth")

    def __init__(
        self, k: int, num_groups: int, r_hat: float, max_block_circuit_gates: int | None = None,
        max_block_circuit_depth: int | None = None,
    ):
        self._set("k", k)
        self._set("num_groups", num_groups)
        self._set("r_hat", r_hat)
        self._set("max_block_circuit_gates", max_block_circuit_gates)
        self._set("max_block_circuit_depth", max_block_circuit_depth)


class KStarResult(_Frozen):
    __slots__ = _fields = ("k_star_rhat", "k_star_groups")

    def __init__(self, k_star_rhat: int, k_star_groups: int):
        self._set("k_star_rhat", k_star_rhat)
        self._set("k_star_groups", k_star_groups)


class ScalingRow(_Row):
    __slots__ = _fields = ("n", "k_star_rhat", "k_star_groups",
                           "k_star_rhat_std", "k_star_groups_std", "num_seeds")

    def __init__(
        self, n: int, k_star_rhat: float, k_star_groups: float,
        k_star_rhat_std: float | None = None, k_star_groups_std: float | None = None,
        num_seeds: int | None = None,
    ):
        self._set("n", n)
        self._set("k_star_rhat", k_star_rhat)
        self._set("k_star_groups", k_star_groups)
        self._set("k_star_rhat_std", k_star_rhat_std)
        self._set("k_star_groups_std", k_star_groups_std)
        self._set("num_seeds", num_seeds)


def _map(fn: Callable, items: list, jobs: int) -> list:
    """[fn(item) for item in items], on up to `jobs` worker processes when
    jobs > 1 and there is more than one item. No more workers start than
    there are items: under fork the pool starts all of them up front. Each
    worker takes the items in chunks, about four per worker. The pool is
    imported only here: importing it loads multiprocessing, which serial
    runs need not."""
    if operator.index(jobs) < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(items))
        chunksize = math.ceil(len(items) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(item) for item in items]


def _circuit_cell(args) -> tuple[int, int]:
    """The largest per-block diagonalization sub-circuit over one k's
    groups, synthesized under that k's blocks: (gate count, depth)."""
    from .clifford import _block_gate_lists, _depth  # loaded only by sweeps with circuits

    n_qubits, xs, zs, k, groups = args
    starts = range(0, n_qubits, k)  # those of BlockSpec.uniform(k, n_qubits), in O(1)
    gates = depth = 0
    for group in groups:
        for block_gates in _block_gate_lists([(xs[i], zs[i]) for i in group], starts):
            gates = max(gates, len(block_gates))
            depth = max(depth, _depth(qubits for _, qubits in block_gates))
    return gates, depth


def k_sweep(
    h: Hamiltonian,
    ks: Iterable[int],
    *,
    algorithm: str = "sorted",
    seed: int | None = None,
    with_circuits: bool = False,
    jobs: int = 1,
) -> list[SweepRow]:
    """One row per block size, ordered by k, grouped in this process by one
    `grouping._sweep_groups` call (first fit's groups at every k).

    When `with_circuits` is set, each row also reports the largest
    per-block diagonalization sub-circuit (gate count and greedy-layering
    depth) over that row's groups, synthesized under that row's own blocks.
    Only that synthesis runs on worker processes: one cell per k on up to
    `jobs` of them, when jobs > 1 and there is more than one k. A sweep
    without circuits starts none.
    """
    ks = sorted(set(map(operator.index, ks)))
    if not ks:
        raise ValueError("no block sizes given")
    for k in ks:
        if not 1 <= k <= h.n_qubits:
            raise ValueError(f"block size {k} out of range [1, {h.n_qubits}]")
    t = _terms(h)
    order = _order(t, algorithm, seed)
    if operator.index(jobs) < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    swept = _sweep_groups(t, order, ks)
    if not with_circuits:
        return [SweepRow(k, len(groups), r_hat) for k, groups, r_hat in swept]
    cells = [(t.n_qubits, t.xs, t.zs, k, groups) for k, groups, _ in swept]
    circuits = _map(_circuit_cell, cells, jobs)
    return [SweepRow(k, len(g), r, *c) for (k, g, r), c in zip(swept, circuits)]


def find_k_star(rows: Sequence[SweepRow], rel_tol: float = 1e-9) -> KStarResult:
    """Smallest k where r_hat first reaches its sweep maximum (within
    rel_tol) and smallest k where the group count first reaches its
    minimum."""
    return _k_star([(r.k, r.num_groups, r.r_hat) for r in rows], rel_tol)


def _k_star(swept: Sequence[tuple[int, int, float]], rel_tol: float) -> KStarResult:
    """`find_k_star` on (k, group count, r_hat) triples."""
    if not swept:
        raise ValueError("empty sweep")
    if not 0 <= rel_tol < 1:  # also rejects NaN
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    best_r = max(r for _, _, r in swept)
    fewest = min(g for _, g, _ in swept)
    k_rhat = min(k for k, _, r in swept if r >= (1.0 - rel_tol) * best_r)
    k_groups = min(k for k, g, _ in swept if g == fewest)
    return KStarResult(k_rhat, k_groups)


def _scaling_cell(args) -> KStarResult:
    """k* of one instance over k = 1..n, from `_sweep_groups` itself: no row per k."""
    factory, n, seed, rel_tol = args
    t = _terms(factory(n) if seed is None else factory(n, seed))
    if n > t.n_qubits:  # as k_sweep refuses it
        raise ValueError(f"block size {t.n_qubits + 1} out of range [1, {t.n_qubits}]")
    swept = _sweep_groups(t, _order(t, "sorted", None), range(1, n + 1))
    return _k_star([(k, len(groups), r) for k, groups, r in swept], rel_tol)


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
    one row, at its first position. The instances run on up to `jobs`
    worker processes when jobs > 1 and there is more than one instance.
    """
    import statistics  # for the random family's mean and spread

    sizes = list(dict.fromkeys(map(operator.index, sizes)))
    if not sizes:
        raise ValueError("no sizes given")
    seed_list = None if seeds is None else list(map(operator.index, seeds))
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
        if block_commutes_all(a, b, ((p.x_bits, p.z_bits),), blocks.starts)
    )


def max_set_size_check(n: int, blocks: BlockSpec) -> int:
    """Construct and certify a largest block-commuting set (n <= 4).

    Per block, a maximal commuting set of restrictions is grown greedily
    from the full enumeration; the tensor-product set of these is then
    verified to be pairwise block-commuting, closed under phaseless
    multiplication, and non-extendable by any outside string. Returns the
    set size, which the theory pins at 2^n.
    """
    n = operator.index(n)
    if n > 4:
        raise ValueError(f"exhaustive check supports n <= 4, got {n}")
    blocks.require_n(n)

    whole = (0,)  # one block over every bit: plain commutation
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
        if not block_commutes_all(*members[i], members[i + 1 :], blocks.starts):
            raise RuntimeError("product set is not pairwise block-commuting")
        for j in range(i + 1, len(members)):
            prod = (members[i][0] ^ members[j][0], members[i][1] ^ members[j][1])
            if prod not in member_set:
                raise RuntimeError("product set is not closed under multiplication")
    for x in range(1 << n):
        for z in range(1 << n):
            if (x, z) in member_set:
                continue
            if block_commutes_all(x, z, members, blocks.starts):
                raise RuntimeError("found an outside string extending the set")
    return len(members)


def count_linearly_independent_sets(dim: int, r: int) -> int:
    """Number of r-element sets of linearly independent vectors in a
    dim-dimensional binary vector space: (1/r!) * prod_{k<r} (2^dim - 2^k)."""
    dim, r = operator.index(dim), operator.index(r)
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
    n, r = operator.index(n), operator.index(r)
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
    n, r = operator.index(n), operator.index(r)
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
    """Minimum possible depth of an n-qubit circuit with d gates: the
    ceiling of d / n, exact for an int d of any size."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= d_gates < math.inf:
        raise ValueError(f"gate count must be finite and non-negative, got {d_gates}")
    if isinstance(d_gates, int):
        return -(-d_gates // n)
    return math.ceil(d_gates / n)
