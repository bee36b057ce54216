"""Reference results and output checks that do not import pauliblocks.

The reference grouping uses a different algorithm from the library: it
keeps, for every qubit, a bitmask over the terms placed so far of those
with an X factor there and another of those with a Z factor, so one XOR per
support qubit yields the mask of earlier terms that an incoming term fails
to block-commute with. First fit then takes the first group whose member
mask is disjoint from it. It must agree with the library's pairwise first
fit group for group, which `golden.json` pins for the recorded seeds.

Every check raises `CheckFailed` with a reason; the caller counts it as a
failed call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics


class CheckFailed(ValueError):
    """The program's output disagrees with the reference or is malformed."""


def block_of(n: int, k: int) -> list[int]:
    """Block index of each qubit under uniform blocks of size k."""
    return [q // k for q in range(n)]


def block_sizes(n: int, k: int) -> list[int]:
    return [k] * (n // k) + ([n % k] if n % k else [])


def block_commutes(x1: int, z1: int, x2: int, z2: int, n: int, k: int) -> bool:
    """Even number of anticommuting positions inside every k-qubit block."""
    anti = (x1 & z2) ^ (z1 & x2)
    block = (1 << k) - 1
    while anti:
        if (anti & block).bit_count() & 1:
            return False
        anti >>= k
    return True


def sorted_order(coefficients) -> list[int]:
    """Decreasing |c|, ties by index: the order of sorted insertion."""
    return sorted(range(len(coefficients)), key=lambda i: -abs(coefficients[i]))


def first_fit(terms, n: int, k: int, order) -> list[list[int]]:
    """First-fit block-commuting grouping of (c, x, z) terms by conflict masks."""
    block = block_of(n, k)
    xcol = [0] * n
    zcol = [0] * n
    groups: list[list[int]] = []
    member_masks: list[int] = []
    for pos, i in enumerate(order):
        _, x, z = terms[i]
        parity: dict[int, int] = {}
        support = x | z
        rest = support
        while rest:
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            anti = (zcol[q] if x & low else 0) ^ (xcol[q] if z & low else 0)
            parity[block[q]] = parity.get(block[q], 0) ^ anti
        conflict = 0
        for mask in parity.values():
            conflict |= mask
        bit = 1 << pos
        for g, mask in enumerate(member_masks):
            if not mask & conflict:
                groups[g].append(i)
                member_masks[g] = mask | bit
                break
        else:
            groups.append([i])
            member_masks.append(bit)
        rest = support
        while rest:
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            if x & low:
                xcol[q] |= bit
            if z & low:
                zcol[q] |= bit
    return groups


def r_hat(coefficients, groups) -> float:
    """(sum |c| / sum over groups of the group's 2-norm)^2, summed exactly."""
    numerator = math.fsum(abs(c) for c in coefficients)
    denominator = math.fsum(
        math.sqrt(math.fsum(coefficients[i] ** 2 for i in g)) for g in groups
    )
    return (numerator / denominator) ** 2


def sweep_rows(terms, n: int, ks) -> list[tuple[int, int, float]]:
    """(k, group count, r_hat) of sorted insertion at each block size."""
    coefficients = [c for c, _, _ in terms]
    order = sorted_order(coefficients)
    rows = []
    for k in ks:
        groups = first_fit(terms, n, k, order)
        rows.append((k, len(groups), r_hat(coefficients, groups)))
    return rows


def find_k_star(rows, rel_tol: float = 1e-9) -> tuple[int, int]:
    best = max(r for _, _, r in rows)
    fewest = min(g for _, g, _ in rows)
    k_rhat = min(k for k, _, r in rows if r >= (1.0 - rel_tol) * best)
    k_groups = min(k for k, g, _ in rows if g == fewest)
    return k_rhat, k_groups


def library_random_terms(n: int, w: float, seed: int):
    """The terms `pauliblocks.random_hamiltonian(n, w, seed)` draws at the
    commit that added the benchmark, re-derived from its documented
    procedure. `kstar random` generates its own inputs this way, so the
    check pins that stream as well as the thresholds."""
    rng = random.Random(seed)
    seen = set()
    terms = []
    while len(terms) < n:
        t = min(max(round(rng.expovariate(1.0 / w)), 1), n)
        x = z = 0
        for q in rng.sample(range(n), t):
            letter = rng.choice("XYZ")
            if letter != "Z":
                x |= 1 << q
            if letter != "X":
                z |= 1 << q
        if (x, z) in seen:
            continue
        seen.add((x, z))
        terms.append((1.0, x, z))
    return terms


def kstar_rows(sizes, w: float, seed: int, seeds: int):
    """(n, mean k*_rhat, mean k*_groups, std, std, seeds) per size."""
    rows = []
    for n in sizes:
        found = [
            find_k_star(sweep_rows(library_random_terms(n, w, s), n, range(1, n + 1)))
            for s in range(seed, seed + seeds)
        ]
        rs = [r for r, _ in found]
        gs = [g for _, g in found]
        rows.append(
            (
                n,
                statistics.fmean(rs),
                statistics.fmean(gs),
                statistics.pstdev(rs),
                statistics.pstdev(gs),
                seeds,
            )
        )
    return rows


# ---------------------------------------------------------------- checks


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_group(text: str, terms, n: int, k: int, expected_groups: int) -> None:
    """Strict JSON; a partition of the term indices; every intra-group pair
    block-commutes; r_hat matches an exact recomputation; the group count
    matches the reference."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {
        "block_sizes",
        "groups",
        "r_hat",
        "num_groups",
    }:
        raise CheckFailed("unexpected JSON keys")
    if doc["block_sizes"] != block_sizes(n, k):
        raise CheckFailed(f"block sizes {doc['block_sizes']} for k={k}, n={n}")
    groups = doc["groups"]
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(len(terms))):
        raise CheckFailed("groups do not partition the term indices")
    for g in groups:
        bits = [terms[i][1:] for i in g]
        for a in range(len(bits)):
            for b in range(a + 1, len(bits)):
                if not block_commutes(*bits[a], *bits[b], n, k):
                    raise CheckFailed(f"terms {g[a]} and {g[b]} do not block-commute")
    if doc["num_groups"] != len(groups):
        raise CheckFailed("num_groups disagrees with the group list")
    if len(groups) != expected_groups:
        raise CheckFailed(f"{len(groups)} groups, reference has {expected_groups}")
    score = doc["r_hat"]
    expected = r_hat([c for c, _, _ in terms], groups)
    if not isinstance(score, (int, float)) or not _close(score, expected):
        raise CheckFailed(f"r_hat {score!r}, recomputed {expected!r}")


def _csv_rows(text: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != header:
        raise CheckFailed(f"CSV header {reader.fieldnames}, expected {header}")
    return list(reader)


def _check_table(text: str, header: list[str], expected) -> None:
    got = _csv_rows(text, header)
    if len(got) != len(expected):
        raise CheckFailed(f"{len(got)} CSV rows, expected {len(expected)}")
    for row, want in zip(got, expected):
        for name, value in zip(header, want):
            try:
                ok = _close(float(row[name]), float(value))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise CheckFailed(f"{name}={row[name]!r}, expected {value!r}")


def check_sweep(text: str, expected_rows) -> None:
    _check_table(text, ["k", "num_groups", "r_hat"], expected_rows)


def check_kstar(text: str, expected_rows) -> None:
    header = [
        "n",
        "k_star_rhat",
        "k_star_groups",
        "k_star_rhat_std",
        "k_star_groups_std",
        "num_seeds",
    ]
    _check_table(text, header, expected_rows)


def check_diag(text: str, members, n: int, k: int) -> None:
    """Replay the circuit text on every member (column-wise, all members at
    once): each must end Z-type, and no gate may leave its k-qubit block."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != f"qubits: {n}":
        raise CheckFailed(f"circuit header {lines[:1]}, expected 'qubits: {n}'")
    xcol = [0] * n
    zcol = [0] * n
    for m, (x, z) in enumerate(members):
        for q in range(n):
            xcol[q] |= ((x >> q) & 1) << m
            zcol[q] |= ((z >> q) & 1) << m
    for ln in lines[1:]:
        kind, *qubits = ln.split()
        try:
            qs = [int(q) for q in qubits]
        except ValueError:
            raise CheckFailed(f"bad gate line {ln!r}") from None
        arity = 2 if kind == "CNOT" else 1
        if kind not in ("H", "S", "CNOT") or len(qs) != arity:
            raise CheckFailed(f"bad gate line {ln!r}")
        if any(not 0 <= q < n for q in qs) or len(set(qs)) != arity:
            raise CheckFailed(f"bad qubits in {ln!r}")
        if len({q // k for q in qs}) != 1:
            raise CheckFailed(f"gate {ln!r} crosses a block boundary")
        if kind == "H":
            (q,) = qs
            xcol[q], zcol[q] = zcol[q], xcol[q]
        elif kind == "S":
            (q,) = qs
            zcol[q] ^= xcol[q]
        else:
            c, t = qs
            xcol[t] ^= xcol[c]
            zcol[c] ^= zcol[t]
    left = 0
    for col in xcol:
        left |= col
    if left:
        m = (left & -left).bit_length() - 1
        raise CheckFailed(f"member {m} is not diagonal after the circuit")
