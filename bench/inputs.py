"""Seeded workload inputs, written with the standard library only.

The generators here do not call pauliblocks, so a change to the library's
own generators cannot change what the benchmark feeds it. Terms are
(coefficient, x_bits, z_bits) triples in the library's bit convention:
bit q of x is set for X or Y on qubit q, bit q of z for Z or Y, and qubit 0
is the leftmost character of a dense string.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
# Not used while the benchmark or a change is developed; a speed-up claim
# must also hold on this seed.
HELD_OUT_SEED = 2312


def workload_rng(workload: str, seed: int) -> random.Random:
    """One independent stream per (workload, seed); str seeds are stable."""
    return random.Random(f"{workload}:{seed}")


def sparse_hamiltonian(rng: random.Random, n: int, terms: int, max_weight: int = 6):
    """`terms` distinct strings of weight 1..max_weight with signed
    log-uniform coefficient magnitudes in [1e-3, 1)."""
    seen = set()
    out = []
    while len(out) < terms:
        x = z = 0
        for q in rng.sample(range(n), rng.randint(1, max_weight)):
            letter = rng.randrange(1, 4)  # 1 = X, 2 = Z, 3 = Y
            if letter & 1:
                x |= 1 << q
            if letter & 2:
                z |= 1 << q
        if (x, z) in seen:
            continue
        seen.add((x, z))
        magnitude = 10.0 ** rng.uniform(-3.0, 0.0)
        out.append((rng.choice((-1.0, 1.0)) * magnitude, x, z))
    return out


def dense_commuting(rng: random.Random, n: int):
    """n commuting dense strings plus 2n random dense distractors.

    The commuting set is Z_0..Z_{n-1} conjugated by a random {H, S, CNOT}
    circuit of 4n^2 gates, tracked column-wise: xcol[q] and zcol[q] are
    bitmasks over the n strings. Its coefficients have magnitude in [1, 2);
    the distractors' lie in [0.01, 0.1), so sorted insertion places the
    whole commuting set in group 0.
    """
    xcol = [0] * n
    zcol = [1 << q for q in range(n)]
    for _ in range(4 * n * n):
        kind = rng.randrange(3)
        if kind == 0:
            q = rng.randrange(n)
            xcol[q], zcol[q] = zcol[q], xcol[q]
        elif kind == 1:
            q = rng.randrange(n)
            zcol[q] ^= xcol[q]
        else:
            c, t = rng.sample(range(n), 2)
            xcol[t] ^= xcol[c]
            zcol[c] ^= zcol[t]
    members = []
    for i in range(n):
        x = sum(((xcol[q] >> i) & 1) << q for q in range(n))
        z = sum(((zcol[q] >> i) & 1) << q for q in range(n))
        members.append((x, z))
    seen = set(members)
    out = [(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0), x, z) for x, z in members]
    while len(out) < 3 * n:
        x, z = rng.getrandbits(n), rng.getrandbits(n)
        if (x, z) in seen or not (x | z):
            continue
        seen.add((x, z))
        out.append((rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.1), x, z))
    return out


def _pauli_char(x: int, z: int, q: int) -> str:
    return "IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)]


def term_file_text(n: int, terms, dense: bool) -> str:
    """A `qubits:`-headed term-list file in dense or sparse notation."""
    lines = [f"qubits: {n}"]
    for c, x, z in terms:
        if dense:
            pauli = "".join(_pauli_char(x, z, q) for q in range(n))
        else:
            pauli = " ".join(
                f"{_pauli_char(x, z, q)}{q}" for q in range(n) if (x | z) >> q & 1
            )
        lines.append(f"{c!r} {pauli}")
    return "\n".join(lines) + "\n"
