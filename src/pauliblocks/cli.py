"""Command-line front end: gen, group, sweep, kstar, bound, diag.

A command imports `analysis` or `clifford` first thing, and only if it uses
them, so `group` loads neither and no out-of-memory error arrives mid-import.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys

from .grouping import random_insertion, sorted_insertion
from .hamiltonians import (
    bacon_shor,
    hamiltonian_to_text,
    hardcore_boson_1d,
    load_hamiltonian,
    random_hamiltonian,
    tfim,
)
from .paulis import BlockSpec, PauliString

FAMILIES = ("bacon-shor", "tfim", "hardcore-boson", "random")


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _blocks_from_args(args, n: int) -> BlockSpec:
    if (args.k is None) == (args.blocks is None):
        raise ValueError("give exactly one of --k or --blocks")
    if args.k is not None:
        return BlockSpec.uniform(args.k, n)
    sizes = _parse_sizes(args.blocks)
    if sum(sizes) != n:  # before BlockSpec builds a home entry per qubit
        raise ValueError(f"block sizes sum to {sum(sizes)}, expected {n}")
    return BlockSpec(sizes)


def _parse_ks(text: str | None, n: int) -> list[int]:
    if text is None:
        return list(range(1, n + 1))
    if ".." in text:
        lo, hi = (int(s) for s in text.split("..", 1))
        if lo <= hi and (lo < 1 or hi > n):
            # fail before building the list, naming the k that k_sweep would
            bad = lo if lo < 1 else max(lo, n + 1)
            raise ValueError(f"block size {bad} out of range [1, {n}]")
        return list(range(lo, hi + 1))
    return _parse_sizes(text)


def _parse_sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _json_text(doc) -> str:
    import json  # like csv, loaded only by the commands that print it
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _rows_to_text(rows: list, fmt: str) -> str:
    dicts = [r.to_json_dict() for r in rows]
    if fmt == "json":
        return _json_text(dicts)
    import csv
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(dicts[0].keys()))
    writer.writeheader()
    writer.writerows(dicts)
    return buf.getvalue()


# family factories are picklable (module-level functions, or partials of
# them) so kstar worker processes can unpickle them
def _square_bacon_shor(n: int):
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(f"bacon-shor sizes must be perfect squares, got {n}")
    return bacon_shor(side, side)


def _random_factory(n: int, seed: int, w: float):
    return random_hamiltonian(n, w, seed)


def _family_factory(args):
    """factory(n) building one instance of the family, or factory(n, seed)
    for the random family."""
    if args.family == "bacon-shor":
        return _square_bacon_shor
    if args.family == "tfim":
        return functools.partial(tfim, j=args.j, g=args.g)
    if args.family == "hardcore-boson":
        return functools.partial(hardcore_boson_1d, t=args.t, g=args.g)
    if args.seed is None:
        raise ValueError("random family needs --seed")
    return functools.partial(_random_factory, w=args.w)


def _cmd_gen(args) -> int:
    if args.family == "bacon-shor":
        if args.rows is None or args.cols is None:
            raise ValueError("bacon-shor needs --rows and --cols")
        h = bacon_shor(args.rows, args.cols, args.ordering.replace("-", "_"))
    elif args.n is None:
        raise ValueError(f"{args.family} needs --n")
    else:
        factory = _family_factory(args)
        h = factory(args.n, args.seed) if args.family == "random" else factory(args.n)
    _write(hamiltonian_to_text(h), args.out)
    _status(f"generated {args.family}: n_qubits={h.n_qubits} terms={h.num_terms}")
    return 0


def _require_seed(args) -> None:
    if args.algorithm == "random" and args.seed is None:
        raise ValueError("random insertion requires --seed")


def _group_from_args(args, h):
    blocks = _blocks_from_args(args, h.n_qubits)
    _require_seed(args)
    if args.algorithm == "random":
        return blocks, random_insertion(h, blocks, args.seed)
    return blocks, sorted_insertion(h, blocks)


def _cmd_group(args) -> int:
    h = load_hamiltonian(args.input)
    _, grouping = _group_from_args(args, h)
    _write(_json_text(grouping.to_json_dict()), args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .analysis import k_sweep

    h = load_hamiltonian(args.input)
    ks = _parse_ks(args.ks, h.n_qubits)
    _require_seed(args)
    rows = k_sweep(
        h,
        ks,
        algorithm=args.algorithm,
        seed=args.seed,
        with_circuits=args.with_circuits,
        jobs=args.jobs,
    )
    _write(_rows_to_text(rows, args.format), args.out)
    return 0


def _cmd_kstar(args) -> int:
    from .analysis import k_star_scaling

    sizes = _parse_sizes(args.sizes)
    factory = _family_factory(args)
    seeds = None
    if args.family == "random":
        seeds = range(args.seed, args.seed + args.seeds)
    rows = k_star_scaling(
        factory, sizes, seeds=seeds, rel_tol=args.rel_tol, jobs=args.jobs
    )
    _write(_rows_to_text(rows, args.format), args.out)
    return 0


def _cmd_bound(args) -> int:
    from .analysis import diag_gate_lower_bound, min_circuit_depth

    bound = diag_gate_lower_bound(args.n, args.r)
    print(f"gate_count_bound = {bound!r}")
    print(f"depth_floor = {min_circuit_depth(bound, args.n)}")
    return 0


def _cmd_diag(args) -> int:
    from .clifford import (
        Tableau, circuit_depth, circuit_to_text, conjugate, diagonalize_group,
        is_diagonal, per_block_circuits,
    )

    h = load_hamiltonian(args.input)
    blocks, grouping = _group_from_args(args, h)
    if not 0 <= args.group_index < grouping.num_groups:
        raise ValueError(
            f"group index {args.group_index} out of range; "
            f"grouping has {grouping.num_groups} groups"
        )
    _, xs, zs = h._columns  # strings for the group's members only
    members = [PauliString(h.n_qubits, xs[i], zs[i]) for i in grouping.groups[args.group_index]]
    circuit = diagonalize_group(members, blocks)

    # refuse to emit anything that fails verification
    tableau = Tableau.from_circuit(circuit)
    if not tableau.is_symplectic():
        raise ValueError("verification failed: tableau is not symplectic")
    for i, p in zip(grouping.groups[args.group_index], members):  # name the term, not the string
        if not is_diagonal(tableau.apply(p)) or not is_diagonal(conjugate(circuit, p)):
            raise ValueError(f"verification failed: term {i} is not diagonalized")
    per_block_circuits(circuit, blocks)  # raises if a gate crosses blocks

    _write(circuit_to_text(circuit), args.out)
    _status(
        f"diagonalized group {args.group_index}: members={len(members)} "
        f"gates={circuit.gate_count} depth={circuit_depth(circuit)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliblocks",
        description=(
            "Group Pauli Hamiltonian terms into block-commuting sets, score "
            "the measurement-cost reduction, and synthesize verified "
            "per-block diagonalization circuits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each declared once
    options = functools.partial(argparse.ArgumentParser, add_help=False)

    terms = options()
    terms.add_argument("input", help="term-list file")
    blocks = options()
    blocks.add_argument("--k", type=int, help="uniform block size")
    blocks.add_argument("--blocks", help="comma-separated block sizes, e.g. 2,2,1")
    insertion = options()
    insertion.add_argument("--algorithm", choices=("sorted", "random"), default="sorted")
    insertion.add_argument("--seed", type=int, help="seed for random insertion")
    family = options()
    family.add_argument("family", choices=FAMILIES)
    family.add_argument("--j", type=float, default=1.0, help="ZZ coupling (tfim)")
    family.add_argument("--g", type=float, default=1.0, help="field / site energy")
    family.add_argument("--t", type=float, default=2.0, help="hopping (hardcore-boson)")
    family.add_argument("--w", type=float, default=2.0, help="mean term weight (random)")
    table = options()
    table.add_argument(
        "--jobs", type=int, default=1, help="worker processes; 1 starts none (default 1)"
    )
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    out = options()
    out.add_argument("--out", help="output path (default stdout)")

    gen = sub.add_parser(
        "gen", parents=[family, out], help="generate a model Hamiltonian term-list file"
    )
    gen.add_argument("--rows", type=int, help="lattice rows (bacon-shor)")
    gen.add_argument("--cols", type=int, help="lattice columns (bacon-shor)")
    gen.add_argument(
        "--ordering",
        choices=("column-major", "row-major"),
        default="column-major",
        help="qubit layout for bacon-shor",
    )
    gen.add_argument("--n", type=int, help="qubit count (tfim, hardcore-boson, random)")
    gen.add_argument("--seed", type=int, help="seed (random family)")
    gen.set_defaults(func=_cmd_gen)

    group = sub.add_parser(
        "group",
        parents=[terms, blocks, insertion, out],
        help="group terms into block-commuting sets",
    )
    group.set_defaults(func=_cmd_group)

    sweep = sub.add_parser(
        "sweep",
        parents=[terms, insertion, table, out],
        help="group at every block size and tabulate",
    )
    sweep.add_argument("--ks", help="block sizes: 'LO..HI' or comma list (default 1..n)")
    sweep.add_argument(
        "--with-circuits",
        action="store_true",
        help="also report the largest per-block diagonalization circuit per row",
    )
    sweep.set_defaults(func=_cmd_sweep)

    kstar = sub.add_parser(
        "kstar",
        parents=[family, table, out],
        help="threshold block size across model sizes",
    )
    kstar.add_argument("--sizes", required=True, help="comma-separated qubit counts")
    kstar.add_argument("--seed", type=int, help="base seed (random family)")
    kstar.add_argument(
        "--seeds", type=int, default=50, help="instances per size (random family)"
    )
    kstar.add_argument("--rel-tol", type=float, default=1e-9)
    kstar.set_defaults(func=_cmd_kstar)

    bound = sub.add_parser(
        "bound", help="diagonalization gate-count threshold for n qubits, r Paulis"
    )
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--r", type=int, required=True)
    bound.set_defaults(func=_cmd_bound)

    diag = sub.add_parser(
        "diag",
        parents=[terms, blocks, insertion, out],
        help="synthesize and verify a diagonalization circuit for one group",
    )
    diag.add_argument("--group-index", type=int, default=0)
    diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 1
    except Exception as exc:  # a library error, a broken pool's included
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
