"""Command-line front end: gen, group, sweep, kstar, bound, diag."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .analysis import (
    diag_gate_lower_bound,
    k_star_scaling,
    k_sweep,
    min_circuit_depth,
)
from .clifford import (
    Tableau,
    circuit_depth,
    circuit_to_text,
    conjugate,
    diagonalize_group,
    is_diagonal,
    per_block_circuits,
)
from .grouping import random_insertion, sorted_insertion
from .hamiltonians import (
    bacon_shor,
    hamiltonian_to_text,
    hardcore_boson_1d,
    load_hamiltonian,
    random_hamiltonian,
    tfim,
)
from .paulis import BlockSpec

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
    spec = BlockSpec([int(s) for s in args.blocks.split(",")])
    spec.require_n(n)
    return spec


def _parse_ks(text: str | None, n: int) -> list[int]:
    if text is None:
        return list(range(1, n + 1))
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _parse_sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _rows_to_text(dicts: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dicts, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(dicts[0].keys()))
    writer.writeheader()
    writer.writerows(dicts)
    return buf.getvalue()


def _make_family(args):
    if args.family == "bacon-shor":
        if args.rows is None or args.cols is None:
            raise ValueError("bacon-shor needs --rows and --cols")
        ordering = args.ordering.replace("-", "_")
        return bacon_shor(args.rows, args.cols, ordering)
    if args.n is None:
        raise ValueError(f"{args.family} needs --n")
    if args.family == "tfim":
        return tfim(args.n, args.j, args.g)
    if args.family == "hardcore-boson":
        return hardcore_boson_1d(args.n, args.t, args.g)
    if args.seed is None:
        raise ValueError("random family needs --seed")
    return random_hamiltonian(args.n, args.w, args.seed)


def _cmd_gen(args) -> int:
    h = _make_family(args)
    _write(hamiltonian_to_text(h), args.out)
    _status(f"generated {args.family}: n_qubits={h.n_qubits} terms={h.num_terms}")
    return 0


def _group_from_args(args, h):
    blocks = _blocks_from_args(args, h.n_qubits)
    if args.algorithm == "random":
        if args.seed is None:
            raise ValueError("random insertion requires --seed")
        return blocks, random_insertion(h, blocks, args.seed)
    return blocks, sorted_insertion(h, blocks)


def _cmd_group(args) -> int:
    h = load_hamiltonian(args.input)
    _, grouping = _group_from_args(args, h)
    text = json.dumps(grouping.to_json_dict(), indent=2, allow_nan=False)
    _write(text + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    h = load_hamiltonian(args.input)
    ks = _parse_ks(args.ks, h.n_qubits)
    if args.algorithm == "random" and args.seed is None:
        raise ValueError("random insertion requires --seed")
    rows = k_sweep(
        h,
        ks,
        algorithm=args.algorithm,
        seed=args.seed,
        with_circuits=args.with_circuits,
        jobs=args.jobs,
    )
    _write(_rows_to_text([r.to_json_dict() for r in rows], args.format), args.out)
    return 0


# kstar factories live at module level (with bound parameters via partial)
# so worker processes can unpickle them
def _square_bacon_shor(n: int):
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError(f"bacon-shor sizes must be perfect squares, got {n}")
    return bacon_shor(side, side)


def _tfim_factory(n: int, j: float, g: float):
    return tfim(n, j, g)


def _hardcore_factory(n: int, t: float, g: float):
    return hardcore_boson_1d(n, t, g)


def _random_factory(n: int, seed: int, w: float):
    return random_hamiltonian(n, w, seed)


def _cmd_kstar(args) -> int:
    sizes = _parse_sizes(args.sizes)
    seeds = None
    if args.family == "bacon-shor":
        factory = _square_bacon_shor
    elif args.family == "tfim":
        factory = functools.partial(_tfim_factory, j=args.j, g=args.g)
    elif args.family == "hardcore-boson":
        factory = functools.partial(_hardcore_factory, t=args.t, g=args.g)
    else:
        if args.seed is None:
            raise ValueError("random family needs --seed")
        seeds = range(args.seed, args.seed + args.seeds)
        factory = functools.partial(_random_factory, w=args.w)

    rows = k_star_scaling(
        factory, sizes, seeds=seeds, rel_tol=args.rel_tol, jobs=args.jobs
    )
    _write(_rows_to_text([r.to_json_dict() for r in rows], args.format), args.out)
    return 0


def _cmd_bound(args) -> int:
    bound = diag_gate_lower_bound(args.n, args.r)
    print(f"gate_count_bound = {bound!r}")
    print(f"depth_floor = {min_circuit_depth(bound, args.n)}")
    return 0


def _cmd_diag(args) -> int:
    h = load_hamiltonian(args.input)
    blocks, grouping = _group_from_args(args, h)
    if not 0 <= args.group_index < grouping.num_groups:
        raise ValueError(
            f"group index {args.group_index} out of range; "
            f"grouping has {grouping.num_groups} groups"
        )
    paulis = h.paulis()
    members = [paulis[i] for i in grouping.groups[args.group_index]]
    circuit = diagonalize_group(members, blocks)

    # refuse to emit anything that fails verification
    tableau = Tableau.from_circuit(circuit)
    if not tableau.is_symplectic():
        raise ValueError("verification failed: tableau is not symplectic")
    for p in members:
        if not is_diagonal(tableau.apply(p)) or not is_diagonal(conjugate(circuit, p)):
            raise ValueError(f"verification failed: {p} is not diagonalized")
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

    gen = sub.add_parser("gen", help="generate a model Hamiltonian term-list file")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--rows", type=int, help="lattice rows (bacon-shor)")
    gen.add_argument("--cols", type=int, help="lattice columns (bacon-shor)")
    gen.add_argument(
        "--ordering",
        choices=("column-major", "row-major"),
        default="column-major",
        help="qubit layout for bacon-shor",
    )
    gen.add_argument("--n", type=int, help="qubit count (tfim, hardcore-boson, random)")
    gen.add_argument("--j", type=float, default=1.0, help="ZZ coupling (tfim)")
    gen.add_argument("--g", type=float, default=1.0, help="field / site energy")
    gen.add_argument("--t", type=float, default=2.0, help="hopping (hardcore-boson)")
    gen.add_argument("--w", type=float, default=2.0, help="mean term weight (random)")
    gen.add_argument("--seed", type=int, help="seed (random family)")
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    group = sub.add_parser("group", help="group terms into block-commuting sets")
    group.add_argument("input", help="term-list file")
    group.add_argument("--k", type=int, help="uniform block size")
    group.add_argument("--blocks", help="comma-separated block sizes, e.g. 2,2,1")
    group.add_argument("--algorithm", choices=("sorted", "random"), default="sorted")
    group.add_argument("--seed", type=int, help="seed for random insertion")
    group.add_argument("--out", help="output path (default stdout)")
    group.set_defaults(func=_cmd_group)

    sweep = sub.add_parser("sweep", help="group at every block size and tabulate")
    sweep.add_argument("input", help="term-list file")
    sweep.add_argument("--ks", help="block sizes: 'LO..HI' or comma list (default 1..n)")
    sweep.add_argument("--algorithm", choices=("sorted", "random"), default="sorted")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument(
        "--with-circuits",
        action="store_true",
        help="also report the largest per-block diagonalization circuit per row",
    )
    sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", help="output path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    kstar = sub.add_parser("kstar", help="threshold block size across model sizes")
    kstar.add_argument("family", choices=FAMILIES)
    kstar.add_argument("--sizes", required=True, help="comma-separated qubit counts")
    kstar.add_argument("--j", type=float, default=1.0)
    kstar.add_argument("--g", type=float, default=1.0)
    kstar.add_argument("--t", type=float, default=2.0)
    kstar.add_argument("--w", type=float, default=2.0)
    kstar.add_argument("--seed", type=int, help="base seed (random family)")
    kstar.add_argument(
        "--seeds", type=int, default=50, help="instances per size (random family)"
    )
    kstar.add_argument("--rel-tol", type=float, default=1e-9)
    kstar.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    kstar.add_argument("--format", choices=("csv", "json"), default="csv")
    kstar.add_argument("--out", help="output path (default stdout)")
    kstar.set_defaults(func=_cmd_kstar)

    bound = sub.add_parser(
        "bound", help="diagonalization gate-count threshold for n qubits, r Paulis"
    )
    bound.add_argument("--n", type=int, required=True)
    bound.add_argument("--r", type=int, required=True)
    bound.set_defaults(func=_cmd_bound)

    diag = sub.add_parser(
        "diag", help="synthesize and verify a diagonalization circuit for one group"
    )
    diag.add_argument("input", help="term-list file")
    diag.add_argument("--k", type=int, help="uniform block size")
    diag.add_argument("--blocks", help="comma-separated block sizes")
    diag.add_argument("--group-index", type=int, default=0)
    diag.add_argument("--algorithm", choices=("sorted", "random"), default="sorted")
    diag.add_argument("--seed", type=int)
    diag.add_argument("--out", help="output path (default stdout)")
    diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
