"""The package's public API, pinned so that a refactor cannot grow or
shrink it without changing this list."""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import pauliblocks
from pauliblocks import cli

# every name `import pauliblocks` exposes that is neither private nor a module
PUBLIC = [
    "BlockSpec", "CliffordCircuit", "Gate", "Grouping", "Hamiltonian",
    "HamiltonianFileError", "KStarResult", "PauliString", "ScalingRow", "SweepRow",
    "Tableau", "Term", "bacon_shor", "check_grouping", "circuit_depth",
    "circuit_from_text", "circuit_to_text", "commutes", "conjugate",
    "count_block_commuting", "count_diagonalized",
    "count_independent_commuting_sets", "count_linearly_independent_sets",
    "diag_gate_lower_bound", "diagonalize_group", "enumerate_block_commuting",
    "find_k_star", "hamiltonian_to_text", "hardcore_boson_1d", "is_diagonal",
    "k_commutes", "k_star_scaling", "k_sweep", "load_hamiltonian",
    "max_set_size_check", "min_circuit_depth", "parse_pauli", "per_block_circuits",
    "r_hat", "random_circuit", "random_hamiltonian", "random_insertion", "restrict",
    "save_hamiltonian", "sorted_insertion", "tfim",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(pauliblocks).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def test_cli_imports_no_private_name_from_the_package():
    """The command line reaches the package through its public functions."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = []  # the dotted path of every name cli.py takes from the package
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.startswith("pauliblocks")
        ):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.startswith("pauliblocks")]
    assert imported, "found no import from the package"
    private = [p for p in imported if any(s.startswith("_") for s in p.split("."))]
    assert private == []


def test_readme_library_quickstart_runs_as_written(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(
        r"## Library quickstart\n\n```python\n(.*?)```",
        readme.read_text(encoding="utf-8"),
        re.S,
    ).group(1)
    namespace: dict = {}
    exec(compile(block, str(readme), "exec"), namespace)
    h, grouping = namespace["h"], namespace["grouping"]
    assert (h.num_terms, h.n_qubits) == (6, 16)
    assert grouping.num_groups == 1
    assert capsys.readouterr().out == "KStarResult(k_star_rhat=4, k_star_groups=4)\n"
