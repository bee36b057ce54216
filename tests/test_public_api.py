"""The package's public API, pinned so that a refactor cannot grow or
shrink it without changing this list."""

from __future__ import annotations

import types

import pauliblocks

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
