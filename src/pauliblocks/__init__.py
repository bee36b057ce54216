"""Block-commuting Pauli grouping for measurement reduction.

Groups Pauli-string Hamiltonian terms into sets that commute block by
block, scores the resulting measurement-cost reduction, synthesizes
verified per-block diagonalization circuits over {CNOT, H, S}, and sweeps
block sizes to locate the threshold where the reduction saturates.

`import pauliblocks` loads `paulis`, `hamiltonians` and `grouping`, which
every command uses, and no `dataclasses`, `json` or `csv`. The names of
`analysis` (sweeps, thresholds, counting) and `clifford` (circuits) load
their module on first access (PEP 562), then stay plain module globals, so
a caller that needs neither never pays for them.
"""

from .grouping import Grouping, check_grouping, r_hat, random_insertion, sorted_insertion
from .hamiltonians import (
    Hamiltonian, HamiltonianFileError, Term, bacon_shor, hamiltonian_to_text,
    hardcore_boson_1d, load_hamiltonian, random_hamiltonian, save_hamiltonian, tfim,
)
from .paulis import BlockSpec, PauliString, commutes, k_commutes, parse_pauli, restrict

__version__ = "0.1.0"

# the submodule that defines each name loaded on first access
_LAZY = dict.fromkeys(
    (
        "KStarResult", "ScalingRow", "SweepRow", "count_block_commuting",
        "count_independent_commuting_sets", "count_linearly_independent_sets",
        "diag_gate_lower_bound", "enumerate_block_commuting", "find_k_star",
        "k_star_scaling", "k_sweep", "max_set_size_check", "min_circuit_depth",
    ),
    "analysis",
) | dict.fromkeys(
    (
        "CliffordCircuit", "Gate", "Tableau", "circuit_depth", "circuit_from_text",
        "circuit_to_text", "conjugate", "count_diagonalized", "diagonalize_group",
        "is_diagonal", "per_block_circuits", "random_circuit",
    ),
    "clifford",
)

__all__ = [
    "Grouping", "check_grouping", "r_hat", "random_insertion", "sorted_insertion",
    "Hamiltonian", "HamiltonianFileError", "Term", "bacon_shor",
    "hamiltonian_to_text", "hardcore_boson_1d", "load_hamiltonian",
    "random_hamiltonian", "save_hamiltonian", "tfim",
    "BlockSpec", "PauliString", "commutes", "k_commutes", "parse_pauli", "restrict",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
