"""Block-commuting Pauli grouping for measurement reduction.

Groups Pauli-string Hamiltonian terms into sets that commute block by
block, scores the resulting measurement-cost reduction, synthesizes
verified per-block diagonalization circuits over {CNOT, H, S}, and sweeps
block sizes to locate the threshold where the reduction saturates.
"""

from .analysis import (
    KStarResult,
    ScalingRow,
    SweepRow,
    count_block_commuting,
    count_independent_commuting_sets,
    count_linearly_independent_sets,
    diag_gate_lower_bound,
    enumerate_block_commuting,
    find_k_star,
    k_star_scaling,
    k_sweep,
    max_set_size_check,
    min_circuit_depth,
)
from .clifford import (
    CliffordCircuit,
    Gate,
    Tableau,
    circuit_depth,
    circuit_from_text,
    circuit_to_text,
    conjugate,
    count_diagonalized,
    diagonalize_group,
    is_diagonal,
    per_block_circuits,
    random_circuit,
)
from .grouping import (
    Grouping,
    check_grouping,
    r_hat,
    random_insertion,
    sorted_insertion,
)
from .hamiltonians import (
    Hamiltonian,
    HamiltonianFileError,
    Term,
    bacon_shor,
    hamiltonian_to_text,
    hardcore_boson_1d,
    load_hamiltonian,
    random_hamiltonian,
    save_hamiltonian,
    tfim,
)
from .paulis import (
    BlockSpec,
    PauliString,
    commutes,
    k_commutes,
    parse_pauli,
    restrict,
)

__version__ = "0.1.0"
