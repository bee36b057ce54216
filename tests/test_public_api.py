"""The package's public API, pinned so that a refactor cannot grow or
shrink it without changing this list."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pauliblocks
from pauliblocks import analysis, cli, clifford

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
    # dir() rather than vars(): the analysis and clifford names are in the
    # module's globals only once something has asked for them
    names = sorted(
        name for name in dir(pauliblocks)
        if not name.startswith("_")
        and not isinstance(getattr(pauliblocks, name), types.ModuleType)
    )
    assert names == PUBLIC


def test_dir_and_star_import_give_every_public_name():
    assert dir(pauliblocks) == PUBLIC
    # in a fresh interpreter, where no name has been loaded on first access
    code = "from pauliblocks import *\nprint(sorted(n for n in dir() if n[0] != '_'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert ast.literal_eval(result.stdout) == PUBLIC


@pytest.mark.parametrize("module", [analysis, clifford], ids=["analysis", "clifford"])
def test_each_lazy_name_is_its_modules_object(module):
    assert module.__all__  # the names that pauliblocks loads on first access
    for name in module.__all__:
        assert getattr(pauliblocks, name) is getattr(module, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        pauliblocks.no_such_name  # noqa: B018
    assert str(info.value) == "module 'pauliblocks' has no attribute 'no_such_name'"
    assert not hasattr(pauliblocks, "_no_such_name")


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
