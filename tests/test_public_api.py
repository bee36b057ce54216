"""The package's public API, pinned so that a refactor cannot grow or
shrink it without changing this list."""

from __future__ import annotations

import ast
import copy
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

import pytest

import pauliblocks
from pauliblocks import (
    BlockSpec, CliffordCircuit, Gate, Grouping, Hamiltonian, KStarResult, PauliString,
    ScalingRow, SweepRow, Tableau, Term, analysis, cli, clifford,
)

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


# ---------------------------------------------------------------------------
# The value types' contract: construction, equality, hashing, repr, pickling
# and immutability. The reprs were recorded while the types were dataclasses.

XI, IZ = PauliString(2, 1, 0), PauliString(2, 0, 2)
H0, CNOT02 = Gate("H", (0,)), Gate("CNOT", (0, 2))
TERMS = (Term(0.5, XI), Term(-1.0, IZ))


class Contract(NamedTuple):
    cls: type
    kwargs: dict  # every constructor argument by keyword, in positional order
    defaults: dict  # the arguments that may be left out, and their values
    repr: str
    last: object  # another value of the last argument, giving an unequal instance

    @property
    def args(self) -> tuple:
        return tuple(self.kwargs.values())

    @property
    def other(self) -> tuple:
        return (*self.args[:-1], self.last)


CONTRACTS = [
    Contract(
        PauliString, dict(n_qubits=3, x_bits=5, z_bits=6), dict(x_bits=0, z_bits=0),
        "PauliString('XZY')", 2,
    ),
    Contract(BlockSpec, dict(sizes=(1, 2)), {}, "BlockSpec((1, 2))", (2, 1)),
    Contract(
        Term, dict(coefficient=0.5, pauli=XI), {},
        "Term(coefficient=0.5, pauli=PauliString('XI'))", IZ,
    ),
    Contract(
        Hamiltonian, dict(n_qubits=2, terms=TERMS, offset=0.25), dict(offset=0.0),
        "Hamiltonian(n_qubits=2, terms=(Term(coefficient=0.5, pauli=PauliString('XI')), "
        "Term(coefficient=-1.0, pauli=PauliString('IZ'))), offset=0.25)",
        0.5,
    ),
    Contract(
        Grouping, dict(blocks=BlockSpec((2,)), groups=((0, 1),), r_hat=2.0), {},
        "Grouping(blocks=BlockSpec((2,)), groups=((0, 1),), r_hat=2.0)", 1.0,
    ),
    Contract(
        SweepRow,
        dict(k=3, num_groups=2, r_hat=1.5, max_block_circuit_gates=7, max_block_circuit_depth=4),
        dict(max_block_circuit_gates=None, max_block_circuit_depth=None),
        "SweepRow(k=3, num_groups=2, r_hat=1.5, max_block_circuit_gates=7, "
        "max_block_circuit_depth=4)",
        5,
    ),
    Contract(
        KStarResult, dict(k_star_rhat=4, k_star_groups=2), {},
        "KStarResult(k_star_rhat=4, k_star_groups=2)", 3,
    ),
    Contract(
        ScalingRow,
        dict(
            n=8, k_star_rhat=4.5, k_star_groups=3.0, k_star_rhat_std=0.5,
            k_star_groups_std=1.0, num_seeds=3,
        ),
        dict(k_star_rhat_std=None, k_star_groups_std=None, num_seeds=None),
        "ScalingRow(n=8, k_star_rhat=4.5, k_star_groups=3.0, k_star_rhat_std=0.5, "
        "k_star_groups_std=1.0, num_seeds=3)",
        4,
    ),
    Contract(
        Gate, dict(kind="CNOT", qubits=(0, 2)), {}, "Gate(kind='CNOT', qubits=(0, 2))", (0, 1),
    ),
    Contract(
        CliffordCircuit, dict(n_qubits=3, gates=(H0, CNOT02)), {},
        "CliffordCircuit(n_qubits=3, gates=(Gate(kind='H', qubits=(0,)), "
        "Gate(kind='CNOT', qubits=(0, 2))))",
        (H0,),
    ),
    Contract(
        Tableau, dict(n_qubits=1, x_images=((0, 1),), z_images=((1, 0),)), {},
        "Tableau(n_qubits=1, x_images=((0, 1),), z_images=((1, 0),))", ((1, 1),),
    ),
]
by_type = pytest.mark.parametrize("c", CONTRACTS, ids=[c.cls.__name__ for c in CONTRACTS])


def test_every_value_type_has_a_contract():
    value_types = {name for name in PUBLIC if name[0].isupper() and name != "HamiltonianFileError"}
    assert {c.cls.__name__ for c in CONTRACTS} == value_types


@by_type
def test_construction_by_position_and_by_keyword(c):
    for value in (c.cls(*c.args), c.cls(**c.kwargs)):
        assert {name: getattr(value, name) for name in c.kwargs} == c.kwargs
        assert repr(value) == c.repr


@by_type
def test_defaults(c):
    given = {name: v for name, v in c.kwargs.items() if name not in c.defaults}
    for value in (c.cls(*given.values()), c.cls(**given)):
        assert {name: getattr(value, name) for name in c.defaults} == c.defaults
    if not c.defaults:
        with pytest.raises(TypeError):
            c.cls(*c.args[:-1])


@by_type
def test_equality_and_hash(c):
    value, twin, other = c.cls(*c.args), c.cls(*c.args), c.cls(*c.other)
    assert value == value and value != other and value != c.args
    if c.cls is Tableau:  # compared and hashed by identity
        assert value != twin and hash(value) == object.__hash__(value)
    else:
        assert value == twin and not value != twin and hash(value) == hash(twin)
        assert len({value, twin, other}) == 2


@by_type
def test_pickle_and_deepcopy_round_trip(c):
    value = c.cls(*c.args)
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(back) is c.cls and back is not value and repr(back) == c.repr
        assert back == value or c.cls is Tableau
        assert {name: getattr(back, name) for name in c.kwargs} == c.kwargs


def test_sequences_are_stored_as_tuples():
    # a list given to a value type must not stay mutable inside it
    gate = Gate("H", [0])
    assert gate == Gate.h(0) and hash(gate) == hash(Gate.h(0))
    assert repr(gate) == "Gate(kind='H', qubits=(0,))"
    grouping = Grouping(BlockSpec((2,)), [[0, 1]], 2.0)
    assert grouping.groups == ((0, 1),)
    assert hash(grouping) == hash(Grouping(BlockSpec((2,)), ((0, 1),), 2.0))
    assert repr(grouping) == "Grouping(blocks=BlockSpec((2,)), groups=((0, 1),), r_hat=2.0)"


@by_type
def test_no_attribute_can_be_set_or_deleted(c):
    value = c.cls(*c.args)
    for name in (*c.kwargs, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == c.repr
