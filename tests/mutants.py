"""Mutation gate: each wrong rule in MUTANTS must fail a test.

Run it from anywhere, with the `test` extra of pyproject.toml installed:

    python tests/mutants.py

It copies src/, tests/, pyproject.toml and README.md into a temporary
directory, runs the unmutated copy's tests first (they must pass), then, for
each mutant, applies it to a fresh copy and runs `pytest -x -q` on the test
files that must catch it, with PYTHONPATH pointing at the copy. Every run has
a timeout and an address-space limit, set in its own child only; on timeout
the child's whole process group is killed, pool workers included. It exits
non-zero if the unmutated copy fails, a mutant's old text is not found
exactly once in its file, or a mutant survives. The file name keeps it out
of the Tier-1 collection.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import suppress
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
ADDRESS_SPACE = 4 << 30  # bytes; a runaway mutant fails instead of filling memory


class Mutant(NamedTuple):
    name: str
    file: str  # under src/pauliblocks
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # under tests/, the files that must catch it


MUTANTS = [
    Mutant(
        "value types compare without their last field",
        "paulis.py",
        "return self._values() == other._values()",
        "return self._values()[:-1] == other._values()[:-1]",
        ("test_public_api.py",),
    ),
    Mutant(
        "value types accept assignment",
        "paulis.py",
        'raise AttributeError(f"{type(self).__name__}.{name} is read-only")',
        "object.__setattr__(self, name, value)",
        ("test_public_api.py",),
    ),
    Mutant(
        "value types pickle without their last constructor argument",
        "paulis.py",
        "return type(self), self._values()",
        "return type(self), self._values()[:-1]",
        ("test_public_api.py",),
    ),
    Mutant(
        "column fit keeps its accepted bit",
        "grouping.py",
        "candidates &= ~(hit | parity | low)",
        "candidates &= ~(hit | parity)",
        ("test_grouping.py",),
    ),
    Mutant(
        "relation classes skip the multiple at the top qubit",
        "grouping.py",
        "for m in range(k, top + 1, k):",
        "for m in range(k, top, k):",
        ("test_analysis.py",),
    ),
    Mutant(
        "relation classes clear a cut's bit at b",
        "grouping.py",
        "edges[b + 1] ^= 1 << i",
        "edges[b] ^= 1 << i",
        ("test_analysis.py",),
    ),
    Mutant(
        "sweep blocks by q % k",
        "grouping.py",
        "[q // k for q in range(t.n_qubits)]",
        "[q % k for q in range(t.n_qubits)]",
        ("test_analysis.py",),
    ),
    Mutant(
        "partition check drops operator.index",
        "grouping.py",
        "flat = [operator.index(i) for g in groups for i in g]",
        "flat = [i for g in groups for i in g]",
        ("test_grouping.py",),
    ),
    Mutant(
        "pool threshold is never reached",
        "analysis.py",
        "_reaches(work, _POOL_MIN_WORK)",
        "_reaches(work, math.inf)",
        ("test_analysis.py",),
    ),
    Mutant(
        "pool maps one item per chunk",
        "analysis.py",
        "chunksize = math.ceil(len(items) / (4 * workers))",
        "chunksize = 1",
        ("test_analysis.py",),
    ),
    Mutant(
        "k* work estimate drops the class term",
        "analysis.py",
        " + 10 * table + 3 * h.num_terms * classes",
        " + 10 * table",
        ("test_analysis.py", "test_cli.py"),
    ),
    Mutant(
        "conjugate: H swaps no z bit",
        "clifford.py",
        "                x ^= d\n                z ^= d\n",
        "                x ^= d\n",
        ("test_clifford.py",),
    ),
    Mutant(
        "conjugate: S adds z into x",
        "clifford.py",
        "z ^= x & (1 << gate.qubits[0])",
        "x ^= z & (1 << gate.qubits[0])",
        ("test_clifford.py",),
    ),
    Mutant(
        "conjugate: CNOT copies z from control to target",
        "clifford.py",
        "if z >> t & 1:\n                z ^= 1 << c",
        "if z >> c & 1:\n                z ^= 1 << t",
        ("test_clifford.py",),
    ),
    Mutant(
        "columns: H copies z over x",
        "clifford.py",
        "xs[q], zs[q] = zs[q], xs[q]",
        "xs[q] = zs[q]",
        ("test_clifford.py",),
    ),
    Mutant(
        "columns: S adds z into x",
        "clifford.py",
        "zs[q] ^= xs[q]",
        "xs[q] ^= zs[q]",
        ("test_clifford.py",),
    ),
    Mutant(
        "columns: CNOT adds the control's z into the target",
        "clifford.py",
        "zs[c] ^= zs[t]",
        "zs[t] ^= zs[c]",
        ("test_clifford.py",),
    ),
    Mutant(
        "elimination skips its commutation check",
        "clifford.py",
        "if xs[pivot] & open_rows:",
        "if False:",
        ("test_clifford.py",),
    ),
    Mutant(
        "loader drops the sparse index's sys.maxsize check",
        "hamiltonians.py",
        "if width > sys.maxsize:",
        "if False:",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "Hamiltonian accepts a non-finite offset",
        "hamiltonians.py",
        "if not math.isfinite(offset):\n            raise ValueError",
        "if False:\n            raise ValueError",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "loader drops the declared qubit count's sys.maxsize check",
        "hamiltonians.py",
        "if declared_n > sys.maxsize:",
        "if False:",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "random_hamiltonian draws one term too few",
        "hamiltonians.py",
        "while len(drawn) < n:",
        "while len(drawn) < n - 1:",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "import pauliblocks loads analysis and clifford",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        '__version__ = "0.1.0"\nfrom . import analysis, clifford\n',
        ("test_cli.py",),
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):  # a test runs README's quickstart
        shutil.copy2(ROOT / name, dest / name)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _pytest(copy: Path, tests) -> tuple[str, float, str]:
    """('pass' | 'fail' | 'error' | 'timeout', seconds, output) of
    `pytest -x -q` on the copy's test files, importing the copy's src."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += [f"tests/{name}" for name in tests]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True, preexec_fn=_limit_address_space,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
        verdict = {0: "pass", 1: "fail"}.get(proc.returncode, "error")
    except subprocess.TimeoutExpired:
        verdict = "timeout"
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        # whatever the verdict, leave no worker of the run's process group
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    return verdict, time.perf_counter() - start, out


def _mutate(copy: Path, mutant: Mutant) -> bool:
    path = copy / "src" / "pauliblocks" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def main() -> int:
    tests = sorted({name for m in MUTANTS for name in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "unmutated"
        _copy_tree(copy)
        verdict, seconds, out = _pytest(copy, tests)
        print(f"{verdict:9} {seconds:6.1f} s  unmutated: {' '.join(tests)}", flush=True)
        if verdict != "pass":
            print(out)
            return 1
        caught = 0
        for i, mutant in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant-{i}"
            _copy_tree(copy)
            if not _mutate(copy, mutant):
                print(f"missing {mutant.name}: old text not once in {mutant.file}", flush=True)
                continue
            verdict, seconds, out = _pytest(copy, mutant.tests)
            shutil.rmtree(copy)
            # a failing test catches the mutant; a pass lets it survive, and
            # an error or a timeout shows nothing either way
            status = {"fail": "caught", "pass": "SURVIVED"}.get(verdict, verdict)
            print(f"{status:9} {seconds:6.1f} s  {mutant.name}", flush=True)
            caught += verdict == "fail"
            if verdict not in ("fail", "pass"):
                print(out)
    print(f"caught {caught}/{len(MUTANTS)}")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
