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
exactly once in its file, or a mutant survives. A mutant that only a newer
Python's tests can catch names that version in `since` and is skipped on
older ones. The file name keeps it out of the Tier-1 collection.
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
    since: tuple[int, int] = (3, 10)  # the first Python whose tests catch it


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
        "render weights x and z the other way round",
        "paulis.py",
        'int(format(self.x_bits, f"{w}b"), 16) + 2 * int(format(self.z_bits, f"{w}b"), 16)',
        '2 * int(format(self.x_bits, f"{w}b"), 16) + int(format(self.z_bits, f"{w}b"), 16)',
        ("test_paulis.py",),
    ),
    Mutant(
        "render drops the reversal",
        "paulis.py",
        'format(digits, f"{w}x")[::-1]',
        'format(digits, f"{w}x")',
        ("test_paulis.py",),
    ),
    Mutant(
        "parser misses a repeated Y index",
        "paulis.py",
        "if (x | z) & bit:",
        "if (x ^ z) & bit:",
        ("test_paulis.py",),
    ),
    Mutant(
        "the one-pass sparse parse skips the repeated-index check",
        "paulis.py",
        "if (x | z) & bit:",
        "if False:",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "parser lets index n through to PauliString",
        "paulis.py",
        "if idx >= limit:",
        "if idx > limit:",
        ("test_paulis.py",),
    ),
    Mutant(
        "BlockSpec truncates float sizes",
        "paulis.py",
        "sizes = tuple(map(operator.index, sizes))",
        "sizes = tuple(map(int, sizes))",
        ("test_paulis.py",),
    ),
    Mutant(
        "kernel: Y anticommutes with Y",
        "paulis.py",
        "anti = (x & mz) ^ (z & mx)",
        "anti = (x & mz) | (z & mx)",
        ("test_paulis.py",),
    ),
    Mutant(
        "kernel skips the first block start, so never the whole string's parity",
        "paulis.py",
        "for s in starts:",
        "for s in starts[1:]:",
        ("test_paulis.py",),
    ),
    Mutant(
        "kernel stops at the first even suffix, not the first empty one",
        "paulis.py",
        "if not (suffix := anti >> s):",
        "if not (suffix := anti >> s).bit_count() & 1:",
        ("test_paulis.py",),
    ),
    Mutant(
        "transpose fills the column one qubit up",
        "paulis.py",
        "cols[low.bit_length() - 1] |= bit",
        "cols[low.bit_length()] |= bit",
        ("test_paulis.py",),
    ),
    Mutant(
        "anticommutation table cuts at odd partners",
        "grouping.py",
        "even = hit & ~odd",
        "even = odd",
        ("test_grouping.py",),
    ),
    Mutant(
        "anticommutation table: a Y qubit reads the z column",
        "grouping.py",
        "(ycol[q] if z & low else zcol[q])",
        "(zcol[q] if z & low else zcol[q])",
        ("test_grouping.py",),
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
        # builtin sum() compensates from Python 3.12 on; before, it adds
        # left to right like the loop, and no test can tell them apart
        "score sums a group's squares with builtin sum()",
        "grouping.py",
        "        squares = 0.0\n        for i in group:\n            squares += scaled[i] * scaled[i]\n",
        "        squares = sum(scaled[i] * scaled[i] for i in group)\n",
        ("test_grouping.py",),
        since=(3, 12),
    ),
    Mutant(
        "k* with zero tolerance needs more than the maximum",
        "analysis.py",
        "if r >= (1.0 - rel_tol) * best_r",
        "if r > (1.0 - rel_tol) * best_r",
        ("test_analysis.py",),
    ),
    Mutant(
        "a pool starts for a single cell",
        "analysis.py",
        "if jobs > 1 and len(items) > 1:",
        "if jobs > 1 and len(items) >= 1:",
        ("test_analysis.py",),
    ),
    Mutant(
        "a pool starts a worker per job, not per cell",
        "analysis.py",
        "workers = min(jobs, len(items))",
        "workers = jobs",
        ("test_analysis.py",),
    ),
    Mutant(
        "depth floor accepts a negative, NaN or infinite gate count",
        "analysis.py",
        "if not 0 <= d_gates < math.inf:",
        "if False:",
        ("test_analysis.py",),
    ),
    Mutant(
        "depth floor of an int gate count rounds down",
        "analysis.py",
        "return -(-d_gates // n)",
        "return d_gates // n",
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
        "apply takes the x images for the z bits",
        "clifford.py",
        "(self.z_images, pauli.z_bits)",
        "(self.x_images, pauli.z_bits)",
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
        "symplectic check compares an image with its own bit",
        "clifford.py",
        "if anti != 1 << (i + n) % (2 * n):",
        "if anti != 1 << i:",
        ("test_clifford.py",),
    ),
    Mutant(
        "symplectic check walks only the x bits",
        "clifford.py",
        "for cols, bits in ((zs, x), (xs, z)):",
        "for cols, bits in ((zs, x),):",
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
        "independent rows rank z leading bits above x",
        "clifford.py",
        "for pivots in (x_pivots, z_pivots)",
        "for pivots in (z_pivots, x_pivots)",
        ("test_clifford.py",),
    ),
    Mutant(
        "block synthesis skips the lowest qubit of its rows' support",
        "clifford.py",
        "    while bits:  # each set bit, lowest first\n",
        "    bits &= bits - 1\n    while bits:  # each set bit, lowest first\n",
        ("test_clifford.py",),
    ),
    Mutant(
        "touched-block walk clears only the lowest qubit, so a block is synthesized again",
        "clifford.py",
        "touched &= ~mask",
        "touched &= touched - 1",
        ("test_clifford.py",),
    ),
    Mutant(
        "depth layers a gate after its shallowest qubit",
        "clifford.py",
        "layer = 1 + max(last.get(q, 0) for q in qubits)",
        "layer = 1 + min(last.get(q, 0) for q in qubits)",
        ("test_clifford.py",),
    ),
    Mutant(
        "loader drops the sparse index's sys.maxsize check",
        "hamiltonians.py",
        "if w > sys.maxsize:",
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
        "term-file errors name the line before",
        "hamiltonians.py",
        'f"{path}: line {ln}: {message}"',
        'f"{path}: line {ln - 1}: {message}"',
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "the loader raises a syntax error before it has scanned every coefficient",
        "hamiltonians.py",
        "syntax = ln, str(exc)\n",
        "raise _line_error(path, ln, str(exc))\n",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "the column check skips duplicates",
        "hamiltonians.py",
        "or len(set(zip(xs, zs))) < len(xs)",
        "or False",
        ("test_hamiltonians.py",),
    ),
    Mutant(
        "messages name a 1,024-qubit string sparse",
        "hamiltonians.py",
        "if n <= 1024:",
        "if n < 1024:",
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
        "the CLI defaults to two workers",
        "cli.py",
        '"--jobs", type=int, default=1,',
        '"--jobs", type=int, default=2,',
        ("test_cli.py",),
    ),
    Mutant(
        "main catches only ValueError and OSError",
        "cli.py",
        "except Exception as exc:",
        "except (ValueError, OSError) as exc:",
        ("test_cli.py",),
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
    mutants = []
    for mutant in MUTANTS:
        if sys.version_info >= mutant.since:
            mutants.append(mutant)
        else:
            since = ".".join(map(str, mutant.since))
            print(f"skipped   {mutant.name}: caught from Python {since} on", flush=True)
    tests = sorted({name for m in mutants for name in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "unmutated"
        _copy_tree(copy)
        verdict, seconds, out = _pytest(copy, tests)
        print(f"{verdict:9} {seconds:6.1f} s  unmutated: {' '.join(tests)}", flush=True)
        if verdict != "pass":
            print(out)
            return 1
        caught = 0
        for i, mutant in enumerate(mutants):
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
    print(f"caught {caught}/{len(mutants)}")
    return 0 if caught == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
