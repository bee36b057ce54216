"""Shared test oracles, a deadline fixture and the acceptance-criteria
report hook."""

from __future__ import annotations

import concurrent.futures
import contextlib
import signal
from functools import reduce

import numpy as np
import pytest

from pauliblocks import CliffordCircuit, Gate, PauliString
from pauliblocks import analysis, grouping

# ---------------------------------------------------------------------------
# Dense-matrix oracles, independent of the bit-vector implementation.

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def pauli_matrix(p: PauliString) -> np.ndarray:
    """2^n x 2^n matrix of a Pauli string, qubit 0 first in the kron chain."""
    return reduce(np.kron, (_SINGLE[ch] for ch in p.render()))


def matrices_commute(a: np.ndarray, b: np.ndarray) -> bool:
    return np.allclose(a @ b, b @ a)


def gate_matrix(gate: Gate, n: int) -> np.ndarray:
    if gate.kind in ("H", "S"):
        single = _H if gate.kind == "H" else _S
        mats = [np.eye(2, dtype=complex)] * n
        mats[gate.qubits[0]] = single
        return reduce(np.kron, mats)
    c, t = gate.qubits
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    left = [np.eye(2, dtype=complex)] * n
    right = [np.eye(2, dtype=complex)] * n
    left[c] = p0
    right[c] = p1
    right[t] = _SINGLE["X"]
    return reduce(np.kron, left) + reduce(np.kron, right)


def circuit_matrix(circuit: CliffordCircuit) -> np.ndarray:
    """Unitary of the whole circuit; the first listed gate acts first."""
    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_matrix(gate, circuit.n_qubits) @ u
    return u


def equal_up_to_sign(a: np.ndarray, b: np.ndarray) -> bool:
    return np.allclose(a, b) or np.allclose(a, -b)


def folds_identity_if(folds: bool):
    """Expect the loader's identity-folding warning exactly when `folds`:
    pyproject.toml makes any other warning from the library an error."""
    if folds:
        return pytest.warns(UserWarning, match="folding identity")
    return contextlib.nullcontext()


class _ReadOnce(list):
    """An insertion order that fails once more terms are read from it than
    it holds: a column fit reads each term it accepts exactly once."""

    reads = 0

    def __getitem__(self, r):
        self.reads += 1
        if self.reads > len(self):
            raise AssertionError(f"column fit accepted more than {len(self)} terms")
        return super().__getitem__(r)


@pytest.fixture
def deadline(monkeypatch):
    """Fail instead of hanging: a column fit that stops clearing the terms
    it accepts never finishes. One that accepts a term twice fails at its
    first excess term, before its groups grow; any other hang fails at the
    alarm."""

    def expire(signum, frame):
        raise TimeoutError("first fit did not finish within 20 s")

    real = grouping._column_fit
    monkeypatch.setattr(
        grouping,
        "_column_fit",
        lambda antis, order, home: real(antis, _ReadOnce(order), home),
    )
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pool_at_any_work(monkeypatch):
    """Let `analysis._map` start its pool however little work it is handed,
    so that small inputs exercise the pooled path."""
    monkeypatch.setattr(analysis, "_POOL_MIN_WORK", 0)


class _PoolRecord:
    def __init__(self):
        self.started = []  # max_workers of every pool; no process is started
        self.handed = []  # the items each pool's map got
        self.chunks = []  # the chunksize each pool's map got


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the process pool with one that runs its items in this
    process and records what `analysis._map` asked of it."""
    record = _PoolRecord()

    class RecordingPool:
        def __init__(self, max_workers):
            record.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            record.handed.append(items)
            record.chunks.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return record


# ---------------------------------------------------------------------------
# Acceptance reporting: one line per criterion in the terminal summary.

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, description: str, ok: bool) -> bool:
    ACCEPTANCE_LINES.append(
        f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}"
    )
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(ACCEPTANCE_LINES)):
            terminalreporter.line(line)
